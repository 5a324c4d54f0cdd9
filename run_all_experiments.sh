#!/bin/bash
# Regenerate every paper table/figure. Results land in results/, sim
# results are cached in .bfbp-cache/ so re-runs are incremental.
set -x
cd /root/repo
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
# Static analysis first: all five rule families (hardware
# faithfulness, determinism taint, schema drift, hot-path perf, and
# concurrency: lock discipline, lock order, blocking under a lock,
# protocol FSMs) plus the storage-budget audit. A violation, a stale
# baseline entry or a blown budget should stop the campaign before
# hours of simulation, not after.
python3 -m repro.analysis src/ --json > results/analysis.json || {
    echo STATIC_ANALYSIS_FAILED
    exit 1
}
python3 -m repro.analysis src/ --no-audit --fail-on-stale \
    --format json > results/analysis-findings.jsonl || {
    echo STATIC_ANALYSIS_FAILED
    exit 1
}
# End-to-end smoke stage (benchmarks/e2e/README.md): every benchmark
# workload once on tiny inputs, each output checked against an
# independent path (the scalar oracle, a cut-and-resumed run, offline
# simulate() for served sessions). A hot-path change that breaks
# bit-identity fails here, before the figures and the full benchmark.
python3 -m benchmarks.e2e run --smoke --seconds 0.5 || {
    echo E2E_SMOKE_FAILED
    exit 1
}
# Cache-key stage (docs/orchestration.md): keys digest code tokens, not
# prose. A campaign run again from a copy of src/ whose simulator,
# BF-Neural kernel and bit helpers each gained a comment line must be
# served entirely from the cache the first run filled.
PROSE_DIR=$(mktemp -d)
python3 -m repro campaign SPEC02 FP1 --predictors gshare bf-neural --branches 20000 \
    --cache-dir "$PROSE_DIR/cache" --output "$PROSE_DIR/first.txt" --quiet
cp -r src "$PROSE_DIR/src"
for module in sim/simulator.py sim/bfkernel.py common/bitops.py; do
    echo "# a comment line" >> "$PROSE_DIR/src/repro/$module"
done
PYTHONPATH="$PROSE_DIR/src" python3 -m repro campaign SPEC02 FP1 \
    --predictors gshare bf-neural --branches 20000 \
    --cache-dir "$PROSE_DIR/cache" --telemetry "$PROSE_DIR/second.jsonl" \
    --output "$PROSE_DIR/second.txt" --quiet
python3 -c '
import sys
from repro.orchestration import read_events
events = [event["event"] for event in read_events(sys.argv[1])]
sys.exit(events.count("cache_hit") != 4 or "cache_miss" in events)
' "$PROSE_DIR/second.jsonl" || {
    echo CACHE_KEY_PROSE_DRIFT
    exit 1
}
rm -rf "$PROSE_DIR"
# BF-GHR stage: the in-place packed segmented recency stacks against
# their frozen reference and the segments the ring determines, and the
# kernels' one-LRU closed form, under random geometry with ten times
# tier-1's hypothesis examples, then the BF-TAGE-family goldens
# (straight and JSON-resumed). Fig. 10-12 all run BF-TAGE, so a drift
# stops here.
REPRO_FULL_DIFFERENTIAL=1 python3 -m pytest tests/test_segments.py \
    tests/test_bftage_goldens.py -k "FrozenReference or OneLru or golden" -q || {
    echo SEGMENTS_DIFFERENTIAL_FAILED
    exit 1
}
python3 -m repro.experiments.table1_storage --output results/table1.txt > /dev/null 2>&1
python3 -m repro.experiments.fig2_bias     --output results/fig2.txt  > /dev/null 2>&1
python3 -m repro.experiments.fig12_hits    --verbose --output results/fig12.txt
python3 -m repro.experiments.fig10_tables  --verbose --output results/fig10.txt
python3 -m repro.experiments.fig11_relative --verbose --output results/fig11.txt
python3 -m repro.experiments.fig8_mpki     --verbose --output results/fig8.txt
python3 -m repro.experiments.fig9_ablation --verbose --output results/fig9.txt
python3 -m repro.experiments.energy_analysis --output results/energy.txt > /dev/null 2>&1
python3 -m repro.experiments.profile_assisted --output results/profile_assisted.txt > /dev/null 2>&1
# Orchestrated campaign: the same predictors fanned over the suite via
# the process-pool engine, with checkpoint/resume and JSONL telemetry.
# Content-addressed caching means figure runs above already warmed most
# of this grid.
python3 -m repro campaign --predictors oh-snap tage15 bf-neural \
    --jobs "$(nproc)" --telemetry results/campaign-telemetry.jsonl \
    --output results/campaign.txt --quiet
# Batch-kernel stage: the ported predictors fanned over the suite
# through the vectorized kernel (docs/vectorization.md). Fingerprints
# carry |kernel=vectorized, so this populates its own cache entries;
# the differential sweep first proves bit-identity against the scalar
# oracle on all 40 suite + 4 wild traces, offline and served (sessions
# streamed at the client's default batch, which replays on the kernel),
# then the contract checks in
# benchmarks/test_contracts.py assert their floors: vectorized speedups
# over scalar, checkpoint overhead, warm-state reuse, campaign fan-out
# and 100-session serving. Comparable timings come from the e2e stage.
REPRO_FULL_DIFFERENTIAL=1 python3 -m pytest tests/test_batchkernel.py \
    tests/test_serving.py -m vectorized -q || {
    echo BATCH_KERNEL_DIFFERENTIAL_FAILED
    exit 1
}
python3 -m repro campaign --kernel vectorized \
    --predictors bimodal gshare perceptron bf-neural isl-tage15 tage15 oh-snap bf-isl-tage10 \
    --jobs "$(nproc)" --telemetry results/campaign-vectorized-telemetry.jsonl \
    --output results/campaign-vectorized.txt --quiet
# Campaigns default to --kernel auto: on five suite traces the default
# and the scalar reference loop must print identical predictor lines.
for kernel in default scalar; do
    flag=()
    [ "$kernel" = scalar ] && flag=(--kernel scalar)
    python3 -m repro campaign SPEC02 SPEC11 FP1 MM3 SERV2 "${flag[@]}" \
        --predictors isl-tage15 tage15 bf-neural oh-snap bf-isl-tage10 \
        --cache-dir "results/kernel-$kernel-cache" \
        --output "results/campaign-kernel-$kernel.txt" --quiet
done
grep -E '^(isl-tage15|tage15|bf-neural|oh-snap|bf-isl-tage10) ' results/campaign-kernel-default.txt \
    | cmp - <(grep -E '^(isl-tage15|tage15|bf-neural|oh-snap|bf-isl-tage10) ' results/campaign-kernel-scalar.txt) || {
    echo KERNEL_DEFAULT_MISMATCH
    exit 1
}
python3 -m pytest benchmarks --ignore=benchmarks/e2e -p no:benchmark -q || {
    echo BATCH_KERNEL_BENCH_FAILED
    exit 1
}
# Attribution stage: `repro diagnose` replays through simulate()'s own
# segment runner (the scalar loop for filter, the TAGE kernel for
# bf-tage10, BF-Neural's kernel for bf-neural) and must print its
# offender table either way.
for predictor in filter bf-tage10 bf-neural; do
    python3 -m repro diagnose SPEC02 --providers --branches 5000 \
        --predictor "$predictor" | grep -q "misprediction attribution" || {
        echo DIAGNOSE_FAILED
        exit 1
    }
done
# Workload-suite stage (docs/workloads.md): resolve the checked-in demo
# manifest (synthetic + generator + pinned import + mix entries), prove
# the interchange converter round-trips bit-identically through both
# text dialects, then run the imported + mixed entries through the
# campaign engine with the scalar and the vectorized kernel. The two
# result files must be identical — same MPKI on the same content-
# addressed suite.
python3 -m repro suite --manifest examples/suites/demo.toml || {
    echo SUITE_MANIFEST_RESOLVE_FAILED
    exit 1
}
python3 -m repro convert examples/suites/imported_fp1.csv results/wl.bfbp
python3 -m repro convert results/wl.bfbp results/wl.bft
python3 -m repro convert results/wl.bft results/wl2.bfbp
python3 -m repro convert results/wl2.bfbp results/wl.csv
cmp results/wl.bfbp results/wl2.bfbp || {
    echo INTERCHANGE_ROUND_TRIP_FAILED
    exit 1
}
cmp examples/suites/imported_fp1.csv results/wl.csv || {
    echo INTERCHANGE_ROUND_TRIP_FAILED
    exit 1
}
# Every interchange format is a trace argument as it stands: the same
# trace as BFBP, BFT text and CSV must simulate to identical lines.
expected=$(python3 -m repro simulate --predictors gshare -- results/wl.bfbp | grep gshare)
for trace in results/wl.bft results/wl.csv examples/suites/imported_fp1.csv; do
    actual=$(python3 -m repro simulate --predictors gshare -- "$trace" | grep gshare)
    [ -n "$expected" ] && [ "$actual" = "$expected" ] || {
        echo TRACE_ARGUMENT_MISMATCH
        exit 1
    }
done
python3 -m repro campaign "@examples/suites/demo.toml" \
    --predictors gshare bf-neural \
    --telemetry results/campaign-suite-telemetry.jsonl \
    --output results/campaign-suite.txt --quiet
python3 -m repro campaign "@examples/suites/demo.toml" --kernel vectorized \
    --predictors gshare \
    --output results/campaign-suite-vectorized.txt --quiet
grep gshare results/campaign-suite.txt | cmp - <(grep gshare results/campaign-suite-vectorized.txt) || {
    echo SUITE_KERNEL_MISMATCH
    exit 1
}
# One-engine stage: the same warmed-up, checkpoint-streaming campaign
# through the scalar loop and through the vectorized kernels, each into
# its own cache, so CLI -> engine -> scheduler -> simulate() drives the
# warmup edge and the streamed cuts on both kernels; bf-neural-32k puts a
# second BF-Neural geometry through both. The predictor lines must be
# identical.
for kernel in scalar vectorized; do
    python3 -m repro campaign SPEC02 SERV3 --predictors gshare bf-neural bf-neural-32k \
        --branches 20000 --warmup 1500 --checkpoint-every 7000 \
        --kernel "$kernel" --cache-dir "results/engine-$kernel-cache" \
        --output "results/campaign-engine-$kernel.txt" --quiet
done
grep -E '^(gshare|bf-neural|bf-neural-32k) ' results/campaign-engine-scalar.txt \
    | cmp - <(grep -E '^(gshare|bf-neural|bf-neural-32k) ' results/campaign-engine-vectorized.txt) || {
    echo ENGINE_KERNEL_MISMATCH
    exit 1
}
# Checkpoint/resume stage: the heavyweight configs again with mid-trace
# state checkpoints streaming into .bfbp-cache/state/. If this script is
# killed here, re-running it resumes every unfinished task from its last
# cut (task_resume events in the telemetry) instead of branch zero.
python3 -m repro campaign SPEC02 SPEC08 SERV3 --predictors bf-neural bf-tage10 \
    --checkpoint-every 10000 \
    --telemetry results/campaign-resume-telemetry.jsonl \
    --output results/campaign-resume.txt --quiet
# Record canonical state hashes of trained predictors (a counter table
# and the paper's BF-Neural) so two checkouts can check bit-identity of
# the whole simulation stack.
for predictor in gshare bf-neural; do
    echo "$(python3 -m repro state hash --predictor "$predictor" --trace SPEC02)  $predictor SPEC02"
done > results/state-hash.txt
# Distribution stage: the same grid served by a loopback coordinator and
# drained by two executor processes (docs/distribution.md); kill -9 any
# worker mid-run and the lease returns to the queue. It starts from its
# own empty cache: with the shared .bfbp-cache the grid is already
# settled, so the coordinator would exit before an executor joined and
# nothing would be distributed.
rm -rf results/distributed-cache
python3 -m repro campaign serve SPEC02 SERV3 --predictors bf-neural bf-tage10 \
    --checkpoint-every 10000 --lease-ttl 60 --cache-dir results/distributed-cache \
    --telemetry results/distributed-telemetry.jsonl \
    --output results/distributed.txt --quiet > results/distributed-serve.log &
SERVE_PID=$!
until ADDRESS=$(grep -om1 '[0-9.]*:[0-9]*$' results/distributed-serve.log); do
    kill -0 "$SERVE_PID" || { echo DISTRIBUTED_SERVE_FAILED; exit 1; }
    sleep 0.2
done
python3 -m repro campaign work --connect "$ADDRESS" --executor-id stage-ex0 --quiet &
WORK0_PID=$!
python3 -m repro campaign work --connect "$ADDRESS" --executor-id stage-ex1 --quiet &
WORK1_PID=$!
# A bare `wait` returns 0 whatever its children did: wait on each PID so
# a failed grid (serve exits 1) or a crashed executor stops the run.
DISTRIBUTED_OK=1
for pid in "$SERVE_PID" "$WORK0_PID" "$WORK1_PID"; do
    wait "$pid" || DISTRIBUTED_OK=0
done
[ "$DISTRIBUTED_OK" = 1 ] || { echo DISTRIBUTED_CAMPAIGN_FAILED; exit 1; }
# Serving stage: the always-on prediction service warm-started from the
# same state store, load-tested with 100 concurrent sessions mixing
# calibrated and adversarial wild-branch traffic (docs/serving.md). The
# loadgen exits non-zero on any protocol error and persists the
# latency percentiles.
python3 -m repro serve-predict --port 0 --state-dir .bfbp-cache/state \
    --warmup 500 --branches 2000 \
    --telemetry results/serving-telemetry.jsonl \
    > results/serving-serve.log &
PREDICT_PID=$!
until PREDICT_ADDRESS=$(grep -om1 '[0-9.]*:[0-9]*$' results/serving-serve.log); do
    kill -0 "$PREDICT_PID" || { echo SERVE_PREDICT_FAILED; exit 1; }
    sleep 0.2
done
python3 -m repro loadgen --connect "$PREDICT_ADDRESS" --profile mixed \
    --sessions 100 --events 2000 --batch 256 \
    --output results/serving-loadgen.json || {
    kill "$PREDICT_PID"
    echo SERVING_LOADGEN_FAILED
    exit 1
}
python3 -m repro loadgen --connect "$PREDICT_ADDRESS" --profile wild \
    --sessions 100 --events 2000 --batch 256 --warm --warmup 500 \
    --output results/serving-loadgen-warm.json || {
    kill "$PREDICT_PID"
    echo SERVING_LOADGEN_FAILED
    exit 1
}
kill "$PREDICT_PID"
echo ALL_EXPERIMENTS_DONE
