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
# oracle on all 40 suite + 4 wild traces, then the contract checks in
# benchmarks/test_contracts.py assert their floors: vectorized speedups
# over scalar, checkpoint overhead, warm-state reuse, campaign fan-out
# and 100-session serving. Comparable timings come from the e2e stage.
REPRO_FULL_DIFFERENTIAL=1 python3 -m pytest tests/test_batchkernel.py \
    -m vectorized -q || {
    echo BATCH_KERNEL_DIFFERENTIAL_FAILED
    exit 1
}
python3 -m repro campaign --kernel vectorized \
    --predictors bimodal gshare perceptron bf-neural \
    --jobs "$(nproc)" --telemetry results/campaign-vectorized-telemetry.jsonl \
    --output results/campaign-vectorized.txt --quiet
python3 -m pytest benchmarks --ignore=benchmarks/e2e -p no:benchmark -q || {
    echo BATCH_KERNEL_BENCH_FAILED
    exit 1
}
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
# drained by two executor processes (docs/distribution.md). The shared
# content-addressed store means this is a pure cache replay when the
# campaign stages above already ran; kill -9 any worker mid-run and the
# lease returns to the queue.
python3 -m repro campaign serve SPEC02 SERV3 --predictors bf-neural bf-tage10 \
    --checkpoint-every 10000 --lease-ttl 60 \
    --telemetry results/distributed-telemetry.jsonl \
    --output results/distributed.txt --quiet > results/distributed-serve.log &
SERVE_PID=$!
until ADDRESS=$(grep -om1 '[0-9.]*:[0-9]*$' results/distributed-serve.log); do
    kill -0 "$SERVE_PID" || { echo DISTRIBUTED_SERVE_FAILED; exit 1; }
    sleep 0.2
done
python3 -m repro campaign work --connect "$ADDRESS" --executor-id stage-ex0 --quiet &
python3 -m repro campaign work --connect "$ADDRESS" --executor-id stage-ex1 --quiet &
wait
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
