"""Speed and scale contracts: the floors the fast paths promise.

Each check times both sides itself with ``telemetry.monotonic`` and
asserts a conservative floor, so it needs no pytest plugin and writes
no file.  These are pass/fail contracts, not measurements: comparable
numbers (paced reference milliseconds, seed-matched pairs, IQRs) come
from ``python -m benchmarks.e2e``.

Wall-clock floors are noisy on small shared hosts, so the tier-1 suite
leaves them out; ``run_all_experiments.sh`` runs them::

    PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/e2e -q
"""

import itertools
import multiprocessing
import os
from functools import partial
from pathlib import Path

import pytest

from repro.core import BFISLTage, BFNeural, BFTage, BFTageConfig
from repro.experiments import common
from repro.orchestration import CampaignPlan, StateStore, TraceSpec, run_plan
from repro.orchestration.registry import standard_registry
from repro.orchestration.telemetry import monotonic
from repro.predictors import (
    Bimodal,
    GlobalPerceptron,
    GShare,
    ISLTage,
    ScaledNeural,
    Tage,
    TageConfig,
)
from repro.serving import PredictionServer, WarmSnapshotPool, run_load
from repro.sim import simulate
from repro.workloads import build_trace, trace_names

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel scheduler requires the fork start method",
)


def _timed(run):
    """``(result, elapsed seconds)`` of one call."""
    started = monotonic()
    result = run()
    return result, monotonic() - started


def _isl_tage(num_tables: int) -> ISLTage:
    return ISLTage(TageConfig.for_tables(num_tables))


# --- vectorized batch kernel -------------------------------------------------

#: Predictors ported to the batch kernel, with the speedup floor each
#: one contracts over the scalar loop when ``simulate`` runs again over
#: one ``Trace``: bimodal and gshare then reuse the replay plan cached
#: for its arrays.  No figure campaign runs either, and a freshly built
#: trace always misses that cache (the e2e ``simulate-vectorized``
#: workload times those cold calls).  Bimodal and gshare are pure
#: gather/scatter; perceptron, BF-Neural, OH-SNAP and the TAGE family
#: keep a sequential python segment (the weight-update chain, the table
#: side), so their floors are conservative.
VEC_CONTENDERS = {
    "bimodal": (Bimodal, 10.0),
    "gshare": (GShare, 10.0),
    "perceptron": (lambda: GlobalPerceptron(1024, 64), 1.5),
    "bf-neural": (BFNeural, 3.0),
    "tage15": (lambda: Tage(TageConfig.for_tables(15)), 2.0),
    "isl-tage15": (partial(_isl_tage, 15), 2.0),
    # Measured 2.5x (bf-tage10) and 3.0x (bf-isl-tage10) on a 2-vCPU host.
    "bf-tage10": (lambda: BFTage(BFTageConfig.for_tables(10)), 1.5),
    "bf-isl-tage10": (lambda: BFISLTage(BFTageConfig.for_tables(10)), 1.5),
    "oh-snap": (ScaledNeural, 1.5),
}


@pytest.fixture(scope="module")
def vec_trace():
    """The batch kernel's per-call overhead (plan construction, array
    staging) amortizes over trace length, so the speedup contract is
    stated at a realistic working size."""
    return build_trace("SPEC03", 40_000)


@pytest.mark.vectorized
@pytest.mark.parametrize("name", list(VEC_CONTENDERS))
def test_vectorized_kernel_speedup(vec_trace, name):
    """Batch kernel: bit-identical to scalar, and at least its floor faster.

    The scalar twin runs once in the same process for the denominator;
    the vectorized side gets one warmup round and keeps the best of
    three, so the number measures repeated ``simulate`` over one
    ``Trace``: the counter kernels reuse the plan cached for its arrays
    instead of building one per call, as a fresh trace would.
    """
    factory, min_speedup = VEC_CONTENDERS[name]
    scalar_result, scalar_s = _timed(lambda: simulate(factory(), vec_trace))

    def vectorized():
        return simulate(factory(), vec_trace, kernel="vectorized")

    vectorized()
    vector_s = float("inf")
    for _ in range(3):
        result, elapsed = _timed(vectorized)
        vector_s = min(vector_s, elapsed)

    assert result.mispredictions == scalar_result.mispredictions
    assert result.mpki == scalar_result.mpki
    speedup = scalar_s / vector_s if vector_s > 0 else float("inf")
    assert speedup >= min_speedup, (
        f"{name}: vectorized kernel {speedup:.1f}x vs scalar "
        f"(contract is >= {min_speedup}x)"
    )


#: Figure campaigns run short traces (the e2e ``campaign`` workload:
#: 400 branches over Fig. 8's 40 traces and Fig. 12's 7), where a
#: kernel's per-call staging weighs most.  ``auto`` is their default
#: kernel; each config here runs over all 40 traces.
CAMPAIGN_BRANCHES = 400
CAMPAIGN_CONFIGS = {
    "bf-neural": common.bf_neural,
    "fig8-tage15": partial(common.tage_with_loop, 15),
    "fig8-oh-snap": common.oh_snap,
    "fig12-isl-tage15": partial(common.isl_tage, 15),
    "fig12-bf-isl-tage10": partial(common.bf_isl_tage, 10),
}


@pytest.mark.vectorized
@pytest.mark.parametrize("name", list(CAMPAIGN_CONFIGS))
def test_auto_kernel_at_campaign_size(name):
    """At campaign trace length ``auto`` is bit-identical to the scalar
    loop (mispredictions, provider hits, final ``state_hash`` per trace)
    and no slower over the 40 traces, best of three interleaved rounds."""
    factory = CAMPAIGN_CONFIGS[name]
    traces = [build_trace(trace, CAMPAIGN_BRANCHES) for trace in trace_names()]

    def run(kernel: str, check: bool = False) -> list:
        outcomes = []
        for trace in traces:
            predictor = factory()
            result = simulate(predictor, trace, track_providers=True, kernel=kernel)
            if check:
                outcomes.append(
                    (result.mispredictions, result.provider_hits, predictor.state_hash())
                )
        return outcomes

    assert run("auto", check=True) == run("scalar", check=True)
    scalar_s, auto_s = _best_of_interleaved(
        lambda: run("scalar"), lambda: run("auto"), rounds=3
    )
    assert auto_s <= scalar_s, (
        f"{name}: auto {auto_s:.3f}s vs scalar {scalar_s:.3f}s over "
        f"{len(traces)} traces of {CAMPAIGN_BRANCHES} branches"
    )


# --- state layer: checkpoint streaming and warm-state reuse ------------------

CHECKPOINT_TRACE_BRANCHES = 120_000
CHECKPOINT_INTERVAL = 100_000

WARM_TRACE = "SPEC03"
WARM_TRACE_BRANCHES = 6_000
WARM_PREFIX = 4_000


def _best_of_interleaved(a, b, rounds: int) -> tuple[float, float]:
    """Min wall-clock of two workloads, alternating rounds so machine
    load drift hits both the same way instead of biasing one side."""
    best_a = best_b = float("inf")
    for _ in range(rounds):
        best_a = min(best_a, _timed(a)[1])
        best_b = min(best_b, _timed(b)[1])
    return best_a, best_b


def _perceptron() -> GlobalPerceptron:
    """The registry's mid-weight config: representative of what campaign
    tasks actually checkpoint (table-heavy, non-trivial per-branch cost),
    unlike gshare whose loop is so cheap one snapshot dominates it."""
    return GlobalPerceptron(rows=1024, history_length=64)


def test_checkpoint_streaming_overhead(tmp_path):
    """Periodic checkpointing at the production interval costs <5%,
    otherwise nobody leaves it on and killed campaigns replay from zero."""
    trace = build_trace("INT1", CHECKPOINT_TRACE_BRANCHES)
    store = StateStore(tmp_path / "state")

    def straight():
        simulate(_perceptron(), trace)

    def checkpointed():
        simulate(
            _perceptron(),
            trace,
            checkpoint_every=CHECKPOINT_INTERVAL,
            on_checkpoint=partial(store.save, "bench"),
        )

    straight_s, checkpointed_s = _best_of_interleaved(
        straight, checkpointed, rounds=5
    )
    assert store.latest("bench") is not None  # it did stream a cut
    assert checkpointed_s / straight_s - 1.0 < 0.05


def warm_pair_plan(state_dir: Path) -> CampaignPlan:
    return CampaignPlan(
        factories={
            "src": partial(_isl_tage, 10),
            "variant": partial(_isl_tage, 10),
        },
        traces=[build_trace(WARM_TRACE, WARM_TRACE_BRANCHES)],
        state_dir=state_dir,
        warmup_branches=WARM_PREFIX,
        warm_share={"variant": "src"},
    )


def test_warm_state_reuse_speedup(tmp_path):
    """A prewarmed state store beats recomputing the shared prefix.

    Cold run (a fresh state dir each round): the variant must simulate
    the source's warmup prefix itself before its measured region.  Warm
    run (same plan, store holding the source's warm cut): the variant
    loads the cut and only simulates the measured suffix.  An untimed
    first run fills the warm store and pays the process's one-off costs
    (imports, code digests) outside both timings.
    """
    warm_state = tmp_path / "warm"
    fresh_states = (tmp_path / f"cold-{n}" for n in itertools.count())
    colds = [run_plan(warm_pair_plan(warm_state))]
    warms = []
    cold_s, warm_s = _best_of_interleaved(
        lambda: colds.append(run_plan(warm_pair_plan(next(fresh_states)))),
        lambda: warms.append(run_plan(warm_pair_plan(warm_state))),
        rounds=5,
    )
    cold, warm = colds[-1], warms[-1]

    assert warm == cold  # reuse never changes the numbers
    assert warm["variant"][0] == warm["src"][0]  # identical configs agree
    # Theoretical ceiling here is ~1.5x (12k vs 8k simulated branches);
    # ask for a conservative slice of it.
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    assert speedup > 1.1


# --- campaign engine: jobs=N fan-out -----------------------------------------

GRID_TRACES = ["FP1", "INT1", "MM1", "SERV1"]
GRID_BRANCHES = 3_000


def grid_plan(jobs: int) -> CampaignPlan:
    return CampaignPlan(
        factories={"isl-tage10": partial(_isl_tage, 10)},
        traces=[TraceSpec.suite(name, GRID_BRANCHES) for name in GRID_TRACES],
        jobs=jobs,
    )


@needs_fork
def test_campaign_parallel_speedup():
    """``jobs=N`` is bit-identical to serial; the speedup floor only arms
    on boxes with >= 4 cores."""
    jobs = os.cpu_count() or 1
    serial, serial_s = _timed(lambda: run_plan(grid_plan(jobs=1)))
    parallel, parallel_s = _timed(lambda: run_plan(grid_plan(jobs=jobs)))

    assert parallel == serial  # bit-identical results whatever jobs was
    if jobs >= 4:
        speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
        assert speedup > 1.5


# --- serving: 100 concurrent sessions ----------------------------------------

SESSIONS = 100
SESSION_EVENTS = 300
BATCH = 64


def _drive(server, **load_kwargs):
    report = run_load(
        server.address,
        sessions=SESSIONS,
        session_events=SESSION_EVENTS,
        batch=BATCH,
        **load_kwargs,
    )
    assert report.errors == 0, report.error_messages
    assert report.sessions == SESSIONS
    return report


def test_serving_cold_sessions():
    server = PredictionServer(registry=standard_registry())
    server.start()
    try:
        _drive(server, profile="mixed")
    finally:
        server.stop()


def test_serving_warm_sessions(tmp_path):
    registry = standard_registry()
    pool = WarmSnapshotPool(
        registry,
        state_dir=str(tmp_path / "state"),
        warmup_branches=100,
        max_shards=32,
        branches=SESSION_EVENTS,
    )
    server = PredictionServer(registry=registry, pool=pool)
    server.start()
    try:
        report = _drive(server, profile="wild", warm=True, warmup=100)
        # Every distinct (config, workload) shard hydrates exactly once;
        # the other 90+ sessions reuse the resident snapshot.
        assert pool.stats()["hydrations"] <= 12
        # Warm sessions skip the 100-event warmup prefix (wild traces
        # may overshoot the requested budget by a scene, hence >=).
        assert report.events >= SESSIONS * (SESSION_EVENTS - 100)
    finally:
        server.stop()
