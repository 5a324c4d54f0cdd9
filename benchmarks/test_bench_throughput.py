"""Predictor throughput benches: branches simulated per second.

Not a paper artifact, but the number that governs how large a suite the
pure-Python framework can evaluate; regressions here make the figure
campaigns impractical.  Each run appends its numbers to
``BENCH_throughput.json`` at the repo root, keyed by commit and tagged
with the host (``benchmarks/conftest.py``), so the throughput trajectory
across the commit history stays inspectable.

Two families run here: the scalar reference loop over the standard
contenders, and the vectorized batch kernel (``repro.sim.batchkernel``)
over every ported predictor — the latter asserts both bit-identity
against the scalar run and its contracted speedup floor.  The final
test is the regression gate: each (predictor, kernel) row is compared
against the previous commit's row in the trajectory file, and a >20%
events/s drop warns by default or fails under
``REPRO_BENCH_ENFORCE=1`` (the trajectory mixes machines, so hard
enforcement is opt-in for pinned hardware).
"""

import json
import os
import time
import warnings

import pytest

from benchmarks.conftest import REPO_ROOT, current_commit
from repro.core import BFNeural, BFTage, BFTageConfig, bf_neural_64kb
from repro.predictors import Bimodal, GShare, ISLTage, ScaledNeural, Tage, TageConfig
from repro.predictors.perceptron import GlobalPerceptron
from repro.sim import simulate
from repro.sim.batchkernel import simulate_batch

CONTENDERS = {
    "bimodal": Bimodal,
    "gshare": GShare,
    "oh-snap": ScaledNeural,
    "tage10": lambda: Tage(TageConfig.for_tables(10)),
    "isl-tage10": lambda: ISLTage(TageConfig.for_tables(10)),
    "bf-neural": bf_neural_64kb,
    "bf-tage10": lambda: BFTage(BFTageConfig.for_tables(10)),
}

#: Predictors ported to the batch kernel, with the speedup floor each
#: one contracts over the scalar loop on a warm plan cache.  Bimodal
#: and gshare are pure gather/scatter (the ISSUE's >=10x targets);
#: perceptron and BF-Neural keep a sequential python segment (the
#: weight-update chain), so their floors are conservative.
VEC_CONTENDERS = {
    "bimodal": (Bimodal, 10.0),
    "gshare": (GShare, 10.0),
    "perceptron": (lambda: GlobalPerceptron(1024, 64), 1.5),
    "bf-neural": (BFNeural, 3.0),
}

#: Fractional events/s drop vs the previous commit that trips the gate.
REGRESSION_THRESHOLD = 0.20

TRAJECTORY_PATH = REPO_ROOT / "BENCH_throughput.json"
RESULTS: list[dict] = []


@pytest.mark.parametrize("name", list(CONTENDERS), ids=list(CONTENDERS))
def test_predictor_throughput(benchmark, small_trace, name):
    factory = CONTENDERS[name]
    result = benchmark.pedantic(
        lambda: simulate(factory(), small_trace), rounds=1, iterations=1
    )
    elapsed = benchmark.stats.stats.min
    events_per_s = round(len(small_trace) / elapsed, 1) if elapsed > 0 else 0.0
    benchmark.extra_info["mpki"] = round(result.mpki, 3)
    benchmark.extra_info["branches"] = len(small_trace)
    benchmark.extra_info["events_per_s"] = events_per_s
    RESULTS.append(
        {
            "predictor": name,
            "mpki": round(result.mpki, 3),
            "events_per_s": events_per_s,
            "branches": len(small_trace),
        }
    )
    assert result.branches == len(small_trace)


@pytest.fixture(scope="module")
def vec_trace():
    """A larger trace for the vectorized benches: the batch kernel's
    per-call overhead (plan construction, array staging) amortizes over
    trace length, so the speedup contract is stated at a realistic
    working size rather than the 6k-branch scalar bench budget."""
    from repro.workloads import build_trace

    return build_trace("SPEC03", 40_000)


@pytest.mark.vectorized
@pytest.mark.parametrize("name", list(VEC_CONTENDERS), ids=list(VEC_CONTENDERS))
def test_vectorized_throughput(benchmark, vec_trace, name):
    """Batch-kernel throughput: bit-identical to scalar, and fast.

    The scalar twin runs once inline for the speedup denominator (same
    trace, same process, same thermal state); the vectorized side gets
    one warmup round so the measured number reflects a warm plan cache,
    which is the steady state of any campaign (one plan per trace).
    """
    factory, min_speedup = VEC_CONTENDERS[name]

    scalar = factory()
    started = time.perf_counter()
    scalar_result = simulate(scalar, vec_trace)
    scalar_elapsed = time.perf_counter() - started

    result = benchmark.pedantic(
        lambda: simulate_batch(factory(), vec_trace, kernel="vectorized"),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    elapsed = benchmark.stats.stats.min
    events_per_s = round(len(vec_trace) / elapsed, 1) if elapsed > 0 else 0.0
    speedup = scalar_elapsed / elapsed if elapsed > 0 else float("inf")

    assert result.mispredictions == scalar_result.mispredictions
    assert result.mpki == scalar_result.mpki

    benchmark.extra_info["events_per_s"] = events_per_s
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 1)
    RESULTS.append(
        {
            "predictor": name,
            "kernel": "vectorized",
            "mpki": round(result.mpki, 3),
            "events_per_s": events_per_s,
            "branches": len(vec_trace),
            "speedup_vs_scalar": round(speedup, 1),
        }
    )
    assert speedup >= min_speedup, (
        f"{name}: vectorized kernel {speedup:.1f}x vs scalar "
        f"(contract is >= {min_speedup}x)"
    )


def _previous_commit_rows() -> tuple[str, dict]:
    """The trajectory rows of the newest commit that is not HEAD.

    Rows append in run order, so the last non-HEAD commit seen is the
    predecessor; its rows key by (predictor, kernel) with scalar as the
    implicit kernel of pre-batch-kernel history.
    """
    try:
        history = json.loads(TRAJECTORY_PATH.read_text())
    except (OSError, ValueError):
        return "", {}
    if not isinstance(history, list):
        return "", {}
    current = current_commit()
    previous = ""
    for row in history:
        commit = row.get("commit")
        if commit and commit != current:
            previous = commit
    if not previous:
        return "", {}
    rows = {
        (row.get("predictor"), row.get("kernel", "scalar")): row
        for row in history
        if row.get("commit") == previous
    }
    return previous, rows


def test_throughput_regression_gate():
    """Flag >20% events/s drops against the previous commit's rows.

    Advisory by default — the trajectory file travels with the repo and
    mixes host machines, so a raw comparison across commits can misfire
    on slower hardware.  Each regression is emitted as a warning
    (visible in pytest's summary); set ``REPRO_BENCH_ENFORCE=1`` on a
    pinned-hardware CI runner to turn the gate into a hard failure.
    """
    if not RESULTS:
        pytest.skip("no throughput rows collected this run")
    previous, baseline = _previous_commit_rows()
    if not baseline:
        pytest.skip("no previous-commit rows in the trajectory file")
    regressions = []
    for row in RESULTS:
        key = (row["predictor"], row.get("kernel", "scalar"))
        before = baseline.get(key)
        if before is None or not before.get("events_per_s"):
            continue
        drop = 1.0 - row["events_per_s"] / before["events_per_s"]
        if drop > REGRESSION_THRESHOLD:
            regressions.append(
                f"{key[0]} ({key[1]}): {before['events_per_s']:.0f} -> "
                f"{row['events_per_s']:.0f} events/s "
                f"({drop:.0%} drop vs {previous})"
            )
    if not regressions:
        return
    message = "throughput regressions vs previous commit:\n  " + "\n  ".join(
        regressions
    )
    if os.environ.get("REPRO_BENCH_ENFORCE"):
        pytest.fail(message)
    warnings.warn(message, stacklevel=1)
