"""Tests for the neural baselines: perceptron, piecewise-linear, SNAP."""

import copy

import pytest

from repro.common.state import PredictorState, StateError
from repro.predictors import GlobalPerceptron, PiecewiseLinear, ScaledNeural
from repro.predictors.piecewise import conventional_perceptron_64kb
from repro.sim import simulate
from repro.trace.records import Trace, TraceMetadata


def trace_of(events):
    meta = TraceMetadata(name="t", category="SPEC", instruction_count=max(1, len(events) * 5))
    return Trace(meta, [pc for pc, _ in events], [t for _, t in events])


def correlated_stream(distance, activations=400, pad_pc=0xB000, seed=17):
    """leader -> `distance`-1 biased pads -> follower == leader."""
    from repro.common.rng import XorShift64

    rng = XorShift64(seed)
    events = []
    for _ in range(activations):
        lead = bool(rng.next_bits(1))
        events.append((0xAAAA, lead))
        for j in range(distance - 1):
            events.append((pad_pc + 4 * j, bool((j * 7) & 8)))
        events.append((0xCCCC, lead))
    return events


def follower_misses(predictor, events, follower_pc=0xCCCC, skip=100):
    seen = misses = 0
    for pc, taken in events:
        pred = predictor.predict(pc)
        if pc == follower_pc:
            seen += 1
            if seen > skip and pred != taken:
                misses += 1
        predictor.train(pc, taken)
    return misses, seen - skip


class TestGlobalPerceptron:
    def test_learns_biased_branch(self):
        p = GlobalPerceptron(rows=64, history_length=8)
        for _ in range(30):
            p.predict(0x40)
            p.train(0x40, True)
        assert p.predict(0x40)

    def test_learns_correlation_within_history(self):
        p = GlobalPerceptron(rows=256, history_length=16)
        misses, seen = follower_misses(p, correlated_stream(10))
        assert misses < 0.1 * seen

    def test_misses_correlation_beyond_history(self):
        p = GlobalPerceptron(rows=256, history_length=16)
        misses, seen = follower_misses(p, correlated_stream(40))
        assert misses > 0.3 * seen

    def test_weights_saturate(self):
        p = GlobalPerceptron(rows=64, history_length=8)
        for _ in range(500):
            p.predict(0x40)
            p.train(0x40, True)
        assert int(p._weights[0x40 & 63][0]) <= 127

    def test_theta_formula(self):
        p = GlobalPerceptron(rows=64, history_length=32)
        assert p.theta == int(1.93 * 32 + 14)

    def test_validation(self):
        with pytest.raises(ValueError):
            GlobalPerceptron(rows=100)
        with pytest.raises(ValueError):
            GlobalPerceptron(history_length=0)

    def test_storage_bits(self):
        p = GlobalPerceptron(rows=64, history_length=8)
        assert p.storage_bits() == 64 * 9 * 8 + 8


class TestPiecewiseLinear:
    def test_learns_biased_branch(self):
        p = PiecewiseLinear(pc_rows=8, path_columns=8, history_length=8, bias_entries=64)
        for _ in range(40):
            p.predict(0x40)
            p.train(0x40, False)
        assert not p.predict(0x40)

    def test_learns_correlation(self):
        p = PiecewiseLinear(pc_rows=64, path_columns=16, history_length=24, bias_entries=256)
        misses, seen = follower_misses(p, correlated_stream(12))
        assert misses < 0.15 * seen

    def test_64kb_config_budget(self):
        p = conventional_perceptron_64kb()
        assert p.storage_bits() / 8 / 1024 < 72  # roughly 64 KB class

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(pc_rows=3)
        with pytest.raises(ValueError):
            PiecewiseLinear(path_columns=0)
        with pytest.raises(ValueError):
            PiecewiseLinear(history_length=0)
        with pytest.raises(ValueError):
            PiecewiseLinear(bias_entries=100)


class TestScaledNeural:
    def test_learns_biased_branch(self):
        p = ScaledNeural(columns=64, history_length=16, bias_entries=64)
        for _ in range(40):
            p.predict(0x40)
            p.train(0x40, True)
        assert p.predict(0x40)

    def test_learns_correlation_at_depth_33(self):
        p = ScaledNeural()
        misses, seen = follower_misses(p, correlated_stream(34, activations=500), skip=300)
        assert misses < 0.12 * seen

    def test_misses_correlation_beyond_reach(self):
        p = ScaledNeural(history_length=64)
        misses, seen = follower_misses(p, correlated_stream(100, activations=300), skip=100)
        assert misses > 0.3 * seen

    def test_adaptive_theta_moves(self):
        p = ScaledNeural()
        start = p.theta
        events = correlated_stream(34, activations=300)
        for pc, taken in events:
            p.predict(pc)
            p.train(pc, taken)
        assert p.theta != start or p.theta >= 1

    def test_scale_is_decreasing(self):
        p = ScaledNeural()
        scale = p._scale
        assert all(scale[i] >= scale[i + 1] for i in range(len(scale) - 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaledNeural(columns=100)
        with pytest.raises(ValueError):
            ScaledNeural(history_length=0)
        with pytest.raises(ValueError):
            ScaledNeural(bias_entries=3)

    def test_storage_budget_64kb_class(self):
        assert ScaledNeural().storage_bits() / 8 / 1024 < 72


def _narrow_weight_rows(payload):
    # A 256-column predictor's rows, restored into 512 columns.
    payload["weights"] = [row[:256] for row in payload["weights"]]


def _set(*path, value):
    def mutate(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


#: Corrupt OH-SNAP payloads ``restore()`` must refuse with a StateError;
#: each was accepted before the payload was range-checked.
CORRUPT_SNAP_PAYLOADS = {
    "weight-rows-256-wide-on-512-columns": _narrow_weight_rows,
    "weight-above-range": _set("weights", 5, 9, value=128),
    "weight-below-range": _set("weights", 0, 0, value=-129),
    "bias-above-range": _set("bias", 3, value=200),
    "history-not-signed": _set("history", 4, value=0),
    "path-above-16-bit": _set("path", 2, value=0x10000),
    "last-col-past-columns": _set("last_cols", 0, value=512),
    "last-bias-index-1e6": _set("last_bias_index", value=10**6),
    "theta-negative": _set("theta", value=-4),
    "theta-above-register": _set("theta", value=256),
    "tc-past-reset": _set("tc", value=7),
    "last-sum-nan": _set("last_sum", value=float("nan")),
}


class TestScaledNeuralRestore:
    @pytest.fixture(scope="class")
    def trained(self):
        from repro.workloads import build_trace

        predictor = ScaledNeural()
        simulate(predictor, build_trace("SPEC03", 2_000))
        return predictor.snapshot()

    def test_clean_payload_restores(self, trained):
        fresh = ScaledNeural()
        fresh.restore(trained)
        assert fresh.state_hash() == trained.hash()

    @pytest.mark.parametrize("case", sorted(CORRUPT_SNAP_PAYLOADS))
    def test_corrupt_payload_refused_all_or_nothing(self, trained, case):
        payload = copy.deepcopy(trained.payload)
        CORRUPT_SNAP_PAYLOADS[case](payload)
        corrupt = PredictorState(kind=trained.kind, version=trained.version, payload=payload)
        target = ScaledNeural()
        target.restore(trained)
        with pytest.raises(StateError):
            target.restore(corrupt)
        assert target.state_hash() == trained.hash()


#: Corrupt perceptron payloads (a 24-history, 256-row perceptron)
#: ``restore()`` must refuse with a StateError; each was accepted while
#: only the row count was checked.
CORRUPT_PERCEPTRON_PAYLOADS = {
    "weight-rows-10-wide-on-24-history": lambda payload: payload.update(
        weights=[row[:10] for row in payload["weights"]]
    ),
    "weight-above-range": _set("weights", 3, 2, value=128),
    "weight-below-range": _set("weights", 0, 0, value=-129),
    "history-value-5": _set("history", 4, value=5),
    "history-zero": _set("history", 0, value=0),
    "last-row-1e6": _set("last_row", value=10**6),
    "last-row-negative": _set("last_row", value=-1),
    "last-sum-float": _set("last_sum", value=1.5),
    "last-sum-string": _set("last_sum", value="12"),
}


class TestGlobalPerceptronRestore:
    @pytest.fixture(scope="class")
    def trained(self):
        from repro.workloads import build_trace

        predictor = GlobalPerceptron(256, 24)
        simulate(predictor, build_trace("SPEC03", 2_000))
        return predictor.snapshot()

    def test_clean_payload_restores(self, trained):
        fresh = GlobalPerceptron(256, 24)
        fresh.restore(trained)
        assert fresh.state_hash() == trained.hash()

    @pytest.mark.parametrize("case", sorted(CORRUPT_PERCEPTRON_PAYLOADS))
    def test_corrupt_payload_refused_all_or_nothing(self, trained, case):
        payload = copy.deepcopy(trained.payload)
        CORRUPT_PERCEPTRON_PAYLOADS[case](payload)
        corrupt = PredictorState(kind=trained.kind, version=trained.version, payload=payload)
        target = GlobalPerceptron(256, 24)
        target.restore(trained)
        with pytest.raises(StateError):
            target.restore(corrupt)
        assert target.state_hash() == trained.hash()


class TestOnSuiteTraces:
    def test_snap_beats_perceptron_on_suite_trace(self):
        from repro.workloads import build_trace

        trace = build_trace("SPEC03", 15000)
        snap = simulate(ScaledNeural(), trace)
        perc = simulate(GlobalPerceptron(rows=1024, history_length=72), trace)
        assert snap.mpki < perc.mpki
