"""Tests for the BF-Neural predictor (Algorithms 2 and 3)."""

import copy

import pytest

from repro.common.bitops import fold_bits, mask, mix64
from repro.common.histories import FoldedHistory, HistoryRing
from repro.common.state import PredictorState, StateError, payload_hash
from repro.core.ahead import AheadPipelinedBFNeural
from repro.core.bfneural import BFNeural, BFNeuralConfig, quantize_distance
from repro.core.bst import BranchStatus
from repro.core.configs import bf_neural_32kb, bf_neural_64kb
from repro.sim import simulate
from repro.trace.records import Trace, TraceMetadata
from repro.workloads import build_trace
from tests.test_neural_predictors import correlated_stream, follower_misses


def small_config(**overrides):
    defaults = dict(
        bst_entries=1024,
        bias_entries=256,
        wm_rows=256,
        ht=8,
        wrs_entries=4096,
        rs_depth=16,
        with_loop_predictor=False,
    )
    defaults.update(overrides)
    return BFNeuralConfig(**defaults)


class TestQuantizeDistance:
    def test_small_distances_exact(self):
        for d in range(4):
            assert quantize_distance(d) == d

    def test_monotone_nondecreasing(self):
        values = [quantize_distance(d) for d in range(1, 3000)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_nearby_distances_share_buckets(self):
        assert quantize_distance(1000) == quantize_distance(1010)

    def test_far_distances_differ(self):
        assert quantize_distance(30) != quantize_distance(300)


class TestPredictionPath:
    def test_unknown_branch_uses_default(self):
        p = BFNeural(small_config(default_prediction=True))
        assert p.predict(0x40)
        assert p.provider == "default"

    def test_biased_branch_predicted_from_bst(self):
        p = BFNeural(small_config())
        p.predict(0x40)
        p.train(0x40, False)
        assert not p.predict(0x40)
        assert p.provider == "bst"

    def test_non_biased_branch_uses_weights(self):
        p = BFNeural(small_config())
        p.predict(0x40)
        p.train(0x40, False)
        p.predict(0x40)
        p.train(0x40, True)  # now non-biased
        p.predict(0x40)
        assert p.provider in ("neural", "loop")

    def test_biased_branches_never_touch_rs(self):
        p = BFNeural(small_config())
        for _ in range(20):
            p.predict(0x40)
            p.train(0x40, True)
        assert len(p.rs) == 0

    def test_non_biased_branches_enter_rs(self):
        p = BFNeural(small_config())
        p.predict(0x40)
        p.train(0x40, True)
        p.predict(0x40)
        p.train(0x40, False)
        p.predict(0x40)
        p.train(0x40, True)
        assert p.rs.find(0x40) is not None


class TestLearning:
    def test_learns_biased_branch_instantly(self):
        p = BFNeural(small_config())
        p.predict(0x40)
        p.train(0x40, True)
        misses = 0
        for _ in range(100):
            if not p.predict(0x40):
                misses += 1
            p.train(0x40, True)
        assert misses == 0

    def test_captures_short_correlation(self):
        p = BFNeural(small_config())
        misses, seen = follower_misses(p, correlated_stream(6, activations=400), skip=200)
        assert misses < 0.15 * seen

    def test_captures_distant_correlation_beyond_unfiltered_reach(self):
        """The defining capability: biased filler is filtered out, so a
        correlation 33 branches back in raw history sits at RS depth 1."""
        p = BFNeural(small_config())
        misses, seen = follower_misses(p, correlated_stream(34, activations=400), skip=200)
        assert misses < 0.15 * seen

    def test_captures_very_distant_correlation(self):
        p = BFNeural(small_config(position_cap=2048))
        misses, seen = follower_misses(p, correlated_stream(300, activations=300), skip=150)
        assert misses < 0.2 * seen


class TestAblationFlags:
    def test_unfiltered_history_mode_misses_distant(self):
        config = small_config(filter_biased_history=False, use_rs=False)
        p = BFNeural(config)
        misses, seen = follower_misses(p, correlated_stream(80, activations=300), skip=150)
        assert misses > 0.25 * seen

    def test_filtered_history_without_rs_catches_biased_filler(self):
        config = small_config(filter_biased_history=True, use_rs=False)
        p = BFNeural(config)
        misses, seen = follower_misses(p, correlated_stream(80, activations=300), skip=150)
        assert misses < 0.15 * seen

    def test_rs_flag_controls_dedup(self):
        assert BFNeural(small_config(use_rs=True)).rs.dedup
        assert not BFNeural(small_config(use_rs=False)).rs.dedup


class TestLoopComponent:
    def test_loop_predictor_catches_long_constant_loop(self):
        config = small_config(with_loop_predictor=True, rs_depth=4, ht=4)
        p = BFNeural(config)
        trip = 40
        events = []
        for _ in range(50):
            for i in range(trip):
                events.append((0x800, i < trip - 1))
        meta = TraceMetadata(name="loop", category="SPEC", instruction_count=len(events) * 5)
        with_loop = simulate(p, Trace(meta, [e[0] for e in events], [e[1] for e in events]))
        no_loop = simulate(
            BFNeural(small_config(rs_depth=4, ht=4)),
            Trace(meta, [e[0] for e in events], [e[1] for e in events]),
        )
        assert with_loop.mispredictions <= no_loop.mispredictions


class TestTrainingRules:
    def test_weights_respect_width(self):
        config = small_config(weight_bits=6)
        p = BFNeural(config)
        events = correlated_stream(6, activations=300)
        for pc, taken in events:
            p.predict(pc)
            p.train(pc, taken)
        limit = (1 << 5) - 1
        assert all(-limit - 1 <= w <= limit for w in p._wb)
        assert all(-limit - 1 <= w <= limit for w in p._wrs)
        for row in p._wm:
            assert all(-limit - 1 <= w <= limit for w in row)

    def test_transition_to_non_biased_trains_weights(self):
        p = BFNeural(small_config())
        p.predict(0x40)
        p.train(0x40, True)
        before = sum(map(abs, p._wb))
        p.predict(0x40)
        p.train(0x40, False)  # mispredicted biased branch -> transition
        after = sum(map(abs, p._wb))
        assert p.bst.status(0x40) == BranchStatus.NON_BIASED
        assert after >= before

    def test_adaptive_theta_bounded_below(self):
        p = BFNeural(small_config(initial_theta=2))
        events = correlated_stream(6, activations=200)
        for pc, taken in events:
            p.predict(pc)
            p.train(pc, taken)
        assert p.theta >= 1


class TestConfigs:
    def test_64kb_budget(self):
        p = bf_neural_64kb()
        kb = p.storage_bits() / 8 / 1024
        assert 50 < kb < 75

    def test_32kb_budget(self):
        p = bf_neural_32kb()
        kb = p.storage_bits() / 8 / 1024
        assert 25 < kb < 40

    def test_32kb_worse_than_64kb(self):
        from repro.workloads import build_trace

        trace = build_trace("SPEC03", 15000)
        big = simulate(bf_neural_64kb(), trace)
        small = simulate(bf_neural_32kb(), trace)
        # Paper: 2.49 (64KB) vs 2.73 (32KB) — smaller must not be better
        # by more than noise.
        assert small.mpki > big.mpki * 0.95

    def test_invalid_stage(self):
        from repro.experiments.common import bf_neural_stage

        with pytest.raises(ValueError):
            bf_neural_stage(4)


def _set(path, value):
    """Payload mutator: assign ``value`` at a key/index ``path``."""

    def mutate(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value

    return mutate


def _duplicate_rs_address(payload):
    entries = payload["rs"]["entries"]
    entries[1][0] = entries[0][0]


#: Corrupt payloads that ``restore()`` must refuse with a StateError
#: (each was accepted, or failed with an untyped error, before it was
#: validated).
CORRUPT_PAYLOADS = {
    "rs-stamp-after-clock": _set(("rs", "entries", 0, 1), lambda s: s + 10**6),
    "rs-negative-clock": _set(("rs",), {"entries": [], "clock": -1}),
    "rs-duplicate-address": _duplicate_rs_address,
    "wm-row-shorter-than-ht": _set(("wm", 3), lambda row: row[:-1]),
    "wb-above-weight-range": _set(("wb", 0), 32),
    "wm-below-weight-range": _set(("wm", 0, 0), -33),
    "wrs-above-weight-range": _set(("wrs", 7), 99),
    "recent-bits-65-bit": _set(("recent_bits",), 1 << 64),
    "recent-bits-negative": _set(("recent_bits",), -1),
    "recent-path-17-bit": _set(("recent_paths", 2), 0x10000),
    "theta-zero": _set(("theta",), 0),
    "ring-buf-not-a-bit": _set(("folds", "ring", "buf", 0), 2),
    "ring-head-not-int": _set(("folds", "ring", "head"), "3"),
    "ring-head-out-of-range": _set(("folds", "ring", "head"), 10**6),
    "fold-register-too-wide": _set(("folds", "folds", 0), 1 << 20),
}


class TestRestoreRejectsCorruptState:
    @pytest.fixture(scope="class")
    def trained(self):
        predictor = BFNeural()
        simulate(predictor, build_trace("SPEC03", 3_000))
        assert len(predictor.rs) >= 2
        return predictor.snapshot()

    def test_clean_payload_restores(self, trained):
        fresh = BFNeural()
        fresh.restore(trained)
        assert fresh.state_hash() == trained.hash()

    @pytest.mark.parametrize("case", sorted(CORRUPT_PAYLOADS))
    def test_corrupt_payload_refused(self, trained, case):
        payload = copy.deepcopy(trained.payload)
        CORRUPT_PAYLOADS[case](payload)
        corrupt = PredictorState(kind=trained.kind, version=trained.version, payload=payload)
        with pytest.raises(StateError):
            BFNeural().restore(corrupt)


# ----------------------------------------------------------------------
# Frozen reference: the straightforward per-entry form of the hot path
# ----------------------------------------------------------------------


class ReferenceLadder:
    """``MultiFoldedHistory`` as one ``FoldedHistory`` per depth, each
    advanced with the outgoing bit read through ``HistoryRing.at``."""

    def __init__(self, depths, width, ring_capacity):
        self.depths = list(depths)
        self.width = width
        self.ring = HistoryRing(ring_capacity)
        self.folds = [FoldedHistory(depth, width) for depth in depths]

    def push(self, taken):
        count_before = len(self.ring)
        for fold in self.folds:
            if count_before >= fold.length:
                outgoing = self.ring.at(fold.length - 1)
            else:
                outgoing = 0
            fold.update(1 if taken else 0, outgoing)
        self.ring.push(taken)

    def folded_at(self, depth):
        best = 0
        for fold in self.folds:
            if fold.length > depth:
                break
            best = fold.value
        return best

    def snapshot(self):
        return {"ring": self.ring.snapshot(), "folds": [f.value for f in self.folds]}


def reference_folded(predictor, depth):
    """``folded(depth)``: small windows folded from the recent bits,
    longer ones from the largest ladder register not above ``depth``."""
    if depth <= 16:
        return fold_bits(
            predictor._recent_bits & mask(depth), depth, predictor._folds.width
        )
    return predictor._folds.folded_at(depth)


def install_reference_ladder(predictor):
    folds = predictor._folds
    predictor._folds = ReferenceLadder(folds.depths, folds.width, folds.ring.capacity)


class ReferenceBFNeural(BFNeural):
    """BF-Neural whose weight components are computed entry by entry with
    the public ``fold_bits``, ``mix64``, ``quantize_distance`` and
    ``RecencyStack.distance_of``, over a ``ReferenceLadder``."""

    def __init__(self, config=None):
        super().__init__(config)
        install_reference_ladder(self)

    def _compute(self, pc):
        cfg = self.config
        self._last_bias_index = pc & (cfg.bias_entries - 1)
        accum = self._wb[self._last_bias_index]
        self._last_wm_rows, self._last_wm_signs = [], []
        for i in range(cfg.ht):
            key = pc ^ self._recent_paths[i]
            if cfg.use_folded_hist:
                key ^= reference_folded(self, i + 1) << 5
            row = mix64(key ^ (i << 24)) & (cfg.wm_rows - 1)
            sign = 1 if (self._recent_bits >> i) & 1 else -1
            accum += self._wm[row][i] * sign
            self._last_wm_rows.append(row)
            self._last_wm_signs.append(sign)
        self._last_wrs_idx, self._last_wrs_signs = [], []
        for entry in self.rs.entries():
            distance = self.rs.distance_of(entry)
            key = pc ^ entry.address
            if cfg.use_positional:
                key ^= quantize_distance(distance) << 13
            if cfg.use_folded_hist:
                key ^= reference_folded(self, distance) << 21
            index = mix64(key) & (cfg.wrs_entries - 1)
            sign = 1 if entry.outcome else -1
            accum += self._wrs[index] * sign
            self._last_wrs_idx.append(index)
            self._last_wrs_signs.append(sign)
        self._last_accum = accum


class ReferenceAhead(AheadPipelinedBFNeural):
    """The ahead-pipelined model over a ``ReferenceLadder``, with its
    stale fold snapshots taken through ``reference_folded``."""

    def __init__(self, config=None, ahead=2):
        super().__init__(config, ahead)
        install_reference_ladder(self)

    def _folded(self, depth):
        return reference_folded(self, depth)


#: Configurations the vectorized kernel refuses (``ht`` > 16,
#: probabilistic BST) and the ahead-pipelined model, each as a
#: (predictor, frozen reference) factory pair.
REFERENCE_PAIRS = {
    "ht24": (
        lambda: BFNeural(BFNeuralConfig(ht=24)),
        lambda: ReferenceBFNeural(BFNeuralConfig(ht=24)),
    ),
    "ht40-cap32": (
        lambda: BFNeural(BFNeuralConfig(ht=40, position_cap=32, wm_rows=64)),
        lambda: ReferenceBFNeural(BFNeuralConfig(ht=40, position_cap=32, wm_rows=64)),
    ),
    "probabilistic-bst": (
        lambda: BFNeural(BFNeuralConfig(probabilistic_bst=True)),
        lambda: ReferenceBFNeural(BFNeuralConfig(probabilistic_bst=True)),
    ),
    "ahead2": (AheadPipelinedBFNeural, ReferenceAhead),
    "ahead0": (
        lambda: AheadPipelinedBFNeural(ahead=0),
        lambda: ReferenceAhead(ahead=0),
    ),
    "ahead3-ht20": (
        lambda: AheadPipelinedBFNeural(BFNeuralConfig(ht=20), ahead=3),
        lambda: ReferenceAhead(BFNeuralConfig(ht=20), ahead=3),
    ),
}


def _reference_events(name):
    if name == "correlated":
        return correlated_stream(34, activations=60)
    trace = build_trace(name, 2_500)
    return list(zip(trace.pcs, trace.outcomes))


def assert_same_components(predictor, reference):
    assert predictor._last_accum == reference._last_accum
    assert predictor._last_wm_rows == reference._last_wm_rows
    assert predictor._last_wrs_idx == reference._last_wrs_idx


class TestFrozenReference:
    """The table-driven hot path against the per-entry reference, event by
    event, where the vectorized kernel gives no differential check."""

    @pytest.mark.parametrize("pair", sorted(REFERENCE_PAIRS))
    @pytest.mark.parametrize("events", ["SPEC03", "SERV3", "correlated"])
    def test_matches_reference_event_by_event(self, pair, events):
        make, make_reference = REFERENCE_PAIRS[pair]
        predictor, reference = make(), make_reference()
        computed = 0
        for pc, taken in _reference_events(events):
            assert predictor.predict(pc) == reference.predict(pc)
            assert_same_components(predictor, reference)
            predictor.train(pc, taken)
            reference.train(pc, taken)
            # A biased branch turning non-biased computes during train.
            assert_same_components(predictor, reference)
            assert predictor._folds.values == [f.value for f in reference._folds.folds]
            computed += predictor._last_used_weights
        assert computed > 0
        # The envelope kind is the class name, so compare the payloads.
        assert payload_hash(predictor._state_payload()) == payload_hash(
            reference._state_payload()
        )
