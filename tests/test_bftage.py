"""Tests for BF-TAGE and BF-ISL-TAGE."""

import copy

import pytest

from repro.common.state import PredictorState, StateError
from repro.core.bftage import (
    BF_10_TABLE_LENGTHS,
    BFISLTage,
    BFTage,
    BFTageConfig,
    bf_lengths,
)
from repro.sim import simulate
from repro.trace.records import Trace, TraceMetadata
from repro.workloads import build_trace
from tests.test_neural_predictors import correlated_stream, follower_misses


class TestBFLengths:
    def test_10_table_lengths_match_paper(self):
        assert bf_lengths(10) == [3, 8, 14, 26, 40, 54, 70, 94, 118, 142]

    def test_prefixes_for_fewer_tables(self):
        assert bf_lengths(4) == [3, 8, 14, 26]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            bf_lengths(0)
        with pytest.raises(ValueError):
            bf_lengths(11)


class TestBFTageConfig:
    def test_defaults(self):
        config = BFTageConfig()
        assert config.num_tables == 10
        assert config.history_lengths == BF_10_TABLE_LENGTHS
        assert config.bst_entries == 8192
        assert config.rs_size == 8
        assert config.unfiltered_bits == 16

    def test_boundaries_match_paper(self):
        config = BFTageConfig()
        assert config.boundaries == [
            16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768,
            1024, 1280, 1536, 2048,
        ]

    def test_to_tage_config(self):
        tage_config = BFTageConfig.for_tables(7).to_tage_config()
        assert tage_config.num_tables == 7
        assert tage_config.history_lengths == bf_lengths(7)


class TestBFTageBehaviour:
    def test_learns_biased_branch(self):
        p = BFTage(BFTageConfig.for_tables(4))
        for _ in range(10):
            p.predict(0x40)
            p.train(0x40, True)
        assert p.predict(0x40)

    def test_biased_branches_stay_out_of_segments(self):
        p = BFTage(BFTageConfig.for_tables(4))
        for _ in range(200):
            p.predict(0x40)
            p.train(0x40, True)
        assert sum(p.segments.segment_fill()) == 0

    def test_non_biased_branches_enter_segments(self):
        p = BFTage(BFTageConfig.for_tables(4))
        for i in range(200):
            p.predict(0x40)
            p.train(0x40, bool(i & 1))
        assert sum(p.segments.segment_fill()) > 0

    def test_captures_correlation_beyond_raw_table_reach(self):
        """A 4-table BF-TAGE (compressed L=26) reaches a correlation at
        raw distance 60 because the biased filler is filtered out; a
        4-table conventional TAGE (raw L=26) cannot (see test_tage)."""
        p = BFTage(BFTageConfig.for_tables(4))
        misses, seen = follower_misses(p, correlated_stream(60, activations=400), skip=200)
        assert misses < 0.2 * seen

    def test_provider_attribution(self):
        p = BFTage(BFTageConfig.for_tables(4))
        p.predict(0x40)
        assert p.provider == "base"

    def test_storage_accounting_matches_table1_scale(self):
        p = BFTage(BFTageConfig.for_tables(10))
        total_kb = p.storage_bits() / 8 / 1024
        assert 45 < total_kb < 62  # paper: 51100 bytes = 49.9 KB


class TestBFISLTage:
    def test_construction_wraps_bftage(self):
        p = BFISLTage(BFTageConfig.for_tables(4))
        assert isinstance(p.tage, BFTage)
        assert p.loop is not None

    def test_runs_end_to_end(self):
        p = BFISLTage(BFTageConfig.for_tables(4))
        events = correlated_stream(20, activations=50)
        meta = TraceMetadata(name="x", category="SPEC", instruction_count=len(events) * 5)
        result = simulate(p, Trace(meta, [e[0] for e in events], [e[1] for e in events]))
        assert result.misprediction_rate < 0.5

    def test_loop_component_present(self):
        p = BFISLTage(BFTageConfig.for_tables(4))
        trip = 50
        for _ in range(30):
            for i in range(trip):
                p.predict(0x800)
                p.train(0x800, i < trip - 1)
        providers = set()
        for i in range(trip):
            p.predict(0x800)
            providers.add(p.provider)
            p.train(0x800, i < trip - 1)
        assert "loop" in providers


def first_filled_segment(payload):
    segments = payload["segments"]["segments"]
    return next(k for k, entries in enumerate(segments) if len(entries) >= 2)


class TestBFTageState:
    """Restoring a corrupt BST or segments payload raises StateError and
    leaves every table as it was; a good one restores into the live
    components."""

    def trained(self, branches, probabilistic=False):
        predictor = BFTage(BFTageConfig(num_tables=4, probabilistic_bst=probabilistic))
        simulate(predictor, build_trace("SERV3", branches))
        return predictor

    @pytest.mark.parametrize("probabilistic", [False, True])
    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda p: p["segments"]["ring"].__setitem__(5, ["x", True, False]),
             r"SegmentedRS.ring\[5\]"),
            (lambda p: p["segments"].__setitem__("head", -1), "SegmentedRS"),
            (lambda p: p["segments"].pop("count"), "SegmentedRS"),
            (lambda p: p["segments"]["segments"][first_filled_segment(p)].reverse(),
             "strictly descend"),
            (lambda p: p["bst"]["state"].__setitem__(7, 9), "BST"),
            (lambda p: p["bst"]["state"].pop(), "BST.state"),
            (lambda p: p["bst"].__setitem__("rng", 0), "BST"),
            (lambda p: p.pop("bst"), "BFTage"),
        ],
    )
    def test_corrupt_payload_changes_nothing(self, probabilistic, corrupt, match):
        predictor = self.trained(600, probabilistic)
        before = predictor.state_hash()
        # Another run's payload: had the tables been restored first, the
        # state hash would have moved.
        state = self.trained(1_400, probabilistic).snapshot()
        payload = copy.deepcopy(state.payload)
        corrupt(payload)
        with pytest.raises(StateError, match=match):
            predictor.restore(PredictorState(state.kind, state.version, payload))
        assert predictor.state_hash() == before

    def test_restore_rejects_segments_the_ring_does_not_determine(self):
        """A segment with its newest entry dropped passes every per-entry
        check (stamps, window, ring record, no duplicate), but no run can
        reach it: the scalar loop would continue from it while the TAGE
        kernel rebuilds the segments from the ring."""
        predictor = BFTage(BFTageConfig(num_tables=4))
        simulate(predictor, build_trace("SPEC03", 2_000))
        state = predictor.snapshot()
        payload = copy.deepcopy(state.payload)
        del payload["segments"]["segments"][7][0]
        fresh = BFTage(BFTageConfig(num_tables=4))
        before = fresh.state_hash()
        with pytest.raises(StateError, match=r"segments\[7\].*the ring determines"):
            fresh.restore(PredictorState(state.kind, state.version, payload))
        assert fresh.state_hash() == before
        fresh.restore(state)
        assert fresh.state_hash() == predictor.state_hash()

    def test_restore_keeps_live_components(self):
        predictor = self.trained(600)
        other = self.trained(1_400)
        bst, segments = predictor.bst, predictor.segments
        predictor.restore(other.snapshot())
        assert predictor.bst is bst and predictor.segments is segments
        assert predictor.state_hash() == other.state_hash()
