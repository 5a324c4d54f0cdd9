"""Tests for the loop-count predictor."""

import copy
import tracemalloc

import pytest

from repro.common.state import StateError
from repro.predictors.loop import LoopOnly, LoopPredictor


def run_loop(predictor, pc, trip, iterations=1):
    """Feed `iterations` full loop executions; return predictions made at
    the exit iteration of the final execution."""
    for _ in range(iterations):
        for i in range(trip):
            predictor.update(pc, i < trip - 1, allocate=True)


class TestLoopPredictor:
    def test_learns_constant_trip(self):
        loop = LoopPredictor()
        pc = 0x500
        # Train: several identical executions of a 7-iteration loop.
        for _ in range(6):
            for i in range(7):
                loop.update(pc, i < 6)
        # Now walk one more execution checking predictions.
        for i in range(7):
            prediction, confident = loop.lookup(pc)
            assert confident
            assert prediction == (i < 6)
            loop.update(pc, i < 6)

    def test_not_confident_initially(self):
        loop = LoopPredictor()
        _, confident = loop.lookup(0x500)
        assert not confident

    def test_confidence_resets_on_trip_change(self):
        loop = LoopPredictor()
        pc = 0x500
        for _ in range(6):
            for i in range(5):
                loop.update(pc, i < 4)
        _, confident = loop.lookup(pc)
        assert confident
        # A different trip count destroys confidence.
        for i in range(9):
            loop.update(pc, i < 8)
        _, confident = loop.lookup(pc)
        assert not confident

    def test_allocation_only_on_not_taken(self):
        loop = LoopPredictor()
        loop.update(0x500, True, allocate=True)  # taken: no allocation
        assert loop._find(0x500) is None
        loop.update(0x500, False, allocate=True)
        assert loop._find(0x500) is not None

    def test_no_allocation_when_disabled(self):
        loop = LoopPredictor()
        loop.update(0x500, False, allocate=False)
        assert loop._find(0x500) is None

    def test_giant_loop_retires_entry(self):
        loop = LoopPredictor()
        loop.update(0x500, False)
        for _ in range(LoopPredictor.TRIP_MAX + 2):
            loop.update(0x500, True)
        assert loop._find(0x500) is None

    def test_capacity_eviction(self):
        loop = LoopPredictor(entries=8, ways=4)
        for i in range(64):
            loop.update(0x100 + 8 * i, False)
        live = sum(
            1 for i in range(64) if loop._find(0x100 + 8 * i) is not None
        )
        assert live <= 8

    def test_validation(self):
        with pytest.raises(ValueError):
            LoopPredictor(entries=10, ways=4)

    def test_storage_bits_positive(self):
        assert LoopPredictor().storage_bits() > 0


class TestLoopOnly:
    def test_wraps_loop_predictor(self):
        p = LoopOnly()
        pc = 0x500
        for _ in range(6):
            for i in range(4):
                p.train(pc, i < 3)
        # fourth iteration of a fresh execution is the exit
        for i in range(4):
            assert p.predict(pc) == (i < 3)
            p.train(pc, i < 3)

    def test_default_prediction_is_taken(self):
        assert LoopOnly().predict(0x123)


class TestHashCache:
    """The per-pc (set, tag) cache is bounded and invisible to state."""

    def test_bounded_over_distinct_pcs(self):
        loop = LoopPredictor()
        attributes = set(vars(loop))
        pcs = [0x1000 + 4 * i for i in range(100_000)]
        tracemalloc.start()
        for i, pc in enumerate(pcs):
            loop.lookup(pc)
            loop.update(pc, i % 3 == 0, allocate=True)
            if i == 999:
                tracemalloc.reset_peak()
                warm, _ = tracemalloc.get_traced_memory()
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # One cached pc, one (set, tag) pair per way, no new attributes.
        assert set(vars(loop)) == attributes
        assert loop._slots_pc == pcs[-1]
        assert len(loop._slots_of_pc) == loop.ways
        # 99k more distinct pcs leave memory flat.
        assert peak - warm < 16 * 1024
        assert current - warm < 16 * 1024

    def test_cache_stays_out_of_snapshots(self):
        trained = LoopOnly()
        for i in range(3_000):
            pc = 0x500 + 8 * (i % 11)
            trained.predict(pc)
            trained.train(pc, i % 7 != 0)
        state = trained.snapshot()
        assert set(state.payload["loop"]) == {"table"}
        # Hashing another pc only moves the cache.
        trained.predict(0xDEAD00)
        assert trained.snapshot() == state

        restored = LoopOnly()
        restored.restore(state)
        assert restored.loop._slots_pc is None
        for i in range(3_000):
            pc = 0x500 + 8 * (i % 13)
            assert restored.predict(pc) == trained.predict(pc)
            restored.train(pc, i % 5 != 0)
            trained.train(pc, i % 5 != 0)
        assert restored.state_hash() == trained.state_hash()


class TestRestoreRanges:
    """``restore`` takes exactly the entries ``update``/``_allocate`` reach."""

    def trained(self):
        loop = LoopPredictor()
        for i in range(3_000):
            pc = 0x500 + 8 * (i % 11)
            loop.lookup(pc)
            loop.update(pc, i % 7 != 0)
        return loop

    def test_unreachable_entry_refused_before_install(self):
        loop = self.trained()
        state = loop.snapshot()
        corrupt = copy.deepcopy(state)
        corrupt["table"][0][0] = [-5, 99999, -3, 42, 200, True]
        with pytest.raises(StateError, match="tag -5"):
            loop.restore(corrupt)
        assert loop.snapshot() == state

    @pytest.mark.parametrize(
        "field,value",
        [
            (0, 1 << 14), (0, -1), (1, LoopPredictor.TRIP_MAX + 1), (1, -1),
            (2, LoopPredictor.TRIP_MAX + 2), (2, -1), (3, 4), (3, -1), (4, 8),
            (4, -1), (4, 2.0), (4, True), (5, 1), (5, None),
        ],
    )
    def test_each_field_range_checked(self, field, value):
        state = self.trained().snapshot()
        state["table"][3][2][field] = value
        with pytest.raises(StateError):
            LoopPredictor().restore(state)

    def test_short_entry_refused(self):
        state = LoopPredictor().snapshot()
        state["table"][0][0] = [0, 0, 0, 0, 0]
        with pytest.raises(StateError):
            LoopPredictor().restore(state)

    def test_upper_bounds_reachable(self):
        # A loop that ran past TRIP_MAX is retired with current TRIP_MAX+1;
        # the other fields at their caps are reachable too.
        loop = LoopPredictor()
        loop.update(0x500, False)
        for _ in range(LoopPredictor.TRIP_MAX + 1):
            loop.update(0x500, True)
        state = loop.snapshot()
        assert LoopPredictor.TRIP_MAX + 1 in [
            entry[2] for ways in state["table"] for entry in ways
        ]
        state["table"][1][1] = [(1 << 14) - 1, LoopPredictor.TRIP_MAX, 0, 3, 7, True]
        restored = LoopPredictor()
        restored.restore(state)
        assert restored.snapshot() == state
