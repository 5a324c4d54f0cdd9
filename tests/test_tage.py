"""Tests for TAGE components, TAGE, and ISL-TAGE."""

import pytest

from repro.common.bitops import fold_bits, mask
from repro.common.state import StateError
from repro.orchestration import standard_registry
from repro.predictors.tage.components import FoldedIndexSet, TaggedTable
from repro.predictors.tage.isl import ISLTage
from repro.predictors.tage.tage import (
    ISL_15_TABLE_LENGTHS,
    Tage,
    TageConfig,
    geometric_lengths,
)
from repro.sim import simulate
from repro.trace.records import Trace, TraceMetadata
from repro.workloads import build_trace


def trace_of(events):
    meta = TraceMetadata(name="t", category="SPEC", instruction_count=max(1, len(events) * 5))
    return Trace(meta, [pc for pc, _ in events], [t for _, t in events])


class TestGeometricLengths:
    def test_monotone_increasing(self):
        for n in range(4, 16):
            lengths = geometric_lengths(n)
            assert lengths == sorted(lengths)
            assert len(set(lengths)) == n

    def test_15_table_matches_paper(self):
        assert geometric_lengths(15) == ISL_15_TABLE_LENGTHS

    def test_10_table_max_is_195(self):
        assert geometric_lengths(10)[-1] == 195

    def test_starts_at_l1(self):
        assert geometric_lengths(8)[0] == 3

    def test_custom_lmax(self):
        lengths = geometric_lengths(5, lmax=100)
        assert lengths[-1] == 100

    def test_unknown_count_needs_lmax(self):
        with pytest.raises(ValueError):
            geometric_lengths(20)
        assert geometric_lengths(20, lmax=2000)[-1] == 2000

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            geometric_lengths(0)


class TestTaggedTable:
    def test_allocation_sets_weak_counter(self):
        table = TaggedTable(log2_entries=4, tag_bits=8, history_length=10)
        table.allocate(3, tag=0x5A, taken=True)
        assert table.tag[3] == 0x5A
        assert table.ctr[3] == 0
        assert table.predict_at(3)
        table.allocate(4, tag=0x5B, taken=False)
        assert table.ctr[4] == -1
        assert not table.predict_at(4)

    def test_counter_saturation(self):
        table = TaggedTable(log2_entries=4, tag_bits=8, history_length=10)
        for _ in range(10):
            table.update_ctr(0, True)
        assert table.ctr[0] == 3
        for _ in range(20):
            table.update_ctr(0, False)
        assert table.ctr[0] == -4

    def test_weak_states(self):
        table = TaggedTable(log2_entries=4, tag_bits=8, history_length=10)
        table.ctr[0] = 0
        assert table.is_weak(0)
        table.ctr[0] = -1
        assert table.is_weak(0)
        table.ctr[0] = 2
        assert not table.is_weak(0)

    def test_useful_bits(self):
        table = TaggedTable(log2_entries=4, tag_bits=8, history_length=10)
        table.update_useful(0, True)
        table.update_useful(0, True)
        assert table.useful[0] == 2
        table.age_useful()
        assert table.useful[0] == 1

    def test_index_and_tag_within_range(self):
        table = TaggedTable(log2_entries=6, tag_bits=9, history_length=10)
        for pc in range(0, 4000, 37):
            assert 0 <= table.index_of(pc, 0x15, 0x3) < 64
            assert 0 <= table.tag_of(pc, 0x1F, 0xF) < 512

    def test_storage_bits(self):
        table = TaggedTable(log2_entries=4, tag_bits=8, history_length=10)
        assert table.storage_bits() == 16 * (3 + 8 + 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            TaggedTable(0, 8, 10)
        with pytest.raises(ValueError):
            TaggedTable(4, 0, 10)

    def test_restore_accepts_range_limits(self):
        table = TaggedTable(log2_entries=4, tag_bits=8, history_length=10)
        table.ctr[:2] = [TaggedTable.CTR_MIN, TaggedTable.CTR_MAX]
        table.useful[0] = TaggedTable.U_MAX
        table.tag[0] = 0xFF
        fresh = TaggedTable(log2_entries=4, tag_bits=8, history_length=10)
        fresh.restore(table.snapshot())
        assert fresh.snapshot() == table.snapshot()

    @pytest.mark.parametrize(
        "field, value",
        [("ctr", 99), ("ctr", -5), ("useful", -5), ("useful", 4), ("tag", 256), ("tag", -1)],
    )
    def test_restore_rejects_out_of_range_entries(self, field, value):
        table = TaggedTable(log2_entries=4, tag_bits=8, history_length=10)
        state = table.snapshot()
        state[field][5] = value
        with pytest.raises(StateError, match=f"TaggedTable.{field}"):
            table.restore(state)
        assert table.snapshot() == TaggedTable(4, 8, 10).snapshot()


class TestFoldedIndexSet:
    def test_updates_all_folds(self):
        folds = FoldedIndexSet(history_length=20, index_bits=10, tag_bits=8)
        folds.update(1, 0)
        assert folds.index_fold.value != 0 or folds.tag_fold_1.value != 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FoldedIndexSet(0, 10, 8)


def reference_hashes(predictor, pc):
    """Per-table (index, tag) from ``TaggedTable.index_of``/``tag_of``.

    TAGE feeds them its incrementally folded histories; BF-TAGE folds
    the prefix of the packed BF-GHR that each table's history length
    covers (3 bits per position).
    """
    path = predictor._path_history & mask(predictor.config.path_bits)
    lengths = predictor.config.history_lengths
    segments = getattr(predictor, "segments", None)
    if segments is not None:
        packed, _ = segments.packed_ghr(lengths[-1])
    hashes = []
    for i, table in enumerate(predictor.tables):
        if segments is None:
            folds = predictor._folds[i]
            index_fold = folds.index_fold.value
            tag_folds = folds.tag_fold_1.value, folds.tag_fold_2.value
        else:
            width = 3 * lengths[i]
            prefix = packed & mask(width)
            index_fold = fold_bits(prefix, width, table.log2_entries)
            tag_folds = (
                fold_bits(prefix, width, table.tag_bits),
                fold_bits(prefix, width, max(1, table.tag_bits - 1)),
            )
        hashes.append((table.index_of(pc, index_fold, path), table.tag_of(pc, *tag_folds)))
    return hashes


@pytest.mark.parametrize("name", ["tage10", "bf-tage10"])
def test_inlined_hashes_match_table_formula(name):
    """The per-event index/tag computation equals the TaggedTable formula
    for every table, throughout a trace with plenty of allocation."""
    predictor = standard_registry()[name]()
    trace = build_trace("SPEC03", 1_500)
    for pc, taken in zip(trace.pcs, trace.outcomes):
        expected = reference_hashes(predictor, pc)
        predictor.predict(pc)
        assert list(zip(predictor._last_indices, predictor._last_tags)) == expected
        predictor.train(pc, taken)


class TestTageConfig:
    def test_defaults(self):
        config = TageConfig()
        assert config.num_tables == 10
        assert len(config.history_lengths) == 10

    def test_mismatched_lists_rejected(self):
        with pytest.raises(ValueError):
            TageConfig(
                num_tables=4,
                history_lengths=[3, 8],
                log2_entries=[10] * 4,
                tag_bits=[8] * 4,
            )

    def test_non_increasing_lengths_rejected(self):
        with pytest.raises(ValueError):
            TageConfig(
                num_tables=2,
                history_lengths=[8, 3],
                log2_entries=[10, 10],
                tag_bits=[8, 8],
            )


class TestTageBehaviour:
    def test_learns_biased_branch(self):
        p = Tage(TageConfig.for_tables(4))
        for _ in range(10):
            p.predict(0x40)
            p.train(0x40, True)
        assert p.predict(0x40)

    def test_learns_alternating_pattern(self):
        p = Tage(TageConfig.for_tables(4))
        misses = 0
        outcome = True
        for i in range(300):
            if p.predict(0x40) != outcome and i > 100:
                misses += 1
            p.train(0x40, outcome)
            outcome = not outcome
        assert misses < 20

    def test_provider_attribution(self):
        p = Tage(TageConfig.for_tables(4))
        p.predict(0x40)
        assert p.provider == "base"
        assert p.provider_table == 0

    def test_tagged_provider_emerges(self):
        p = Tage(TageConfig.for_tables(4))
        outcome = True
        providers = set()
        for i in range(500):
            p.predict(0x40)
            providers.add(p.provider)
            p.train(0x40, outcome)
            outcome = not outcome
        assert any(name.startswith("T") for name in providers)

    def test_captures_correlation_within_longest_history(self):
        from tests.test_neural_predictors import correlated_stream, follower_misses

        p = Tage(TageConfig.for_tables(10))  # max history 195
        misses, seen = follower_misses(p, correlated_stream(60, activations=400), skip=200)
        assert misses < 0.15 * seen

    def test_misses_correlation_beyond_longest_history(self):
        from tests.test_neural_predictors import correlated_stream, follower_misses

        p = Tage(TageConfig.for_tables(4))  # max history 26
        misses, seen = follower_misses(p, correlated_stream(60, activations=300), skip=100)
        assert misses > 0.3 * seen

    def test_storage_accounting(self):
        p = Tage(TageConfig.for_tables(10))
        assert 40 * 1024 < p.storage_bits() / 8 < 70 * 1024


class TestISLTage:
    def test_loop_component_captures_constant_loop(self):
        """A loop too long for the history register is caught by the LC."""
        p = ISLTage(TageConfig.for_tables(4))
        trip = 60
        events = []
        for _ in range(60):
            for i in range(trip):
                events.append((0x800, i < trip - 1))
        result = simulate(p, trace_of(events))
        plain = simulate(Tage(TageConfig.for_tables(4)), trace_of(events))
        assert result.mispredictions <= plain.mispredictions

    def test_provider_can_be_loop(self):
        p = ISLTage(TageConfig.for_tables(4))
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

    def test_components_can_be_disabled(self):
        p = ISLTage(
            TageConfig.for_tables(4),
            with_loop_predictor=False,
            with_statistical_corrector=False,
        )
        assert p.loop is None
        p.predict(0x10)
        p.train(0x10, True)

    def test_storage_includes_components(self):
        with_all = ISLTage(TageConfig.for_tables(4))
        without = ISLTage(
            TageConfig.for_tables(4),
            with_loop_predictor=False,
            with_statistical_corrector=False,
        )
        assert with_all.storage_bits() > without.storage_bits()
