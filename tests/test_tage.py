"""Tests for TAGE components, TAGE, and ISL-TAGE."""

import copy
import random

import pytest

from repro.common.bitops import fold_bits, mask
from repro.common.histories import FoldedHistory, HistoryRing
from repro.common.state import PredictorState, StateError
from repro.core.bftage import BFTage, BFTageConfig, fold_steps
from repro.orchestration import standard_registry
from repro.predictors.tage.components import TaggedTable
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


def raw_history(predictor):
    """TAGE's global history packed from its raw ring buffer, newest
    outcome (the slot before ``_history_head``) in bit 0."""
    buffer = predictor._history_buffer
    head = predictor._history_head
    oldest_first = buffer[head:] + buffer[:head]
    return int("".join(map(str, oldest_first)), 2)


def reference_hashes(predictor, pc):
    """Per-table (index, tag) from ``TaggedTable.index_of``/``tag_of``.

    Both predictors fold each table's history window from scratch with
    ``fold_bits``: TAGE the newest ``L(i)`` outcomes of its raw history
    buffer, BF-TAGE the prefix of the packed BF-GHR that the table's
    history length covers (3 bits per position).
    """
    path = predictor._path_history & mask(predictor.config.path_bits)
    lengths = predictor.config.history_lengths
    segments = getattr(predictor, "segments", None)
    if segments is None:
        packed = raw_history(predictor)
        widths = lengths
    else:
        packed, _ = segments.packed_ghr(lengths[-1])
        widths = [3 * length for length in lengths]
    hashes = []
    for table, width in zip(predictor.tables, widths):
        prefix = packed & mask(width)
        index_fold = fold_bits(prefix, width, table.log2_entries)
        tag_folds = (
            fold_bits(prefix, width, table.tag_bits),
            fold_bits(prefix, width, max(1, table.tag_bits - 1)),
        )
        hashes.append((table.index_of(pc, index_fold, path), table.tag_of(pc, *tag_folds)))
    return hashes


def assert_hashes_match(predictor, pcs, outcomes):
    for pc, taken in zip(pcs, outcomes):
        expected = reference_hashes(predictor, pc)
        predictor.predict(pc)
        assert list(zip(predictor._last_indices, predictor._last_tags)) == expected
        predictor.train(pc, taken)


def random_stream(seed, count=400, pcs=24):
    rng = random.Random(seed)
    branches = [0x400 + 4 * rng.randrange(1 << 12) for _ in range(pcs)]
    return [rng.choice(branches) for _ in range(count)], [
        rng.random() < 0.6 for _ in range(count)
    ]


@pytest.mark.parametrize("name", ["tage10", "tage15", "bf-tage10"])
def test_inlined_hashes_match_table_formula(name):
    """The per-event index/tag computation equals the TaggedTable formula
    over naive folds for every table, throughout a trace with plenty of
    allocation."""
    trace = build_trace("SPEC03", 1_500)
    assert_hashes_match(standard_registry()[name](), trace.pcs, trace.outcomes)


@pytest.mark.parametrize("num_tables", range(1, 11))
def test_bf_tage_fold_steps_match_fold_bits(num_tables):
    """BF-TAGE's precomputed fold steps equal ``fold_bits`` of every
    table's BF-GHR prefix, for every table count it supports."""
    pcs, outcomes = random_stream(num_tables)
    assert_hashes_match(BFTage(BFTageConfig.for_tables(num_tables)), pcs, outcomes)


def test_fold_steps_equal_fold_bits():
    rng = random.Random(7)
    for _ in range(300):
        width = rng.randrange(0, 600)
        target = rng.randrange(1, 20)
        value = rng.getrandbits(width + 8)
        folded = value & mask(width)
        for shift, low in fold_steps(width, target):
            folded = (folded & low) ^ (folded >> shift)
        assert folded == fold_bits(value, width, target)
    with pytest.raises(ValueError):
        fold_steps(10, 0)


class TestFlatFoldRegisters:
    """``Tage._folds`` advances exactly like one standalone
    ``FoldedHistory`` per (table, fold) fed from its own history ring."""

    @pytest.mark.parametrize("num_tables", range(4, 16))
    def test_registers_track_standalone_folds(self, num_tables):
        predictor = Tage(TageConfig.for_tables(num_tables))
        cfg = predictor.config
        standalone = [
            FoldedHistory(length, width)
            for length, log2, tag_bits in zip(
                cfg.history_lengths, cfg.log2_entries, cfg.tag_bits
            )
            for width in (log2, tag_bits, max(1, tag_bits - 1))
        ]
        ring = HistoryRing(cfg.history_lengths[-1] + 1)
        pcs, outcomes = random_stream(num_tables, count=2_500)
        for pc, taken in zip(pcs, outcomes):
            predictor.predict(pc)
            predictor.train(pc, taken)
            for fold in standalone:
                outgoing = ring.at(fold.length - 1) if len(ring) >= fold.length else 0
                fold.update(int(taken), outgoing)
            ring.push(taken)
            assert predictor._folds == [fold.value for fold in standalone]
        assert any(predictor._folds)

    def test_zero_history_length_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            TageConfig(num_tables=1, history_lengths=[0], log2_entries=[10], tag_bits=[8])


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


class TestTageState:
    """The flat fold registers snapshot and restore as strictly as the
    per-table ``FoldedHistory`` objects they replaced."""

    @pytest.mark.parametrize("name", ["tage15", "isl-tage15", "bf-tage10"])
    def test_restore_then_continue_matches_straight_run(self, name):
        factory = standard_registry()[name]
        trace = build_trace("SPEC03", 2_500)
        split = 1_237
        straight = factory()
        simulate(straight, trace)

        first = factory()
        simulate(first, trace, stop_after=split)
        resumed = factory()
        resumed.restore(PredictorState.from_json(first.snapshot().to_json()))
        assert resumed.state_hash() == first.state_hash()
        for pc, taken in zip(trace.pcs[split:], trace.outcomes[split:]):
            assert resumed.predict(pc) == first.predict(pc)
            resumed.train(pc, taken)
            first.train(pc, taken)
        assert resumed.state_hash() == straight.state_hash()

    def trained_payload(self):
        predictor = Tage(TageConfig.for_tables(4))
        pcs, outcomes = random_stream(3)
        for pc, taken in zip(pcs, outcomes):
            predictor.predict(pc)
            predictor.train(pc, taken)
        return predictor, predictor.snapshot().payload

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda p: p["folds"][0].__setitem__(0, 1 << 11), "Tage.folds"),
            (lambda p: p["folds"][3].__setitem__(2, -1), "Tage.folds"),
            (lambda p: p["folds"][1].__setitem__(1, "7"), "Tage.folds"),
            (lambda p: p["folds"][2].pop(), r"Tage.folds\[table\]"),
            (lambda p: p["folds"].pop(), "Tage.folds"),
            (lambda p: p["history_buffer"].__setitem__(5, 2), "Tage.history_buffer"),
            (lambda p: p.__setitem__("history_head", 27), "Tage.history_head"),
            (lambda p: p.__setitem__("history_head", -1), "Tage.history_head"),
        ],
    )
    def test_restore_rejects_corrupt_history(self, corrupt, match):
        predictor, payload = self.trained_payload()
        before = predictor.state_hash()
        bad = copy.deepcopy(payload)
        corrupt(bad)
        with pytest.raises(StateError, match=match):
            predictor._restore_payload(bad)
        assert predictor.state_hash() == before
        predictor._restore_payload(payload)
        assert predictor.state_hash() == before
