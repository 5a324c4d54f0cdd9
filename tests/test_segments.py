"""Tests for segmented recency stacks and BF-GHR construction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.state import StateError
from repro.core.bftage import BFTage
from repro.core.segments import DEFAULT_BOUNDARIES, SegmentedRecencyStacks
from repro.sim import simulate
from repro.workloads import build_trace
from repro.workloads.mix import compose_mix


def make_small():
    return SegmentedRecencyStacks(
        boundaries=[4, 8, 16, 32], rs_size=3, unfiltered_bits=4
    )


class TestConstruction:
    def test_default_boundaries_match_paper(self):
        seg = SegmentedRecencyStacks()
        assert seg.boundaries == DEFAULT_BOUNDARIES
        assert seg.boundaries[-1] == 2048
        assert seg.num_segments == 16

    def test_max_ghr_length(self):
        seg = SegmentedRecencyStacks()
        assert seg.max_ghr_length() == 16 + 16 * 8

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentedRecencyStacks(boundaries=[8, 4])
        with pytest.raises(ValueError):
            SegmentedRecencyStacks(boundaries=[8, 8, 16])
        with pytest.raises(ValueError):
            SegmentedRecencyStacks(rs_size=0)
        with pytest.raises(ValueError):
            SegmentedRecencyStacks(boundaries=[8, 16], unfiltered_bits=16)


class TestUnfilteredRegion:
    def test_recent_bits_appear_in_ghr(self):
        seg = make_small()
        for taken in (True, False, True, True):
            seg.commit(0x100, taken, non_biased=False)
        bits, _ = seg.ghr_components()
        # Position 0 is the most recent outcome.
        assert bits[:4] == [1, 1, 0, 1]

    def test_biased_region_is_unfiltered(self):
        """The 16 recent bits keep biased branches (paper Section VI-C)."""
        seg = make_small()
        seg.commit(0x100, True, non_biased=False)
        bits, _ = seg.ghr_components()
        assert bits[0] == 1


class TestSegmentEntryFlow:
    def test_non_biased_branch_enters_first_segment(self):
        seg = make_small()
        seg.commit(0xAB, True, non_biased=True)
        for _ in range(4):
            seg.commit(0x1, False, non_biased=False)
        assert seg.segment_fill() == [1, 0, 0]

    def test_biased_branch_never_enters(self):
        seg = make_small()
        seg.commit(0xAB, True, non_biased=False)
        for _ in range(40):
            seg.commit(0x1, False, non_biased=False)
        assert seg.segment_fill() == [0, 0, 0]

    def test_branch_migrates_between_segments(self):
        seg = make_small()
        seg.commit(0xAB, True, non_biased=True)
        for _ in range(8):
            seg.commit(0x1, False, non_biased=False)
        # Depth is now 9: inside (8, 16] — the second segment.
        assert seg.segment_fill() == [0, 1, 0]

    def test_branch_falls_out_of_last_segment(self):
        seg = make_small()
        seg.commit(0xAB, True, non_biased=True)
        for _ in range(40):
            seg.commit(0x1, False, non_biased=False)
        assert seg.segment_fill() == [0, 0, 0]

    def test_dedup_within_segment(self):
        seg = make_small()
        # Two occurrences of the same pc close together.
        seg.commit(0xAB, True, non_biased=True)
        seg.commit(0xAB, False, non_biased=True)
        for _ in range(5):
            seg.commit(0x1, False, non_biased=False)
        # Both occurrences are inside (4, 8]; only the latest is kept.
        assert seg.segment_fill() == [1, 0, 0]
        bits, addrs = seg.ghr_components()
        assert addrs[4] == 0xAB
        assert bits[4] == 0  # the most recent occurrence (not taken)

    def test_capacity_evicts_deepest(self):
        seg = SegmentedRecencyStacks(boundaries=[4, 16], rs_size=2, unfiltered_bits=4)
        for pc in (0xA0, 0xB0, 0xC0):
            seg.commit(pc, True, non_biased=True)
        for _ in range(6):
            seg.commit(0x1, False, non_biased=False)
        # All three crossed into (4,16]; only the two most recent remain.
        bits, addrs = seg.ghr_components()
        segment_addrs = addrs[4:]
        assert 0xC0 in segment_addrs and 0xB0 in segment_addrs
        assert 0xA0 not in segment_addrs

    def test_entries_ordered_most_recent_first(self):
        seg = SegmentedRecencyStacks(boundaries=[4, 32], rs_size=8, unfiltered_bits=4)
        for pc in (0xA0, 0xB0, 0xC0):
            seg.commit(pc, True, non_biased=True)
        for _ in range(6):
            seg.commit(0x1, False, non_biased=False)
        _, addrs = seg.ghr_components()
        segment = [a for a in addrs[4:]]
        assert segment == [0xC0, 0xB0, 0xA0]


class TestPackedGhr:
    def test_packed_matches_components(self):
        seg = make_small()
        import random

        rnd = random.Random(3)
        for _ in range(100):
            seg.commit(rnd.randrange(1 << 14), bool(rnd.getrandbits(1)), bool(rnd.getrandbits(1)))
        bits, addrs = seg.ghr_components()
        packed, length = seg.packed_ghr(max_length=1000)
        assert length == len(bits)
        for position, (bit, addr) in enumerate(zip(bits, addrs)):
            element = (packed >> (3 * position)) & 0b111
            assert element == (bit | ((addr & 3) << 1))

    def test_packed_respects_max_length(self):
        seg = make_small()
        for i in range(50):
            seg.commit(i, True, non_biased=True)
        packed, length = seg.packed_ghr(max_length=5)
        assert length == 5
        assert packed < (1 << 15)

    def test_storage_bits_positive(self):
        assert SegmentedRecencyStacks().storage_bits() > 0


class TestInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.booleans(),
                st.booleans(),
            ),
            max_size=400,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_structural_invariants(self, events):
        seg = SegmentedRecencyStacks(
            boundaries=[4, 8, 16, 32, 64], rs_size=3, unfiltered_bits=4
        )
        for pc, taken, non_biased in events:
            seg.commit(pc, taken, non_biased)
            fills = seg.segment_fill()
            assert all(0 <= fill <= 3 for fill in fills)
            for entries in seg._segments:
                addresses = [e.hashed_pc for e in entries]
                assert len(addresses) == len(set(addresses))
                stamps = [e.stamp for e in entries]
                assert stamps == sorted(stamps, reverse=True)
        bits, addrs = seg.ghr_components()
        assert len(bits) == len(addrs)
        assert all(bit in (0, 1) for bit in bits)


def pack_components(seg, max_length):
    """``packed_ghr`` recomputed from ``ghr_components``."""
    bits, addresses = seg.ghr_components()
    length = min(max_length, len(bits))
    packed = 0
    for position in range(length):
        packed |= (bits[position] | ((addresses[position] & 3) << 1)) << (3 * position)
    return packed, length


class TestPackedGhrCache:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_components_across_snapshot_restore(self, seed):
        """Per-segment packed parts never go stale: not on commits, not
        across a restore into a fresh instance."""
        rnd = random.Random(seed)
        seg = SegmentedRecencyStacks()
        lengths = (1, 16, 17, 142, seg.max_ghr_length())
        pcs = [rnd.randrange(1 << 16) for _ in range(40)]
        for step in range(2_600):
            if rnd.random() < 0.02:
                fresh = SegmentedRecencyStacks()
                fresh.restore(seg.snapshot())
                seg = fresh
            else:
                seg.commit(rnd.choice(pcs), rnd.random() < 0.5, rnd.random() < 0.4)
            for length in lengths:
                assert seg.packed_ghr(length) == pack_components(seg, length), (step, length)
        assert sum(seg.segment_fill()) > 0

    def test_restore_rejects_overfull_segment(self):
        seg = SegmentedRecencyStacks(rs_size=8)
        state = seg.snapshot()
        state["segments"][3] = [[pc, 100 - pc, True] for pc in range(50)]
        with pytest.raises(StateError, match="rs_size 8"):
            seg.restore(state)

    def test_restore_rejects_non_list_segment(self):
        seg = SegmentedRecencyStacks()
        state = seg.snapshot()
        state["segments"][0] = 7
        with pytest.raises(StateError):
            seg.restore(state)


def mix_trace(seed, branches):
    components = [build_trace(name, branches) for name in ("SERV1", "WILD1", "SPARSE1")]
    return compose_mix(f"MIX{seed}", components, branches=branches, seed=seed)


@pytest.mark.parametrize("seed", [1, 2])
def test_bftage_resumed_equals_straight_on_mixes(seed):
    """A BF-TAGE run cut twice and resumed into fresh instances ends in
    the straight run's state, on mixes with many non-biased branches."""
    trace = mix_trace(seed, 3_000)
    straight_predictor = BFTage()
    straight = simulate(straight_predictor, trace)
    checkpoint = None
    for cut in (1_111, 2_050):
        segment = simulate(BFTage(), trace, resume_from=checkpoint, stop_after=cut)
        checkpoint = segment.checkpoint
    predictor = BFTage()
    final = simulate(predictor, trace, resume_from=checkpoint)
    assert final.mispredictions == straight.mispredictions
    assert predictor.state_hash() == straight_predictor.state_hash()
