"""Tests for segmented recency stacks and BF-GHR construction."""

import copy
import json
import os
import random
from bisect import bisect_right
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.state import StateError, expect_keys, expect_length
from repro.core.bftage import BFTage
from repro.core.recency_stack import RecencyStack
from repro.core.segments import DEFAULT_BOUNDARIES, SegmentedRecencyStacks
from repro.sim import simulate
from repro.sim.bfkernel import recency_rows
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
            for entries in seg.snapshot()["segments"]:
                addresses = [entry[0] for entry in entries]
                assert len(addresses) == len(set(addresses))
                stamps = [entry[1] for entry in entries]
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


# ----------------------------------------------------------------------
# Frozen reference: the object-per-entry form of the stacks, which
# invalidated a segment's packed part on every change and repacked it at
# the next prediction, removed by a (pc, stamp) search and evicted by a
# minimum-stamp scan.  Kept verbatim (only the class renamed).
# ----------------------------------------------------------------------


@dataclass
class _SegmentEntry:
    hashed_pc: int
    stamp: int  # commit index of this occurrence
    outcome: bool


class ReferenceSegmentedRecencyStacks:
    """The BF-GHR generator: a ring of commits driving per-segment RSs."""

    def __init__(
        self,
        boundaries: list[int] | None = None,
        rs_size: int = 8,
        unfiltered_bits: int = 16,
        hashed_pc_bits: int = 14,
    ) -> None:
        self.boundaries = list(boundaries) if boundaries is not None else list(DEFAULT_BOUNDARIES)
        if self.boundaries != sorted(self.boundaries) or len(set(self.boundaries)) != len(
            self.boundaries
        ):
            raise ValueError(f"boundaries must strictly increase: {self.boundaries}")
        if rs_size <= 0:
            raise ValueError(f"rs_size must be positive, got {rs_size}")
        if unfiltered_bits <= 0:
            raise ValueError(f"unfiltered_bits must be positive, got {unfiltered_bits}")
        if self.boundaries[0] < unfiltered_bits:
            raise ValueError(
                f"first boundary {self.boundaries[0]} must cover the "
                f"{unfiltered_bits} unfiltered bits"
            )
        self.rs_size = rs_size
        self.unfiltered_bits = unfiltered_bits
        self.hashed_pc_bits = hashed_pc_bits
        self.num_segments = len(self.boundaries) - 1
        self._segments: list[list[_SegmentEntry]] = [[] for _ in range(self.num_segments)]
        # Commit ring: (hashed pc, outcome, non_biased) per committed branch.
        depth_needed = self.boundaries[-1] + 2
        self._ring: list[tuple[int, bool, bool]] = [(0, False, False)] * depth_needed
        self._head = 0
        self._count = 0
        # Each segment's entries packed as in packed_ghr (from position
        # 0); None once the segment has changed since it was last packed.
        self._packed_parts: list[int | None] = [0] * self.num_segments

    # ------------------------------------------------------------------

    def _at_depth(self, depth: int) -> tuple[int, bool, bool] | None:
        """The commit record ``depth`` branches ago (depth 1 = latest)."""
        if depth > self._count:
            return None
        return self._ring[(self._head - depth) % len(self._ring)]

    def commit(self, pc: int, taken: bool, non_biased: bool) -> None:
        """Record a committed branch and advance every segment."""
        ring = self._ring
        ring_len = len(ring)
        ring[self._head % ring_len] = (pc & ((1 << self.hashed_pc_bits) - 1), taken, non_biased)
        self._head += 1
        if self._count < ring_len:
            self._count += 1
        head = self._head
        count = self._count

        # One boundary-crossing event per boundary per commit: the branch
        # whose depth just became boundary+1 leaves the segment above the
        # boundary (if any) and enters the one below it (if any).  Biased
        # records never enter a segment, so their crossings are skipped.
        # Bound methods and counters are hoisted — this loop runs per
        # committed branch over every boundary (REPRO402).
        remove = self._remove
        insert = self._insert
        num_segments = self.num_segments
        for k, boundary in enumerate(self.boundaries):
            depth = boundary + 1
            if depth > count:
                break  # deeper boundaries cannot have been reached either
            hashed_pc, outcome, was_non_biased = ring[(head - depth) % ring_len]
            if not was_non_biased:
                continue
            stamp = head - depth
            if k > 0:
                remove(k - 1, hashed_pc, stamp)
            if k < num_segments:
                insert(k, hashed_pc, stamp, outcome)

    def _remove(self, segment: int, hashed_pc: int, stamp: int) -> None:
        entries = self._segments[segment]
        for position, entry in enumerate(entries):
            if entry.hashed_pc == hashed_pc and entry.stamp == stamp:
                del entries[position]
                self._packed_parts[segment] = None
                return

    def _insert(self, segment: int, hashed_pc: int, stamp: int, outcome: bool) -> None:
        entries = self._segments[segment]
        self._packed_parts[segment] = None
        # Dedup: a new occurrence evicts an older one of the same address.
        for position, entry in enumerate(entries):
            if entry.hashed_pc == hashed_pc:
                del entries[position]
                break
        entries.insert(0, _SegmentEntry(hashed_pc, stamp, outcome))
        if len(entries) > self.rs_size:
            # Evict the deepest (oldest stamp) entry.  Explicit scan —
            # min(..., key=lambda...) builds a closure per eviction
            # (REPRO404); first minimal index wins, same as min().
            deepest = 0
            for position in range(1, len(entries)):
                if entries[position].stamp < entries[deepest].stamp:
                    deepest = position
            del entries[deepest]

    # ------------------------------------------------------------------

    def ghr_components(self) -> tuple[list[int], list[int]]:
        """The BF-GHR as parallel (outcome bit, hashed address) lists.

        Position 0 is the most recent element: first the
        ``unfiltered_bits`` latest raw outcomes, then each segment's
        valid entries (shallow segment first, most recent first).
        """
        bits: list[int] = []
        addresses: list[int] = []
        for depth in range(1, self.unfiltered_bits + 1):
            record = self._at_depth(depth)
            if record is None:
                bits.append(0)
                addresses.append(0)
            else:
                bits.append(1 if record[1] else 0)
                addresses.append(record[0])
        for entries in self._segments:
            # Entries are maintained most-recent-first (insertion order is
            # crossing order), so no per-prediction sort is needed.
            for entry in entries:
                bits.append(1 if entry.outcome else 0)
                addresses.append(entry.hashed_pc)
        return bits, addresses

    def packed_ghr(self, max_length: int) -> tuple[int, int]:
        """The BF-GHR packed 3 bits per position (hot path for BF-TAGE).

        Position p contributes ``outcome | (addr & 3) << 1`` at bit 3p.
        Returns ``(packed value, number of positions packed)``; at most
        ``max_length`` positions are packed.  Each segment's part is packed
        once and reused until a commit changes that segment.
        """
        packed = 0
        position = 0
        ring = self._ring
        ring_len = len(ring)
        head = self._head
        upto = min(self.unfiltered_bits, self._count, max_length)
        for depth in range(1, upto + 1):
            hashed_pc, outcome, _ = ring[(head - depth) % ring_len]
            packed |= (int(outcome) | ((hashed_pc & 3) << 1)) << (3 * position)
            position += 1
        if position < self.unfiltered_bits:
            position = min(self.unfiltered_bits, max_length)
        if position >= max_length:
            return packed, position
        parts = self._packed_parts
        for segment, entries in enumerate(self._segments):
            part = parts[segment]
            if part is None:
                part = 0
                for depth, entry in enumerate(entries):
                    part |= (int(entry.outcome) | ((entry.hashed_pc & 3) << 1)) << (3 * depth)
                parts[segment] = part
            packed |= part << (3 * position)
            position += len(entries)
            if position >= max_length:
                return packed & ((1 << (3 * max_length)) - 1), max_length
        return packed, position

    def max_ghr_length(self) -> int:
        """Upper bound on BF-GHR length (all segment RSs full)."""
        return self.unfiltered_bits + self.num_segments * self.rs_size

    def segment_fill(self) -> list[int]:
        """Current number of valid entries per segment (diagnostics)."""
        return [len(entries) for entries in self._segments]

    def storage_bits(self) -> int:
        """Ring + per-segment RS storage, per Table I's accounting."""
        ring_bits = self.boundaries[-1] * (self.hashed_pc_bits + 1 + 1)
        rs_bits = self.num_segments * self.rs_size * 16
        return ring_bits + rs_bits

    def snapshot(self) -> dict:
        """Commit ring, cursor, and every segment's valid entries."""
        return {
            "segments": [
                [[e.hashed_pc, e.stamp, e.outcome] for e in entries]
                for entries in self._segments
            ],
            "ring": [[pc, taken, nb] for pc, taken, nb in self._ring],
            "head": self._head,
            "count": self._count,
        }

    def restore(self, state: dict) -> None:
        """Re-install a :meth:`snapshot`; segmentation must match."""
        expect_keys(state, ("segments", "ring", "head", "count"), "SegmentedRS")
        expect_length(state["segments"], self.num_segments, "SegmentedRS.segments")
        expect_length(state["ring"], len(self._ring), "SegmentedRS.ring")
        for entries in state["segments"]:
            if not isinstance(entries, list) or len(entries) > self.rs_size:
                found = len(entries) if isinstance(entries, list) else type(entries).__name__
                raise StateError(
                    f"SegmentedRS.segments: expected at most rs_size {self.rs_size} "
                    f"entries per segment, got {found}"
                )
        self._segments = [
            [_SegmentEntry(int(pc), int(stamp), bool(out)) for pc, stamp, out in entries]
            for entries in state["segments"]
        ]
        self._ring = [(int(pc), bool(taken), bool(nb)) for pc, taken, nb in state["ring"]]
        self._head = int(state["head"])
        self._count = min(int(state["count"]), len(self._ring))
        self._packed_parts = [None] * self.num_segments


#: Examples per differential property; REPRO_FULL_DIFFERENTIAL=1 runs more.
DIFFERENTIAL_EXAMPLES = 400 if os.environ.get("REPRO_FULL_DIFFERENTIAL") else 40


@st.composite
def geometries(draw):
    """Random segmentation: boundaries, RS size, unfiltered and pc bits."""
    unfiltered_bits = draw(st.integers(min_value=1, max_value=16))
    deeper = draw(st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=6))
    boundaries = [unfiltered_bits + draw(st.integers(min_value=0, max_value=8))]
    for step in deeper:
        boundaries.append(boundaries[-1] + step)
    return {
        "boundaries": boundaries,
        "rs_size": draw(st.integers(min_value=1, max_value=8)),
        "unfiltered_bits": unfiltered_bits,
        "hashed_pc_bits": draw(st.integers(min_value=1, max_value=14)),
    }


class TestFrozenReference:
    """The in-place packed stacks against the frozen reference: equal
    snapshots and equal packed BF-GHR prefixes after every commit, with
    snapshot -> JSON -> restore points along the way."""

    @given(
        geometry=geometries(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        commits=st.integers(min_value=1, max_value=600),
        pc_pool=st.integers(min_value=1, max_value=40),
        non_biased_share=st.sampled_from([0.1, 0.5, 0.9, 1.0]),
    )
    @settings(max_examples=DIFFERENTIAL_EXAMPLES, deadline=None)
    def test_matches_reference_after_every_commit(
        self, geometry, seed, commits, pc_pool, non_biased_share
    ):
        # Hypothesis draws the shape; a seeded stream supplies commits
        # long enough to reach the deep boundaries, and a small pc pool
        # makes dedup and eviction frequent.
        rnd = random.Random(seed)
        stacks = SegmentedRecencyStacks(**geometry)
        reference = ReferenceSegmentedRecencyStacks(**geometry)
        unfiltered = geometry["unfiltered_bits"]
        longest = stacks.max_ghr_length()
        assert longest == reference.max_ghr_length()
        lengths = sorted({1, max(1, unfiltered - 1), unfiltered, unfiltered + 1, 142, longest})
        for _ in range(commits):
            if rnd.random() < 0.02:
                document = json.loads(json.dumps(stacks.snapshot()))
                stacks = SegmentedRecencyStacks(**geometry)
                stacks.restore(document)
                reference = ReferenceSegmentedRecencyStacks(**geometry)
                reference.restore(copy.deepcopy(document))
            pc = rnd.randrange(pc_pool) * 0x1F3
            taken = rnd.random() < 0.5
            non_biased = rnd.random() < non_biased_share
            stacks.commit(pc, taken, non_biased)
            reference.commit(pc, taken, non_biased)
            assert stacks.snapshot() == reference.snapshot()
            # The segments are the ones the ring determines.
            assert stacks.ring_segments(stacks._ring, stacks._head, stacks._count) == [
                [tuple(entry) for entry in entries] for entries in reference.snapshot()["segments"]
            ]
            for length in lengths:
                assert stacks.packed_ghr(length) == reference.packed_ghr(length), length
        assert stacks.ghr_components() == reference.ghr_components()


class TestOneLruClosedForm:
    """The kernels' closed form of the segmented stacks: segment ``k``
    after commit ``t`` (``t + 1`` commits made) is the LRU of all
    non-biased records as it stood after stamp ``t - b_k``, cut to the
    entries stamped ``t + 1 - b_{k+1}`` or later.  ``recency_rows``
    gives that LRU after every record, and itself matches the scalar
    ``RecencyStack`` with dedup on and off."""

    @given(
        geometry=geometries(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        commits=st.integers(min_value=1, max_value=400),
        pc_pool=st.integers(min_value=1, max_value=40),
        non_biased_share=st.sampled_from([0.1, 0.5, 0.9, 1.0]),
    )
    @settings(max_examples=DIFFERENTIAL_EXAMPLES, deadline=None)
    def test_segments_are_delayed_reads_of_one_lru(
        self, geometry, seed, commits, pc_pool, non_biased_share
    ):
        rnd = random.Random(seed)
        stacks = SegmentedRecencyStacks(**geometry)
        records = [
            (rnd.randrange(pc_pool) * 0x1F3, rnd.random() < 0.5, rnd.random() < non_biased_share)
            for _ in range(commits)
        ]
        # The non-biased records' stamps and hashed pcs, colliding when
        # the hashed pc is narrow.
        stamps = [t for t, (_, _, non_biased) in enumerate(records) if non_biased]
        pcs = [records[t][0] & stacks._pc_mask for t in stamps]
        rs_size = geometry["rs_size"]

        for dedup in (True, False):
            rows = recency_rows(pcs, rs_size, dedup).tolist()
            scalar = RecencyStack(depth=rs_size, dedup=dedup)
            assert rows[0] == [len(pcs)] * rs_size
            for j, pc in enumerate(pcs):
                scalar.tick()
                scalar.record(pc, True)
                entries = [i for i in rows[j + 1] if i < len(pcs)]
                assert [pcs[i] for i in entries] == [e.address for e in scalar.entries()]
                assert [i + 1 for i in entries] == [e.stamp for e in scalar.entries()]
                assert rows[j + 1][len(entries) :] == [len(pcs)] * (rs_size - len(entries))

        rows = recency_rows(pcs, rs_size, True).tolist()
        bounds = stacks.boundaries
        for t, record in enumerate(records):
            stacks.commit(*record)
            for k in range(stacks.num_segments):
                row = rows[bisect_right(stamps, t - bounds[k])]
                held = [i for i in row if i < len(pcs) and stamps[i] >= t + 1 - bounds[k + 1]]
                assert [stamps[i] for i in held] == stacks._stamps[k], (t, k)
                assert [pcs[i] for i in held] == stacks._pcs[k], (t, k)


def trained_stacks():
    stacks = SegmentedRecencyStacks(boundaries=[4, 8, 16, 32], rs_size=3, unfiltered_bits=4)
    rnd = random.Random(5)
    for _ in range(200):
        stacks.commit(rnd.randrange(12), rnd.random() < 0.5, rnd.random() < 0.6)
    assert sum(stacks.segment_fill()) >= 3
    return stacks


def first_full_segment(state):
    return next(k for k, entries in enumerate(state["segments"]) if len(entries) >= 2)


class TestRestoreValidation:
    """A malformed state raises StateError and changes nothing."""

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (lambda s: s["ring"].__setitem__(3, ["x", True, False]), r"ring\[3\]"),
            (lambda s: s["ring"].__setitem__(3, [1, True]), r"ring\[3\]: expected 3 fields"),
            (lambda s: s["ring"].__setitem__(0, [1, 1, False]), "expected bool"),
            (lambda s: s["ring"].__setitem__(0, 5), "expected 3 fields"),
            (lambda s: s.__setitem__("head", -1), "head"),
            (lambda s: s.__setitem__("count", -2), "count"),
            (lambda s: s.__setitem__("count", s["head"] + 1), "count"),
            (lambda s: s.__setitem__("head", "12"), "expected int"),
            (lambda s: s.__setitem__("count", True), "expected int"),
            (
                lambda s: s["segments"][first_full_segment(s)].reverse(),
                "strictly descend",
            ),
            (
                lambda s: s["segments"][first_full_segment(s)][1].__setitem__(
                    0, s["segments"][first_full_segment(s)][0][0]
                ),
                "appears twice",
            ),
            (
                lambda s: s["segments"][first_full_segment(s)][0].__setitem__(2, None),
                "expected bool",
            ),
            (
                lambda s: s["segments"][first_full_segment(s)][0].__setitem__(1, 10**9),
                "window",
            ),
            (
                lambda s: s["segments"][first_full_segment(s)][0].__setitem__(
                    2, not s["segments"][first_full_segment(s)][0][2]
                ),
                "ring record",
            ),
            (
                lambda s: s["segments"][first_full_segment(s)].__setitem__(0, [1, 2]),
                "expected 3 fields",
            ),
        ],
    )
    def test_corrupt_state_raises_and_changes_nothing(self, corrupt, match):
        stacks = trained_stacks()
        before = json.dumps(stacks.snapshot())
        packed = stacks.packed_ghr(stacks.max_ghr_length())
        bad = json.loads(before)
        corrupt(bad)
        with pytest.raises(StateError, match=match):
            stacks.restore(bad)
        assert json.dumps(stacks.snapshot()) == before
        assert stacks.packed_ghr(stacks.max_ghr_length()) == packed
        stacks.restore(json.loads(before))
        assert json.dumps(stacks.snapshot()) == before
