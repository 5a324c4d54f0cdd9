"""Segmented recency stacks and BF-GHR construction (Section V, Figure 7).

A monolithic recency stack over 2000 branches would need an impractical
associative search, so BF-TAGE divides the raw global history into
non-overlapping, geometrically sized segments, each covered by a small
RS (size 8 here, as in the paper).  A branch *enters* a segment's RS
when its raw depth crosses the segment's shallow boundary (if it was
non-biased at commit) and *falls out* at the deep boundary, where the
next segment considers it.  Within a segment only the most recent
occurrence of a (hashed) branch address is kept; when a full RS must
make room, the deepest entry is evicted.

The BF-GHR presented to the tagged tables is the concatenation of the
16 most recent *unfiltered* outcomes (the paper keeps these unfiltered
to dodge dynamic-detection perturbation) and each segment's valid
entries, shallow segment first, most recent entry first.  Only valid
entries are packed, so the compression — and therefore the effective
reach of a given number of BF-GHR bits — grows with the biased-branch
fraction of the workload, which is exactly the paper's premise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.state import StateError, expect_keys, expect_length

#: The paper's history segmentation (Section VI-C).
DEFAULT_BOUNDARIES = [
    16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048,
]


@dataclass
class _SegmentEntry:
    hashed_pc: int
    stamp: int  # commit index of this occurrence
    outcome: bool


class SegmentedRecencyStacks:
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
