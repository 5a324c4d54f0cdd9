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

As in hardware, where each RS is a small shift register and the BF-GHR
is those registers wired one after another, the packed form is kept
current as it changes: the unfiltered outcomes are a rolling register
that every commit shifts, and each segment's packed part shifts a new
entry in at position 0 and splices a deduplicated one out with two
masks.  Entries enter a segment in crossing order, so their stamps
strictly descend from the shallow end: the deepest entry, and any entry
leaving at the deep boundary, is always the last one, and eviction and
deep-boundary removal are tail pops.
"""

from __future__ import annotations

from repro.common.state import StateError, expect_keys, expect_length

#: The paper's history segmentation (Section VI-C).
DEFAULT_BOUNDARIES = [
    16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048,
]


def _element(hashed_pc: int, outcome: bool) -> int:
    """One BF-GHR position packed in 3 bits: ``outcome | (addr & 3) << 1``."""
    return (1 if outcome else 0) | ((hashed_pc & 3) << 1)


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
        self._pc_mask = (1 << hashed_pc_bits) - 1
        # Per segment, parallel and most recent first: hashed pcs, stamps
        # (commit index of the occurrence, strictly descending) and the
        # packed part — entry i's 3-bit element at bit 3i.
        self._pcs: list[list[int]] = [[] for _ in range(self.num_segments)]
        self._stamps: list[list[int]] = [[] for _ in range(self.num_segments)]
        self._parts: list[int] = [0] * self.num_segments
        # _keep[n] keeps the first n packed entries of a part.
        self._keep = [(1 << (3 * n)) - 1 for n in range(rs_size + 1)]
        # Commit ring: (hashed pc, outcome, non_biased) per committed branch.
        depth_needed = self.boundaries[-1] + 2
        self._ring: list[tuple[int, bool, bool]] = [(0, False, False)] * depth_needed
        self._head = 0
        self._count = 0
        # The unfiltered_bits latest outcomes packed (latest at bit 0).
        self._recent = 0
        self._recent_mask = (1 << (3 * unfiltered_bits)) - 1

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
        hashed_pc = pc & self._pc_mask
        ring[self._head % ring_len] = (hashed_pc, taken, non_biased)
        element = ((hashed_pc & 3) << 1) | (1 if taken else 0)  # _element, inlined
        self._recent = ((self._recent << 3) | element) & self._recent_mask
        self._head += 1
        if self._count < ring_len:
            self._count += 1
        head = self._head
        count = self._count

        # One boundary-crossing event per boundary per commit: the branch
        # whose depth just became boundary+1 leaves the segment above the
        # boundary (if any) and enters the one below it (if any).  Biased
        # records never enter a segment, so their crossings are skipped.
        # Per-segment lists are hoisted — this loop runs per committed
        # branch over every boundary (REPRO402).
        all_pcs = self._pcs
        all_stamps = self._stamps
        parts = self._parts
        keep = self._keep
        insert = self._insert
        last = self.num_segments
        for k, boundary in enumerate(self.boundaries):
            depth = boundary + 1
            if depth > count:
                break  # deeper boundaries cannot have been reached either
            stamp = head - depth
            crossing_pc, outcome, was_non_biased = ring[stamp % ring_len]
            if not was_non_biased:
                continue
            if k:
                # Leaving segment k-1 at its deep boundary: its stamp is
                # the oldest the segment can hold, so if the entry is still
                # there (not deduplicated or evicted) it is the tail.
                stamps = all_stamps[k - 1]
                if stamps and stamps[-1] == stamp:
                    stamps.pop()
                    all_pcs[k - 1].pop()
                    parts[k - 1] &= keep[len(stamps)]
            if k < last:
                insert(k, crossing_pc, stamp, outcome)

    def _insert(self, segment: int, hashed_pc: int, stamp: int, outcome: bool) -> None:
        pcs = self._pcs[segment]
        stamps = self._stamps[segment]
        part = self._parts[segment]
        if hashed_pc in pcs:
            # Dedup: a new occurrence evicts an older one of the same
            # address; its 3 bits are spliced out of the packed part.
            position = pcs.index(hashed_pc)
            del pcs[position]
            del stamps[position]
            low = 3 * position
            part = (part & self._keep[position]) | ((part >> (low + 3)) << low)
        pcs.insert(0, hashed_pc)
        stamps.insert(0, stamp)
        part = (part << 3) | ((hashed_pc & 3) << 1) | (1 if outcome else 0)  # _element
        if len(pcs) > self.rs_size:
            # Evict the deepest entry: stamps descend, so it is the tail.
            pcs.pop()
            stamps.pop()
            part &= self._keep[self.rs_size]
        self._parts[segment] = part

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
        for pcs, part in zip(self._pcs, self._parts):
            for position, hashed_pc in enumerate(pcs):
                bits.append((part >> (3 * position)) & 1)
                addresses.append(hashed_pc)
        return bits, addresses

    def packed_ghr(self, max_length: int) -> tuple[int, int]:
        """The BF-GHR packed 3 bits per position (hot path for BF-TAGE).

        Position p contributes ``outcome | (addr & 3) << 1`` at bit 3p.
        Returns ``(packed value, number of positions packed)``; at most
        ``max_length`` positions are packed.  The unfiltered register and
        every segment's part are kept current by :meth:`commit`, so this
        is one OR-and-shift per segment.
        """
        position = self.unfiltered_bits
        if max_length <= position:
            return self._recent & ((1 << (3 * max_length)) - 1), max_length
        packed = self._recent
        for part, pcs in zip(self._parts, self._pcs):
            packed |= part << (3 * position)
            position += len(pcs)
            if position >= max_length:
                return packed & ((1 << (3 * max_length)) - 1), max_length
        return packed, position

    def max_ghr_length(self) -> int:
        """Upper bound on BF-GHR length (all segment RSs full)."""
        return self.unfiltered_bits + self.num_segments * self.rs_size

    def segment_fill(self) -> list[int]:
        """Current number of valid entries per segment (diagnostics)."""
        return [len(pcs) for pcs in self._pcs]

    def storage_bits(self) -> int:
        """Ring + per-segment RS storage, per Table I's accounting."""
        ring_bits = self.boundaries[-1] * (self.hashed_pc_bits + 1 + 1)
        rs_bits = self.num_segments * self.rs_size * 16
        return ring_bits + rs_bits

    def snapshot(self) -> dict:
        """Commit ring, cursor, and every segment's valid entries."""
        return {
            "segments": [
                [
                    [hashed_pc, stamp, bool((part >> (3 * position)) & 1)]
                    for position, (hashed_pc, stamp) in enumerate(zip(pcs, stamps))
                ]
                for pcs, stamps, part in zip(self._pcs, self._stamps, self._parts)
            ],
            "ring": [[pc, taken, nb] for pc, taken, nb in self._ring],
            "head": self._head,
            "count": self._count,
        }

    def ring_segments(self, ring: list, head: int, count: int) -> list[list[tuple]]:
        """Every segment's ``(hashed pc, stamp, outcome)`` entries as the
        commit ring ``ring`` (at cursor ``head``, ``count`` records
        known) determines them, newest first.

        Segment ``k`` holds the distinct non-biased hashed pcs at depths
        ``b_k + 1 .. min(b_{k+1}, count)``, each at its newest occurrence
        there, at most ``rs_size`` of them: :meth:`commit` enters a record
        at its shallow boundary and drops it at its deep one, keeps only a
        pc's latest occurrence and evicts the oldest entry, so every state
        a run reaches is this one (docs/vectorization.md).
        """
        ring_len = len(ring)
        segments = []
        for shallow, deep in zip(self.boundaries, self.boundaries[1:]):
            entries: list[tuple] = []
            seen: set[int] = set()
            for stamp in range(head - shallow - 1, head - min(deep, count) - 1, -1):
                hashed_pc, taken, non_biased = ring[stamp % ring_len]
                if non_biased and hashed_pc not in seen:
                    seen.add(hashed_pc)
                    entries.append((hashed_pc, stamp, taken))
                    if len(entries) == self.rs_size:
                        break
            segments.append(entries)
        return segments

    def _install_segments(self, segments: list[list[tuple]]) -> None:
        """Set every segment's pcs, stamps and packed part to ``segments``
        (:meth:`ring_segments`' form)."""
        self._pcs = [[pc for pc, _, _ in entries] for entries in segments]
        self._stamps = [[stamp for _, stamp, _ in entries] for entries in segments]
        self._parts = [
            sum(_element(pc, taken) << (3 * position) for position, (pc, _, taken) in enumerate(entries))
            for entries in segments
        ]

    def restore(self, state: dict) -> None:
        """Re-install a :meth:`snapshot`; segmentation must match.

        Everything is validated before anything is assigned, so a
        malformed state raises :class:`StateError` and leaves the stacks
        as they were.  Beyond the shapes and field types, the segments
        must be the ones the ring determines (:meth:`ring_segments`), the
        only segments a run can reach.
        """
        expect_keys(state, ("segments", "ring", "head", "count"), "SegmentedRS")
        expect_length(state["segments"], self.num_segments, "SegmentedRS.segments")
        expect_length(state["ring"], len(self._ring), "SegmentedRS.ring")
        ring = [
            _fields(record, (int, bool, bool), f"SegmentedRS.ring[{index}]")
            for index, record in enumerate(state["ring"])
        ]
        head, count = _fields((state["head"], state["count"]), (int, int), "SegmentedRS.head/count")
        if head < 0 or count < 0 or count > head:
            raise StateError(
                f"SegmentedRS: need 0 <= count <= head, got head {head}, count {count}"
            )
        ring_len = len(ring)
        count = min(count, ring_len)
        derived = self.ring_segments(ring, head, count)
        for segment, (entries, expected) in enumerate(zip(state["segments"], derived)):
            context = f"SegmentedRS.segments[{segment}]"
            if not isinstance(entries, list) or len(entries) > self.rs_size:
                found = len(entries) if isinstance(entries, list) else type(entries).__name__
                raise StateError(
                    f"{context}: expected at most rs_size {self.rs_size} entries, got {found}"
                )
            entries = [
                _fields(entry, (int, int, bool), f"{context}[{position}]")
                for position, entry in enumerate(entries)
            ]
            if entries != expected:
                shallow, deep = self.boundaries[segment] + 1, self.boundaries[segment + 1]
                raise StateError(
                    f"{context}: got {entries!r:.80}, the ring determines {expected!r:.80}; "
                    f"the segment holds the distinct non-biased ring records of its depth "
                    f"window [{shallow}, {deep}]: newest first, so stamps strictly descend, "
                    f"and no hashed pc appears twice"
                )
        recent = 0
        for depth in range(1, min(self.unfiltered_bits, count) + 1):
            hashed_pc, taken, _ = ring[(head - depth) % ring_len]
            recent |= _element(hashed_pc, taken) << (3 * (depth - 1))
        self._install_segments(derived)
        self._ring = ring
        self._head = head
        self._count = count
        self._recent = recent


def _fields(values, types: tuple[type, ...], context: str) -> tuple:
    """``values`` as a tuple, each of exactly its type in ``types`` (so
    an ``int`` field refuses a bool)."""
    if type(values) not in (list, tuple) or len(values) != len(types):
        raise StateError(f"{context}: expected {len(types)} fields, got {values!r:.60}")
    for value, kind in zip(values, types):
        if type(value) is not kind:
            raise StateError(f"{context}: expected {kind.__name__}, got {value!r:.40}")
    return tuple(values)
