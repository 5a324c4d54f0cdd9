"""The Recency Stack (RS): latest-occurrence-only filtered history.

The RS (paper Figure 3) replaces a shift-register global history: when a
non-biased branch commits, its existing entry (if any) is moved to the
top and refreshed, so the register holds the *most recent* occurrence of
each of the last ``depth`` distinct non-biased branches.

Each entry carries the paper's three fields (Algorithm 2):

* ``A`` — the branch address,
* ``P`` — the positional history: the absolute distance, in committed
  branches, from the current prediction point back to this occurrence
  (Section III-C / Figure 4),
* ``H`` — the outcome of that occurrence (±1 for perceptron use).

``P`` is maintained lazily: each entry stores the global commit stamp of
its occurrence, and the distance is ``now - stamp`` — equivalent to
incrementing every entry's counter per commit, without the O(depth)
walk.  Distances are capped at ``position_cap`` (hardware stores P in a
few bits; the cap models the saturation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.state import StateError, expect_keys, expect_range


@dataclass
class RSEntry:
    """One recency-stack slot: address, occurrence stamp, outcome."""

    address: int
    stamp: int  # global branch-commit counter value at the occurrence
    outcome: bool


class RecencyStack:
    """A bounded most-recent-occurrence stack of non-biased branches."""

    def __init__(
        self, depth: int = 48, position_cap: int = 4096, dedup: bool = True
    ) -> None:
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        if position_cap <= 0:
            raise ValueError(f"position_cap must be positive, got {position_cap}")
        self.depth = depth
        self.position_cap = position_cap
        #: With ``dedup=False`` the structure degrades to a plain shift
        #: register over its inputs (used by the Figure 9 ablation stage
        #: that filters biased branches but keeps every instance).
        self.dedup = dedup
        self._entries: list[RSEntry] = []
        self._clock = 0

    def __len__(self) -> int:
        return len(self._entries)

    def tick(self) -> None:
        """Advance the global commit clock (call once per committed branch)."""
        self._clock += 1

    def record(self, pc: int, taken: bool) -> None:
        """Insert/refresh the entry for a committed *non-biased* branch.

        On a hit the entry moves to the top (positions of entries above
        it shift down by one, the others keep their slots — the clock-
        gating behaviour of Figure 3).  On a miss the stack shifts and
        the oldest entry falls out.
        """
        entries = self._entries
        if self.dedup:
            for position, entry in enumerate(entries):
                if entry.address == pc:
                    del entries[position]
                    break
        entries.insert(0, RSEntry(address=pc, stamp=self._clock, outcome=taken))
        if len(entries) > self.depth:
            entries.pop()

    def distance_of(self, entry: RSEntry) -> int:
        """Positional history P: committed branches since the occurrence."""
        return min(self._clock - entry.stamp, self.position_cap)

    def entries(self) -> list[RSEntry]:
        """Entries from most to least recent (index 0 = top of stack)."""
        return self._entries

    def aph_view(self) -> list[tuple[int, int, bool]]:
        """(address, distance, outcome) triples, top first — the (A, P, H)
        arrays of Algorithm 2."""
        return [
            (entry.address, self.distance_of(entry), entry.outcome)
            for entry in self._entries
        ]

    def snapshot(self) -> dict:
        """JSON-safe copy of the raw entries and the commit clock.

        Unlike :meth:`aph_view` this keeps the absolute stamps so a
        restore reproduces distance saturation behaviour bit-exactly.
        """
        return {
            "entries": [[e.address, e.stamp, e.outcome] for e in self._entries],
            "clock": self._clock,
        }

    def restore(self, state: dict) -> None:
        """Re-install a :meth:`snapshot`; the depth bound must hold."""
        expect_keys(state, ("entries", "clock"), "RecencyStack")
        entries = state["entries"]
        if not isinstance(entries, list) or len(entries) > self.depth:
            raise StateError(
                f"RecencyStack: {len(entries)} entries exceed depth {self.depth}"
            )
        restored = [
            RSEntry(address=int(a), stamp=int(s), outcome=bool(o))
            for a, s, o in entries
        ]
        clock = int(state["clock"])
        if clock < 0:
            raise StateError(f"RecencyStack: clock {clock} is negative")
        # Every occurrence was stamped at or before the current clock, so
        # distances (clock - stamp) are never negative.
        expect_range([e.stamp for e in restored], 0, clock, "RecencyStack.stamps")
        if self.dedup and len({e.address for e in restored}) != len(restored):
            raise StateError("RecencyStack: duplicate addresses in a dedup stack")
        self._entries = restored
        self._clock = clock

    def find(self, pc: int) -> RSEntry | None:
        for entry in self._entries:
            if entry.address == pc:
                return entry
        return None

    def clear(self) -> None:
        self._entries.clear()
        self._clock = 0

    def storage_bits(self, entry_bits: int = 16) -> int:
        """Model cost: the paper budgets 16 bits per RS entry (Table I)."""
        return self.depth * entry_bits
