"""TAGE building block: the partially tagged table.

A tagged table entry holds a 3-bit signed prediction counter, a partial
tag and a 2-bit useful counter.  Entries are stored in parallel int lists
(not objects) because every prediction touches every table.  The folded
global histories that index the tables live in ``Tage`` itself (tage.py),
as one flat register list.
"""

from __future__ import annotations

from repro.common.bitops import is_power_of_two, mask
from repro.common.state import expect_keys, expect_length, expect_range


class TaggedTable:
    """One partially tagged TAGE component table."""

    CTR_MAX = 3  # 3-bit signed counter in [-4, 3]
    CTR_MIN = -4
    U_MAX = 3  # 2-bit useful counter

    def __init__(self, log2_entries: int, tag_bits: int, history_length: int) -> None:
        if log2_entries <= 0:
            raise ValueError(f"log2_entries must be positive, got {log2_entries}")
        if tag_bits <= 0:
            raise ValueError(f"tag_bits must be positive, got {tag_bits}")
        self.log2_entries = log2_entries
        self.entries = 1 << log2_entries
        self.tag_bits = tag_bits
        self.history_length = history_length
        self.ctr = [0] * self.entries
        self.tag = [0] * self.entries
        self.useful = [0] * self.entries
        assert is_power_of_two(self.entries)

    def index_of(self, pc: int, index_fold: int, path_hash: int) -> int:
        """Compute the table index from pc, folded history and path."""
        value = pc ^ (pc >> (self.log2_entries - 2)) ^ index_fold ^ path_hash
        return value & (self.entries - 1)

    def tag_of(self, pc: int, tag_fold_1: int, tag_fold_2: int) -> int:
        """Compute the partial tag."""
        value = pc ^ tag_fold_1 ^ (tag_fold_2 << 1)
        return value & mask(self.tag_bits)

    def predict_at(self, index: int) -> bool:
        return self.ctr[index] >= 0

    def is_weak(self, index: int) -> bool:
        return self.ctr[index] in (0, -1)

    def update_ctr(self, index: int, taken: bool) -> None:
        value = self.ctr[index]
        if taken:
            if value < self.CTR_MAX:
                self.ctr[index] = value + 1
        elif value > self.CTR_MIN:
            self.ctr[index] = value - 1

    def update_useful(self, index: int, increase: bool) -> None:
        value = self.useful[index]
        if increase:
            if value < self.U_MAX:
                self.useful[index] = value + 1
        elif value > 0:
            self.useful[index] = value - 1

    def allocate(self, index: int, tag: int, taken: bool) -> None:
        """Install a fresh entry, weakly biased toward the outcome."""
        self.tag[index] = tag
        self.ctr[index] = 0 if taken else -1
        self.useful[index] = 0

    def age_useful(self) -> None:
        """Gracefully degrade all useful counters (periodic reset)."""
        # perf: allow(REPRO401): runs once per useful_reset_period, not per event
        self.useful = [value >> 1 for value in self.useful]

    def storage_bits(self) -> int:
        return self.entries * (3 + self.tag_bits + 2)

    def snapshot(self) -> dict:
        """The three parallel entry arrays."""
        return {
            "ctr": list(self.ctr),
            "tag": list(self.tag),
            "useful": list(self.useful),
        }

    def restore(self, state: dict) -> None:
        """Re-install a :meth:`snapshot`; geometry must match."""
        expect_keys(state, ("ctr", "tag", "useful"), "TaggedTable")
        for field in ("ctr", "tag", "useful"):
            expect_length(state[field], self.entries, f"TaggedTable.{field}")
        ctr = [int(v) for v in state["ctr"]]
        tag = [int(v) for v in state["tag"]]
        useful = [int(v) for v in state["useful"]]
        expect_range(ctr, self.CTR_MIN, self.CTR_MAX, "TaggedTable.ctr")
        expect_range(tag, 0, mask(self.tag_bits), "TaggedTable.tag")
        expect_range(useful, 0, self.U_MAX, "TaggedTable.useful")
        self.ctr = ctr
        self.tag = tag
        self.useful = useful
