"""Loop-count predictor (the LC component of L-TAGE / ISL-TAGE).

Captures loops with constant trip counts: the entry remembers how many
consecutive taken outcomes preceded the last not-taken, and once the same
count repeats (confidence saturates) it predicts the exit perfectly.

The paper's BF-Neural uses a 64-entry, 4-way skewed-associative LC
predictor; ISL-TAGE uses the same structure.  It is a *side* predictor:
``lookup`` returns a prediction plus a confidence flag, and the host
predictor decides whether to use it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitops import MIX64_M1, MIX64_M2, U64
from repro.common.state import expect_keys, expect_length
from repro.predictors.base import BranchPredictor


@dataclass
class _LoopEntry:
    tag: int = 0
    past_trip: int = 0
    current_trip: int = 0
    confidence: int = 0
    age: int = 0
    valid: bool = False


class LoopPredictor:
    """Skewed-associative table of loop trip-count entries."""

    CONFIDENCE_MAX = 3
    AGE_MAX = 7
    TRIP_MAX = (1 << 14) - 1

    def __init__(self, entries: int = 64, ways: int = 4, tag_bits: int = 14) -> None:
        if entries % ways != 0:
            raise ValueError(f"entries ({entries}) must be a multiple of ways ({ways})")
        self.entries = entries
        self.ways = ways
        self.tag_bits = tag_bits
        self.sets = entries // ways
        self._table = [[_LoopEntry() for _ in range(ways)] for _ in range(self.sets)]
        # Skewed associativity: every way adds its own multiple of the
        # skew constant to the pc before hashing.
        self._way_skews = tuple(0x517C_C1B7 * (way + 1) for way in range(ways))
        self._tag_mask = (1 << tag_bits) - 1

    def _set_and_tag(self, pc: int, way: int) -> tuple[int, int]:
        # mix64(pc + skew), inlined: this runs per way on every lookup.
        hashed = (pc + self._way_skews[way]) & U64
        hashed = (hashed ^ (hashed >> 30)) * MIX64_M1 & U64
        hashed = (hashed ^ (hashed >> 27)) * MIX64_M2 & U64
        hashed ^= hashed >> 31
        return hashed % self.sets, (hashed >> 20) & self._tag_mask

    def _find(self, pc: int) -> _LoopEntry | None:
        set_and_tag = self._set_and_tag
        table = self._table
        for way in range(self.ways):
            set_index, tag = set_and_tag(pc, way)
            entry = table[set_index][way]
            if entry.valid and entry.tag == tag:
                return entry
        return None

    def lookup(self, pc: int) -> tuple[bool, bool]:
        """Return ``(prediction, confident)``.

        The prediction is only meaningful when ``confident`` is True: the
        loop has repeated the same trip count enough times.
        """
        entry = self._find(pc)
        if entry is None or entry.confidence < self.CONFIDENCE_MAX:
            return True, False
        # Predict not-taken exactly at the exit iteration.
        return entry.current_trip != entry.past_trip, True

    def update(self, pc: int, taken: bool, allocate: bool = True) -> None:
        """Observe a resolved outcome for a (potential) loop branch."""
        entry = self._find(pc)
        if entry is None:
            if taken or not allocate:
                return
            self._allocate(pc)
            return
        if taken:
            entry.current_trip += 1
            if entry.current_trip > self.TRIP_MAX:
                # Not a constant-trip loop we can represent; retire it.
                entry.valid = False
            return
        # Loop exit observed.
        if entry.current_trip == entry.past_trip:
            if entry.confidence < self.CONFIDENCE_MAX:
                entry.confidence += 1
            if entry.age < self.AGE_MAX:
                entry.age += 1
        else:
            entry.past_trip = entry.current_trip
            entry.confidence = 0
        entry.current_trip = 0

    def _allocate(self, pc: int) -> None:
        # Prefer an invalid way; otherwise decay ages and steal an old one.
        set_and_tag = self._set_and_tag
        table = self._table
        victim_way = None
        for way in range(self.ways):
            set_index, _ = set_and_tag(pc, way)
            if not table[set_index][way].valid:
                victim_way = way
                break
        if victim_way is None:
            for way in range(self.ways):
                set_index, _ = set_and_tag(pc, way)
                entry = table[set_index][way]
                if entry.age == 0:
                    victim_way = way
                    break
                entry.age -= 1
        if victim_way is None:
            return
        set_index, tag = set_and_tag(pc, victim_way)
        entry = table[set_index][victim_way]
        entry.tag = tag
        entry.past_trip = 0
        entry.current_trip = 0
        entry.confidence = 0
        entry.age = self.AGE_MAX
        entry.valid = True

    def reset(self) -> None:
        self._table = [[_LoopEntry() for _ in range(self.ways)] for _ in range(self.sets)]

    def storage_bits(self) -> int:
        per_entry = self.tag_bits + 14 + 14 + 2 + 3 + 1
        return self.entries * per_entry

    def snapshot(self) -> dict:
        """All loop entries as flat field lists."""
        return {
            "table": [
                [
                    [e.tag, e.past_trip, e.current_trip, e.confidence, e.age, e.valid]
                    for e in ways
                ]
                for ways in self._table
            ]
        }

    def restore(self, state: dict) -> None:
        """Re-install a :meth:`snapshot`; geometry must match."""
        expect_keys(state, ("table",), "LoopPredictor")
        expect_length(state["table"], self.sets, "LoopPredictor.table")
        for ways in state["table"]:
            expect_length(ways, self.ways, "LoopPredictor.table[set]")
        self._table = [
            [
                _LoopEntry(
                    tag=int(tag),
                    past_trip=int(past),
                    current_trip=int(cur),
                    confidence=int(conf),
                    age=int(age),
                    valid=bool(valid),
                )
                for tag, past, cur, conf, age, valid in ways
            ]
            for ways in state["table"]
        ]


class LoopOnly(BranchPredictor):
    """A standalone wrapper exposing the LC predictor through the common
    interface (used by tests and the component examples)."""

    name = "loop-only"

    def __init__(self, loop: LoopPredictor | None = None) -> None:
        self.loop = loop if loop is not None else LoopPredictor()

    def predict(self, pc: int) -> bool:
        prediction, _ = self.loop.lookup(pc)
        return prediction

    def train(self, pc: int, taken: bool) -> None:
        self.loop.update(pc, taken)

    def reset(self) -> None:
        self.loop.reset()

    def storage_bits(self) -> int:
        return self.loop.storage_bits()

    def _state_payload(self) -> dict:
        return {"loop": self.loop.snapshot()}

    def _restore_payload(self, payload: dict) -> None:
        expect_keys(payload, ("loop",), "LoopOnly")
        self.loop.restore(payload["loop"])
