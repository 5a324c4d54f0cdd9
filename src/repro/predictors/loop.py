"""Loop-count predictor (the LC component of L-TAGE / ISL-TAGE).

Captures loops with constant trip counts: the entry remembers how many
consecutive taken outcomes preceded the last not-taken, and once the same
count repeats (confidence saturates) it predicts the exit perfectly.

The paper's BF-Neural uses a 64-entry, 4-way skewed-associative LC
predictor; ISL-TAGE uses the same structure.  It is a *side* predictor:
``lookup`` returns a prediction plus a confidence flag, and the host
predictor decides whether to use it.

The table is six ``[set][way]`` field lists (tag, past trip, current
trip, confidence, age, valid), the one layout this class and the batch
kernels' replay (:func:`repro.sim.bfkernel.loop_replay`) both change in
place.

A pc's skewed ``(set, tag)`` pair in every way is one splitmix64 hash per
way.  ``lookup`` and ``update`` see the same pc in one event, so the
pairs of the last pc hashed are kept in a one-slot cache: each event
hashes its pc once however many ways ``_find`` and ``_allocate`` scan.
The cache is a pure function of the pc and the geometry, so it bounds
memory at one entry whatever pcs arrive and stays out of snapshots.
"""

from __future__ import annotations

from repro.common.bitops import MIX64_M1, MIX64_M2, U64
from repro.common.state import StateError, expect_keys, expect_length
from repro.predictors.base import BranchPredictor


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
        self.reset()
        # Skewed associativity: every way adds its own multiple of the
        # skew constant to the pc before hashing.
        self._way_skews = tuple(0x517C_C1B7 * (way + 1) for way in range(ways))
        self._tag_mask = (1 << tag_bits) - 1
        # The one-slot hash cache: the last pc hashed and its (set, tag)
        # per way, rewritten in place.
        self._slots_pc: int | None = None
        self._slots_of_pc = [(0, 0)] * ways

    def _slots(self, pc: int) -> list[tuple[int, int]]:
        """``(set, tag)`` of ``pc`` in every way, cached for the last pc."""
        slots = self._slots_of_pc
        if pc == self._slots_pc:
            return slots
        sets = self.sets
        tag_mask = self._tag_mask
        for way, skew in enumerate(self._way_skews):
            # mix64(pc + skew), inlined.
            hashed = (pc + skew) & U64
            hashed = (hashed ^ (hashed >> 30)) * MIX64_M1 & U64
            hashed = (hashed ^ (hashed >> 27)) * MIX64_M2 & U64
            hashed ^= hashed >> 31
            slots[way] = (hashed % sets, (hashed >> 20) & tag_mask)
        self._slots_pc = pc
        return slots

    def _find(self, pc: int) -> tuple[int, int] | None:
        """``(set, way)`` of ``pc``'s valid entry, if it has one."""
        valid = self._valid
        tags = self._tags
        for way, (set_index, tag) in enumerate(self._slots(pc)):
            if valid[set_index][way] and tags[set_index][way] == tag:
                return set_index, way
        return None

    def lookup(self, pc: int) -> tuple[bool, bool]:
        """Return ``(prediction, confident)``.

        The prediction is only meaningful when ``confident`` is True: the
        loop has repeated the same trip count enough times.
        """
        found = self._find(pc)
        if found is None:
            return True, False
        set_index, way = found
        if self._confidence[set_index][way] < self.CONFIDENCE_MAX:
            return True, False
        # Predict not-taken exactly at the exit iteration.
        return self._current[set_index][way] != self._past[set_index][way], True

    def update(self, pc: int, taken: bool, allocate: bool = True) -> None:
        """Observe a resolved outcome for a (potential) loop branch."""
        found = self._find(pc)
        if found is None:
            if taken or not allocate:
                return
            self._allocate(pc)
            return
        set_index, way = found
        current = self._current[set_index]
        if taken:
            current[way] += 1
            if current[way] > self.TRIP_MAX:
                # Not a constant-trip loop we can represent; retire it.
                self._valid[set_index][way] = False
            return
        # Loop exit observed.
        past = self._past[set_index]
        confidence = self._confidence[set_index]
        if current[way] == past[way]:
            if confidence[way] < self.CONFIDENCE_MAX:
                confidence[way] += 1
            age = self._age[set_index]
            if age[way] < self.AGE_MAX:
                age[way] += 1
        else:
            past[way] = current[way]
            confidence[way] = 0
        current[way] = 0

    def _allocate(self, pc: int) -> None:
        # Prefer an invalid way; otherwise decay ages and steal an old one.
        slots = self._slots(pc)
        valid = self._valid
        ages = self._age
        victim_way = None
        for way, (set_index, _) in enumerate(slots):
            if not valid[set_index][way]:
                victim_way = way
                break
        if victim_way is None:
            for way, (set_index, _) in enumerate(slots):
                if ages[set_index][way] == 0:
                    victim_way = way
                    break
                ages[set_index][way] -= 1
        if victim_way is None:
            return
        set_index, tag = slots[victim_way]
        self._tags[set_index][victim_way] = tag
        self._past[set_index][victim_way] = 0
        self._current[set_index][victim_way] = 0
        self._confidence[set_index][victim_way] = 0
        ages[set_index][victim_way] = self.AGE_MAX
        valid[set_index][victim_way] = True

    def reset(self) -> None:
        self._tags, self._past, self._current, self._confidence, self._age, self._valid = (
            [[value] * self.ways for _ in range(self.sets)] for value in (0, 0, 0, 0, 0, False)
        )

    def storage_bits(self) -> int:
        per_entry = self.tag_bits + 14 + 14 + 2 + 3 + 1
        return self.entries * per_entry

    def snapshot(self) -> dict:
        """All loop entries as flat field lists."""
        fields = (self._tags, self._past, self._current, self._confidence, self._age, self._valid)
        return {"table": [[list(entry) for entry in zip(*rows)] for rows in zip(*fields)]}

    def restore(self, state: dict) -> None:
        """Re-install a :meth:`snapshot`; geometry must match and every
        field must lie in its reachable range, checked before anything
        is installed."""
        expect_keys(state, ("table",), "LoopPredictor")
        expect_length(state["table"], self.sets, "LoopPredictor.table")
        # Reachable ranges, from update/_allocate: an entry retired past
        # TRIP_MAX keeps that count as its current trip.
        highs = (
            ("tag", self._tag_mask),
            ("past", self.TRIP_MAX),
            ("current", self.TRIP_MAX + 1),
            ("confidence", self.CONFIDENCE_MAX),
            ("age", self.AGE_MAX),
        )
        for ways in state["table"]:
            expect_length(ways, self.ways, "LoopPredictor.table[set]")
            for entry in ways:
                expect_length(entry, 6, "LoopPredictor.table[set][way]")
                for (name, high), value in zip(highs, entry):
                    if type(value) is not int or not 0 <= value <= high:
                        raise StateError(
                            f"LoopPredictor.table: {name} {value!r:.40} outside [0, {high}]"
                        )
                if type(entry[5]) is not bool:
                    raise StateError(f"LoopPredictor.table: valid {entry[5]!r:.40} is not a bool")
        # Per set, one tuple per field.
        columns = [list(zip(*ways)) for ways in state["table"]]
        self._tags, self._past, self._current, self._confidence, self._age, self._valid = (
            [list(per_set[field]) for per_set in columns] for field in range(6)
        )


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
