"""Branch Status Table (BST): runtime detection of non-biased branches.

Each BST entry is the 4-state FSM of the paper's Figure 5:

* ``NOT_FOUND`` — the branch has never been seen.  Its first committed
  outcome moves the entry to ``TAKEN`` or ``NOT_TAKEN``.
* ``TAKEN`` / ``NOT_TAKEN`` — the branch has so far been completely
  biased in the recorded direction and is predicted with it.
* ``NON_BIASED`` — the branch has resolved both ways; it is predicted by
  the correlating predictor and contributes to the filtered history.

Two counter styles are provided:

* the 2-bit deterministic FSM used for the paper's feasibility study
  (one outcome in the opposite direction reclassifies the branch), and
* the probabilistic 3-bit variant the paper advocates for products
  (Riley & Zilles): disagreeing outcomes must win a probabilistic race
  before the state flips, which lets a branch revert toward biased
  across program phases instead of being non-biased forever.
"""

from __future__ import annotations

from enum import IntEnum

from repro.common.bitops import is_power_of_two
from repro.common.rng import XorShift64
from repro.common.state import StateError, expect_keys, expect_length


class BranchStatus(IntEnum):
    """The four FSM states of Figure 5."""

    NOT_FOUND = 0
    TAKEN = 1
    NOT_TAKEN = 2
    NON_BIASED = 3


#: Restore's value -> member map: a dict lookup, not an enum call per entry.
_STATUS = {int(status): status for status in BranchStatus}


class BranchStatusTable:
    """Direct-mapped table of bias-detection FSMs.

    ``probabilistic=True`` switches to 3-bit entries: the state byte is
    augmented with a small disagreement counter, and a transition to
    ``NON_BIASED`` (or a reversion back to biased) happens only when the
    counter saturates, each disagreeing outcome incrementing it with
    probability 1/2**``rate``.
    """

    def __init__(
        self,
        entries: int = 16384,
        probabilistic: bool = False,
        rate: int = 1,
        revert_threshold: int = 3,
        rng: XorShift64 | None = None,
    ) -> None:
        if not is_power_of_two(entries):
            raise ValueError(f"entries must be a power of two, got {entries}")
        if rate < 0:
            raise ValueError(f"rate must be non-negative, got {rate}")
        self.entries = entries
        self.probabilistic = probabilistic
        self.rate = rate
        self.revert_threshold = revert_threshold
        self._mask = entries - 1
        self._state = [BranchStatus.NOT_FOUND] * entries
        # Probabilistic mode bookkeeping (per entry):
        #  - disagreement counter while biased (promotes to NON_BIASED)
        #  - agreement-streak counter while non-biased (reverts to biased)
        self._disagree = [0] * entries if probabilistic else []
        self._streak = [0] * entries if probabilistic else []
        self._streak_dir = [False] * entries if probabilistic else []
        self._rng = rng if rng is not None else XorShift64(0xB57)

    def status(self, pc: int) -> BranchStatus:
        """Current FSM state for the branch at ``pc``."""
        return self._state[pc & self._mask]

    def is_non_biased(self, pc: int) -> bool:
        return self._state[pc & self._mask] == BranchStatus.NON_BIASED

    def bias_prediction(self, pc: int) -> bool | None:
        """The recorded bias direction, or None when not usable.

        ``None`` for ``NOT_FOUND`` (no information) and ``NON_BIASED``
        (the correlating predictor must decide).
        """
        state = self._state[pc & self._mask]
        if state == BranchStatus.TAKEN:
            return True
        if state == BranchStatus.NOT_TAKEN:
            return False
        return None

    def observe(self, pc: int, taken: bool) -> BranchStatus:
        """Feed a committed outcome through the FSM; return the new state."""
        index = pc & self._mask
        state = self._state[index]
        if state == BranchStatus.NOT_FOUND:
            self._state[index] = BranchStatus.TAKEN if taken else BranchStatus.NOT_TAKEN
        elif state == BranchStatus.TAKEN:
            if not taken:
                self._handle_disagreement(index)
        elif state == BranchStatus.NOT_TAKEN:
            if taken:
                self._handle_disagreement(index)
        else:  # NON_BIASED
            if self.probabilistic:
                self._handle_non_biased_streak(index, taken)
        return self._state[index]

    def _handle_disagreement(self, index: int) -> None:
        if not self.probabilistic:
            self._state[index] = BranchStatus.NON_BIASED
            return
        if self.rate == 0 or self._rng.chance(1, 1 << self.rate):
            self._disagree[index] += 1
        if self._disagree[index] >= 1:
            self._state[index] = BranchStatus.NON_BIASED
            self._disagree[index] = 0
            self._streak[index] = 0

    def _handle_non_biased_streak(self, index: int, taken: bool) -> None:
        """Let a non-biased branch revert to biased after a long
        single-direction streak (probabilistically counted)."""
        if self._streak[index] == 0 or self._streak_dir[index] != taken:
            self._streak_dir[index] = taken
            self._streak[index] = 1
            return
        if self._rng.chance(1, 1 << (2 * self.rate)):
            self._streak[index] += 1
            if self._streak[index] > self.revert_threshold:
                self._state[index] = (
                    BranchStatus.TAKEN if taken else BranchStatus.NOT_TAKEN
                )
                self._streak[index] = 0

    def non_biased_fraction(self) -> float:
        """Fraction of (touched) entries currently in NON_BIASED state."""
        touched = sum(1 for s in self._state if s != BranchStatus.NOT_FOUND)
        if touched == 0:
            return 0.0
        non_biased = sum(1 for s in self._state if s == BranchStatus.NON_BIASED)
        return non_biased / touched

    def storage_bits(self) -> int:
        return self.entries * (3 if self.probabilistic else 2)

    def snapshot(self) -> dict:
        """All FSM states plus the probabilistic bookkeeping and RNG."""
        return {
            "state": [int(s) for s in self._state],
            "disagree": list(self._disagree),
            "streak": list(self._streak),
            "streak_dir": list(self._streak_dir),
            "rng": self._rng.snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Re-install a :meth:`snapshot`; geometry and mode must match.

        Every field is converted before any is assigned, so a malformed
        state raises :class:`StateError` and leaves the table as it was.
        """
        expect_keys(state, ("state", "disagree", "streak", "streak_dir", "rng"), "BST")
        expect_length(state["state"], self.entries, "BST.state")
        aux = self.entries if self.probabilistic else 0
        expect_length(state["disagree"], aux, "BST.disagree")
        expect_length(state["streak"], aux, "BST.streak")
        expect_length(state["streak_dir"], aux, "BST.streak_dir")
        try:
            status = [_STATUS[s] for s in state["state"]]
            disagree = [int(v) for v in state["disagree"]]
            streak = [int(v) for v in state["streak"]]
            # The generator validates its state before taking it.
            self._rng.restore(state["rng"])
        except KeyError as error:
            raise StateError(f"BST: {error.args[0]!r} is not a branch status") from error
        except (TypeError, ValueError) as error:
            raise StateError(f"BST: {error}") from error
        self._state = status
        self._disagree = disagree
        self._streak = streak
        self._streak_dir = [bool(v) for v in state["streak_dir"]]
