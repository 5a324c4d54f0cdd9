"""Tests for the Branch Status Table FSM (paper Figure 5)."""

import pytest

from repro.common.rng import XorShift64
from repro.common.state import StateError
from repro.core.bst import BranchStatus, BranchStatusTable


class TestDeterministicFSM:
    def test_initial_state_not_found(self):
        bst = BranchStatusTable(entries=64)
        assert bst.status(0x40) == BranchStatus.NOT_FOUND
        assert bst.bias_prediction(0x40) is None

    def test_first_outcome_sets_bias(self):
        bst = BranchStatusTable(entries=64)
        bst.observe(0x40, True)
        assert bst.status(0x40) == BranchStatus.TAKEN
        assert bst.bias_prediction(0x40) is True
        bst.observe(0x44, False)
        assert bst.status(0x44) == BranchStatus.NOT_TAKEN
        assert bst.bias_prediction(0x44) is False

    def test_agreeing_outcomes_keep_bias(self):
        bst = BranchStatusTable(entries=64)
        for _ in range(100):
            bst.observe(0x40, True)
        assert bst.status(0x40) == BranchStatus.TAKEN

    def test_single_disagreement_promotes_to_non_biased(self):
        bst = BranchStatusTable(entries=64)
        bst.observe(0x40, True)
        bst.observe(0x40, False)
        assert bst.status(0x40) == BranchStatus.NON_BIASED
        assert bst.is_non_biased(0x40)
        assert bst.bias_prediction(0x40) is None

    def test_non_biased_is_absorbing_without_probabilistic(self):
        bst = BranchStatusTable(entries=64)
        bst.observe(0x40, True)
        bst.observe(0x40, False)
        for _ in range(500):
            bst.observe(0x40, True)
        assert bst.status(0x40) == BranchStatus.NON_BIASED

    def test_direct_mapped_aliasing(self):
        bst = BranchStatusTable(entries=16)
        bst.observe(0x0, True)
        # pc 16 aliases to entry 0; it disagrees and flips the entry.
        bst.observe(16, False)
        assert bst.status(0x0) == BranchStatus.NON_BIASED

    def test_entries_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            BranchStatusTable(entries=100)

    def test_storage_2bit(self):
        assert BranchStatusTable(entries=1024).storage_bits() == 2048


class TestNonBiasedFraction:
    def test_empty_table(self):
        assert BranchStatusTable(entries=16).non_biased_fraction() == 0.0

    def test_mixed(self):
        bst = BranchStatusTable(entries=64)
        bst.observe(0x0, True)  # biased
        bst.observe(0x4, True)
        bst.observe(0x4, False)  # non-biased
        assert bst.non_biased_fraction() == 0.5


class TestProbabilisticBST:
    def test_storage_3bit(self):
        bst = BranchStatusTable(entries=1024, probabilistic=True)
        assert bst.storage_bits() == 3072

    def test_eventually_promotes(self):
        bst = BranchStatusTable(entries=64, probabilistic=True, rate=1, rng=XorShift64(3))
        bst.observe(0x40, True)
        promoted = False
        for i in range(100):
            state = bst.observe(0x40, bool(i & 1))
            if state == BranchStatus.NON_BIASED:
                promoted = True
                break
        assert promoted

    def test_can_revert_to_biased_after_long_streak(self):
        """Unlike the 2-bit FSM, the probabilistic variant recovers when a
        branch settles into one direction across a phase change."""
        bst = BranchStatusTable(entries=64, probabilistic=True, rate=1, rng=XorShift64(5))
        bst.observe(0x40, True)
        bst.observe(0x40, False)
        assert bst.status(0x40) == BranchStatus.NON_BIASED
        for _ in range(3000):
            bst.observe(0x40, True)
        assert bst.status(0x40) == BranchStatus.TAKEN

    def test_alternation_does_not_revert(self):
        bst = BranchStatusTable(entries=64, probabilistic=True, rate=1, rng=XorShift64(7))
        bst.observe(0x40, True)
        for i in range(2000):
            bst.observe(0x40, bool(i & 1))
        assert bst.status(0x40) == BranchStatus.NON_BIASED

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            BranchStatusTable(entries=64, rate=-1)

    def test_deterministic_with_seeded_rng(self):
        def run(seed):
            bst = BranchStatusTable(entries=64, probabilistic=True, rng=XorShift64(seed))
            states = []
            for i in range(200):
                states.append(bst.observe(0x40, bool(i % 5 == 0)))
            return states

        assert run(9) == run(9)


class TestRestore:
    """A malformed snapshot raises StateError and leaves the table as it was."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda s: s["state"].__setitem__(3, 9),
            lambda s: s["disagree"].__setitem__(3, "x"),
            lambda s: s["streak"].__setitem__(3, None),
            lambda s: s.__setitem__("rng", 0),
        ],
    )
    def test_corrupt_snapshot_changes_nothing(self, corrupt):
        bst = BranchStatusTable(entries=64, probabilistic=True, rng=XorShift64(11))
        for i in range(300):
            bst.observe(0x40 + 4 * (i % 7), bool(i % 3))
        before = bst.snapshot()
        bad = bst.snapshot()
        for key in ("state", "disagree", "streak"):
            bad[key] = [0] * len(bad[key])
        corrupt(bad)
        with pytest.raises(StateError, match="BST"):
            bst.restore(bad)
        assert bst.snapshot() == before
