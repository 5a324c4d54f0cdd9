"""Tests for the BranchPredictor interface contract."""

import pytest

from repro.predictors import AlwaysTaken
from repro.predictors.base import BranchPredictor


class TestInterfaceDefaults:
    def test_default_provider_is_name(self):
        predictor = AlwaysTaken()
        assert predictor.provider == "always-taken"

    def test_default_reset_unsupported(self):
        class Minimal(BranchPredictor):
            def predict(self, pc):
                return True

            def train(self, pc, taken):
                return None

        with pytest.raises(NotImplementedError):
            Minimal().reset()

    def test_abstract_methods_enforced(self):
        with pytest.raises(TypeError):
            BranchPredictor()  # type: ignore[abstract]

    def test_energy_fallback_for_zero_storage(self):
        from repro.sim.energy import profile_of

        profile = profile_of(AlwaysTaken())
        assert profile.arrays == []
        assert profile.total_reads == 0
        assert profile.energy_units == 0
