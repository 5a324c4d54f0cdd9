"""REPRO005/006 fixture: predictor bases imported through the
``repro.predictors`` package re-exports rather than their defining
modules.  Lint it together with ``src/`` so the bases resolve."""

from repro.predictors import BranchPredictor, Tage


class LeakyTage(Tage):
    def __init__(self) -> None:
        super().__init__()
        self._extra = []  # REPRO006: not captured by Tage's _state_payload


class HalfBakedReexport(BranchPredictor):  # REPRO005: missing storage_bits, reset
    name = "half-baked-reexport"

    def predict(self, pc: int) -> bool:
        return True

    def train(self, pc: int, taken: bool) -> None:
        pass
