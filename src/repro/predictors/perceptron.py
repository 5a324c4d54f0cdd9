"""The classic global perceptron predictor (Jimenez & Lin, HPCA 2001).

A PC-indexed table of perceptrons; each perceptron dots its signed
weights with the global history (as a ±1 vector) plus a bias weight, and
trains on a misprediction or when the output magnitude is below the
threshold θ = 1.93·h + 14.

The weight table lives in a numpy array so the h-wide dot product and
update are single vectorized operations — the only way a pure-Python
trace-driven simulation of neural predictors stays tractable.
"""

from __future__ import annotations

import numpy as np

from repro.common.bitops import is_power_of_two
from repro.common.state import StateError, expect_keys, expect_length, expect_range
from repro.predictors.base import BranchPredictor

_WEIGHT_MIN = -128
_WEIGHT_MAX = 127


class GlobalPerceptron(BranchPredictor):
    """Perceptron predictor over the last ``history_length`` outcomes."""

    name = "perceptron"

    def __init__(self, rows: int = 512, history_length: int = 32) -> None:
        if not is_power_of_two(rows):
            raise ValueError(f"rows must be a power of two, got {rows}")
        if history_length <= 0:
            raise ValueError(f"history_length must be positive, got {history_length}")
        self.rows = rows
        self.history_length = history_length
        self.theta = int(1.93 * history_length + 14)
        self._row_mask = rows - 1
        # Column 0 is the bias weight; columns 1..h are history weights.
        self._weights = np.zeros((rows, history_length + 1), dtype=np.int32)
        self._history = np.ones(history_length, dtype=np.int32)  # ±1, index 0 newest
        self._last_row = 0
        self._last_sum = 0

    def predict(self, pc: int) -> bool:
        row = pc & self._row_mask
        weights = self._weights[row]
        # perf: allow(REPRO401): numpy slice is a view, not a copy
        total = int(weights[0]) + int(np.dot(weights[1:], self._history))
        self._last_row = row
        self._last_sum = total
        return total >= 0

    def train(self, pc: int, taken: bool) -> None:
        predicted_taken = self._last_sum >= 0
        if predicted_taken != taken or abs(self._last_sum) <= self.theta:
            weights = self._weights[self._last_row]
            t = 1 if taken else -1
            weights[0] = min(_WEIGHT_MAX, max(_WEIGHT_MIN, int(weights[0]) + t))
            # perf: allow(REPRO401): numpy views
            updated = weights[1:] + t * self._history
            # perf: allow(REPRO401): numpy view
            np.clip(updated, _WEIGHT_MIN, _WEIGHT_MAX, out=weights[1:])
        # Shift history: newest at index 0.
        self._history[1:] = self._history[:-1]  # perf: allow(REPRO401): numpy view
        self._history[0] = 1 if taken else -1

    def reset(self) -> None:
        self._weights.fill(0)
        self._history.fill(1)
        self._last_row = 0
        self._last_sum = 0

    def storage_bits(self) -> int:
        return self.rows * (self.history_length + 1) * 8 + self.history_length

    def _state_payload(self) -> dict:
        return {
            "weights": self._weights.tolist(),
            "history": self._history.tolist(),
            "last_row": self._last_row,
            "last_sum": self._last_sum,
        }

    def _restore_payload(self, payload: dict) -> None:
        expect_keys(
            payload, ("weights", "history", "last_row", "last_sum"), "GlobalPerceptron"
        )
        # Shapes, ranges and scalar types are checked before anything is
        # installed: a row of the wrong width, a history value other than
        # ±1 or an out-of-range row would otherwise fail (or read past the
        # table) at the next predict instead of here.
        expect_length(payload["weights"], self.rows, "GlobalPerceptron.weights")
        for row in payload["weights"]:
            expect_length(row, self.history_length + 1, "GlobalPerceptron.weights[row]")
        expect_length(
            payload["history"], self.history_length, "GlobalPerceptron.history"
        )
        weights = np.array(payload["weights"], dtype=np.int64)
        expect_range(
            [int(weights.min()), int(weights.max())], _WEIGHT_MIN, _WEIGHT_MAX,
            "GlobalPerceptron.weights",
        )
        history = [int(v) for v in payload["history"]]
        if any(v not in (-1, 1) for v in history):
            raise StateError("GlobalPerceptron.history: values must be -1 or +1")
        last_row, last_sum = payload["last_row"], payload["last_sum"]
        if type(last_row) is not int or type(last_sum) is not int:
            raise StateError(
                "GlobalPerceptron.last_row/last_sum: expected ints, "
                f"got {last_row!r:.40} and {last_sum!r:.40}"
            )
        expect_range([last_row], 0, self.rows - 1, "GlobalPerceptron.last_row")
        self._weights = weights.astype(np.int32)
        self._history = np.array(history, dtype=np.int32)
        self._last_row = last_row
        self._last_sum = last_sum
