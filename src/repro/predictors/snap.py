"""An OH-SNAP-style optimized scaled neural predictor (Jimenez, ICCD 2011).

The paper's Figure 8 neural baseline.  Relative to the classic
perceptron, this predictor:

* hashes (branch pc, path pc, depth) into shared per-depth weight arrays
  so a long history (128 here) fits a modest budget;
* scales each depth's contribution by an inverse-linear coefficient
  f(i) = F / (F + i), modelling the analog summation of SNAP — recent
  history weighs more than distant history;
* trains with an *adaptive* threshold (Seznec's TC scheme) instead of a
  fixed θ.

It remains an unfiltered-history predictor: its reach is bounded by its
128 history positions, which is exactly the limitation Bias-Free
prediction removes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.bitops import is_power_of_two
from repro.common.state import StateError, expect_keys, expect_length, expect_range
from repro.predictors.base import BranchPredictor

_WEIGHT_MIN = -128
_WEIGHT_MAX = 127

#: Hardware threshold registers are 8-bit; the adaptive θ never gets
#: near this in practice, but the model must saturate like the RTL.
_THETA_MAX = 255


class ScaledNeural(BranchPredictor):
    """Hashed, coefficient-scaled neural predictor with adaptive θ."""

    name = "oh-snap"

    def __init__(
        self,
        columns: int = 512,
        history_length: int = 128,
        bias_entries: int = 4096,
        scale_fulcrum: float = 24.0,
    ) -> None:
        if not is_power_of_two(columns):
            raise ValueError(f"columns must be a power of two, got {columns}")
        if not is_power_of_two(bias_entries):
            raise ValueError(f"bias_entries must be a power of two, got {bias_entries}")
        if history_length <= 0:
            raise ValueError(f"history_length must be positive, got {history_length}")
        self.columns = columns
        self.history_length = history_length
        self.bias_entries = bias_entries
        self._weights = np.zeros((history_length, columns), dtype=np.int32)
        self._bias = np.zeros(bias_entries, dtype=np.int32)
        self._history = np.ones(history_length, dtype=np.int32)
        self._path = np.zeros(history_length, dtype=np.int64)
        self._positions = np.arange(history_length)
        self._scale = scale_fulcrum / (scale_fulcrum + np.arange(history_length))
        # Adaptive threshold state (TC counter, Seznec O-GEHL style).
        self.theta = self._initial_theta()
        self._tc = 0
        self._last_sum = 0.0
        self._last_cols = np.zeros(history_length, dtype=np.int64)
        self._last_bias_index = 0

    def _initial_theta(self) -> int:
        # The classic 2.14·(h+1)+20.7 formula assumes unscaled ±1 inputs;
        # with coefficient scaling the achievable |sum| shrinks by the
        # mean coefficient, so θ starts proportional to Σf(i) instead —
        # otherwise training never converges and weights churn forever.
        return int(2.0 * float(self._scale.sum()) + 16)

    def _column_indices(self, pc: int) -> np.ndarray:
        # Hash pc with the path pc at each depth and the depth itself.
        pc_mix = (pc * 0x9E3779B1) & 0x3FFF_FFFF_FFFF  # keep within int64
        mixed = pc_mix ^ (self._path * 0x85EBCA77) ^ (self._positions << 7)
        return mixed & (self.columns - 1)

    def predict(self, pc: int) -> bool:
        cols = self._column_indices(pc)
        bias_index = pc & (self.bias_entries - 1)
        selected = self._weights[self._positions, cols]
        total = float(self._bias[bias_index]) + float(
            np.dot(selected * self._history, self._scale)
        )
        self._last_sum = total
        self._last_cols = cols
        self._last_bias_index = bias_index
        return total >= 0.0

    def train(self, pc: int, taken: bool) -> None:
        predicted_taken = self._last_sum >= 0.0
        mispredicted = predicted_taken != taken
        if mispredicted or abs(self._last_sum) <= self.theta:
            t = 1 if taken else -1
            bias_index = self._last_bias_index
            self._bias[bias_index] = min(
                _WEIGHT_MAX, max(_WEIGHT_MIN, int(self._bias[bias_index]) + t)
            )
            selected = self._weights[self._positions, self._last_cols]
            updated = selected + t * self._history
            np.clip(updated, _WEIGHT_MIN, _WEIGHT_MAX, out=updated)
            self._weights[self._positions, self._last_cols] = updated
            # Adaptive threshold: grow on mispredictions, shrink on
            # low-confidence correct predictions (keeps the two balanced).
            if mispredicted:
                self._tc += 1
                if self._tc >= 7:
                    self._tc = 0
                    if self.theta < _THETA_MAX:
                        self.theta += 1
            else:
                self._tc -= 1
                if self._tc <= -7:
                    self._tc = 0
                    if self.theta > 1:
                        self.theta -= 1
        self._history[1:] = self._history[:-1]  # perf: allow(REPRO401): numpy view
        self._history[0] = 1 if taken else -1
        self._path[1:] = self._path[:-1]  # perf: allow(REPRO401): numpy view
        self._path[0] = pc & 0xFFFF

    def reset(self) -> None:
        self._weights.fill(0)
        self._bias.fill(0)
        self._history.fill(1)
        self._path.fill(0)
        self.theta = self._initial_theta()
        self._tc = 0
        self._last_sum = 0.0
        self._last_cols = np.zeros(self.history_length, dtype=np.int64)
        self._last_bias_index = 0

    def storage_bits(self) -> int:
        weight_bits = self.history_length * self.columns * 8
        bias_bits = self.bias_entries * 8
        history_bits = self.history_length * (1 + 16)
        return weight_bits + bias_bits + history_bits

    def _state_payload(self) -> dict:
        # _positions and _scale are derived constants (REPRO006 baseline
        # exemptions); _last_sum is the analog accumulator, kept as float.
        return {
            "weights": self._weights.tolist(),
            "bias": self._bias.tolist(),
            "history": self._history.tolist(),
            "path": self._path.tolist(),
            "theta": self.theta,
            "tc": self._tc,
            "last_sum": self._last_sum,
            "last_cols": self._last_cols.tolist(),
            "last_bias_index": self._last_bias_index,
        }

    def _restore_payload(self, payload: dict) -> None:
        expect_keys(
            payload,
            ("weights", "bias", "history", "path", "theta", "tc", "last_sum",
             "last_cols", "last_bias_index"),
            "ScaledNeural",
        )
        # Every table and register is shape- and range-checked before any
        # is installed: a weight row of the wrong width, an out-of-range
        # column or bias index would otherwise fail (or read a neighbour
        # row) mid-simulate instead of here.
        expect_length(payload["weights"], self.history_length, "ScaledNeural.weights")
        for row in payload["weights"]:
            expect_length(row, self.columns, "ScaledNeural.weights[depth]")
        expect_length(payload["bias"], self.bias_entries, "ScaledNeural.bias")
        expect_length(payload["history"], self.history_length, "ScaledNeural.history")
        expect_length(payload["path"], self.history_length, "ScaledNeural.path")
        expect_length(payload["last_cols"], self.history_length, "ScaledNeural.last_cols")
        weights = np.array(payload["weights"], dtype=np.int64)
        expect_range(
            [int(weights.min()), int(weights.max())], _WEIGHT_MIN, _WEIGHT_MAX,
            "ScaledNeural.weights",
        )
        bias = [int(v) for v in payload["bias"]]
        expect_range(bias, _WEIGHT_MIN, _WEIGHT_MAX, "ScaledNeural.bias")
        history = [int(v) for v in payload["history"]]
        if any(v not in (-1, 1) for v in history):
            raise StateError("ScaledNeural.history: values must be -1 or +1")
        path = [int(v) for v in payload["path"]]
        expect_range(path, 0, 0xFFFF, "ScaledNeural.path")
        last_cols = [int(v) for v in payload["last_cols"]]
        expect_range(last_cols, 0, self.columns - 1, "ScaledNeural.last_cols")
        last_bias_index = int(payload["last_bias_index"])
        expect_range(
            [last_bias_index], 0, self.bias_entries - 1, "ScaledNeural.last_bias_index"
        )
        # θ moves one step at a time, down to 1 and up to the register's
        # 255 (or never above a larger starting value).
        theta = int(payload["theta"])
        expect_range(
            [theta], 1, max(_THETA_MAX, self._initial_theta()), "ScaledNeural.theta"
        )
        # The TC counter resets on reaching ±7, so it rests in [-6, 6].
        tc = int(payload["tc"])
        expect_range([tc], -6, 6, "ScaledNeural.tc")
        last_sum = float(payload["last_sum"])
        if not math.isfinite(last_sum):
            raise StateError(f"ScaledNeural.last_sum: must be finite, got {last_sum}")
        self._weights = weights.astype(np.int32)
        self._bias = np.array(bias, dtype=np.int32)
        self._history = np.array(history, dtype=np.int32)
        self._path = np.array(path, dtype=np.int64)
        self.theta = theta
        self._tc = tc
        self._last_sum = last_sum
        self._last_cols = np.array(last_cols, dtype=np.int64)
        self._last_bias_index = last_bias_index
