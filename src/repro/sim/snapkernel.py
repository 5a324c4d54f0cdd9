"""Hybrid vectorized kernel for OH-SNAP (:class:`~repro.predictors.snap.ScaledNeural`).

OH-SNAP's weight updates chain through its tables and its adaptive θ,
so the replay itself stays sequential.  But every weight an event reads
is addressed by a hash of (branch pc, path pc, depth), and the path and
the ±1 history are shift registers of past pcs and outcomes alone.  So,
per chunk of events, numpy computes up front:

* the path window and the ±1 history window of every event, seeded from
  ``_path`` and ``_history``
  (:func:`~repro.common.tablestate.history_windows`);
* every event's column hash, turned into flat offsets ``depth ·
  columns + column`` into the row-major weight table;
* every event's bias index.

What stays in python is the gather / dot / update chain, one event at
a time with the scalar predictor's exact expressions: the weights are
gathered at the event's flat offsets, and ``total = float(bias[b]) +
float((selected * history).dot(scale))`` is the scalar float expression
on the same int32 operands and the same float64 ``scale`` through the
same routine (``ndarray.dot`` is ``np.dot``'s), so it sums in the same
order to the same ``last_sum``.  An event that mispredicts or lands
within θ trains bias and weights and steps the TC counter.  One event's
offsets lie in distinct rows, so its update scatters without
collisions.  The weights are mutated in place; bias, θ and TC live as
python values until the writeback.

Staging is chunked (:data:`_CHUNK` events), so its memory stays bounded
whatever the segment length.  The predictor reports no providers.
"""

from __future__ import annotations

import numpy as np

from repro.common.tablestate import history_windows, signed_history_matrix
from repro.predictors.base import hot_path
from repro.predictors.snap import _THETA_MAX, _WEIGHT_MAX, _WEIGHT_MIN

#: Events staged per chunk: bounds the per-event index and history rows.
_CHUNK = 4096

_PC_MIX = np.uint64(0x9E3779B1)
_PC_MIX_MASK = np.uint64(0x3FFF_FFFF_FFFF)
_PATH_MIX = np.uint64(0x85EBCA77)
_PATH_MASK = np.uint64(0xFFFF)
# Typed clip bounds: a python int operand costs a conversion per ufunc call.
_CLIP_HI = np.int32(_WEIGHT_MAX)
_CLIP_LO = np.int32(_WEIGHT_MIN)


class ScaledNeuralKernel:
    """Precomputed-index / sequential-update kernel for ``ScaledNeural``
    (every configuration: columns, history length, bias entries and
    fulcrum)."""

    def supports(self, predictor) -> bool:
        return True

    @hot_path  # perf: allow(REPRO401, REPRO402): staging runs per chunk, not per event
    def run(self, predictor, pcs, outcomes, start: int, end: int):
        n = end - start
        if n == 0:
            return np.zeros(0, dtype=bool), None
        columns = predictor.columns
        depths = np.arange(predictor.history_length, dtype=np.uint64)
        depth_salt = depths << np.uint64(7)
        depth_base = depths * np.uint64(columns)
        column_mask = np.uint64(columns - 1)
        bias_mask = np.uint64(predictor.bias_entries - 1)

        # A view of the (contiguous) table, so updates land in place.
        weights = predictor._weights.reshape(-1)
        bias = predictor._bias.tolist()
        scale = predictor._scale
        theta = predictor.theta
        tc = predictor._tc
        history = predictor._history
        path = predictor._path.astype(np.uint64)
        minimum = np.minimum
        maximum = np.maximum

        preds: list[bool] = []
        add_pred = preds.append
        for lo in range(start, end, _CHUNK):
            hi = min(end, lo + _CHUNK)
            pc_chunk = pcs[lo:hi]
            outs = outcomes[lo:hi]
            signs = signed_history_matrix(outs, len(history), seed=history)
            paths = history_windows(pc_chunk & _PATH_MASK, path)
            # The column hash, in place over the path window's event rows
            # (the last row, the register after the chunk, stays intact).
            offsets = paths[:-1]
            offsets *= _PATH_MIX
            offsets ^= ((pc_chunk * _PC_MIX) & _PC_MIX_MASK)[:, None]
            offsets ^= depth_salt
            offsets &= column_mask
            offsets |= depth_base
            rows = zip(
                offsets.view(np.int64),
                signs,
                (pc_chunk & bias_mask).tolist(),
                (outs == 1).tolist(),
            )
            for flat, h, b, taken in rows:
                selected = weights[flat]
                total = float(bias[b]) + float((selected * h).dot(scale))
                pred = total >= 0.0
                add_pred(pred)
                mispredicted = pred != taken
                if mispredicted or abs(total) <= theta:
                    value = bias[b]
                    if taken:
                        if value < _WEIGHT_MAX:
                            bias[b] = value + 1
                        selected += h
                    else:
                        if value > _WEIGHT_MIN:
                            bias[b] = value - 1
                        selected -= h
                    minimum(selected, _CLIP_HI, out=selected)
                    maximum(selected, _CLIP_LO, out=selected)
                    weights[flat] = selected
                    # ScaledNeural.train's adaptive threshold, step for step.
                    if mispredicted:
                        tc += 1
                        if tc >= 7:
                            tc = 0
                            if theta < _THETA_MAX:
                                theta += 1
                    else:
                        tc -= 1
                        if tc <= -7:
                            tc = 0
                            if theta > 1:
                                theta -= 1
            history = signs[-1]
            path = paths[-1]

        predictor._weights = weights.reshape(predictor._weights.shape)
        predictor._bias = np.array(bias, dtype=np.int32)
        predictor._history = history.copy()
        predictor._path = path.astype(np.int64)
        predictor.theta = theta
        predictor._tc = tc
        predictor._last_sum = total
        predictor._last_cols = flat & (columns - 1)
        predictor._last_bias_index = b
        return np.array(preds, dtype=bool), None
