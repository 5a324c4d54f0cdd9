"""Array-backed table state: the numpy substrate under the batch kernel.

Scalar predictors keep their tables as plain python lists (or small numpy
arrays) inside the versioned ``PredictorState`` payload.  The vectorized
batch kernels (``repro.sim.batchkernel`` and its siblings) instead work on
typed numpy arrays.  This module holds the vectorized forms of the hash
and history machinery in ``repro.common.bitops`` /
``repro.common.histories`` whose closed forms the kernels rely on.

Everything here is exact, not approximate: each helper mirrors a scalar
twin and is covered by differential tests (``tests/test_batchkernel.py``)
that assert bit-identity event by event.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.common.bitops import MIX64_M1, MIX64_M2, U64

_U64 = np.uint64(U64)
_MIX_M1 = np.uint64(MIX64_M1)
_MIX_M2 = np.uint64(MIX64_M2)


# perf: allow(REPRO401): per-trace staging, runs once per batch
def ring_history(buf: list, head: int) -> list:
    """A circular history buffer's bits in push order, oldest first
    (``head`` is the slot the next push writes)."""
    return buf[head:] + buf[:head]


# perf: allow(REPRO401): per-trace writeback, runs once per batch
def ring_write(buf: list, head: int, values: np.ndarray) -> int:
    """Push ``values`` (oldest first) into the circular buffer ``buf`` in
    place, as one push per value would; returns the new head."""
    capacity = len(buf)
    kept = values[-capacity:].tolist()
    start = (head + len(values) - len(kept)) % capacity
    first = min(len(kept), capacity - start)
    buf[start : start + first] = kept[:first]
    buf[: len(kept) - first] = kept[first:]
    return (head + len(values)) % capacity


# perf: allow(REPRO401): per-trace staging, runs once per batch
def entry_runs(idx: np.ndarray) -> tuple:
    """Group a batch's events by the table entry they read.

    Returns ``(order, sidx, run_start, starts)``: the stable sort order
    of ``idx`` (so each entry's events stay in time order), the sorted
    indices, whether each sorted event starts its entry's run, and the
    sorted position of each event's run start.  A per-entry FSM replays
    its whole run in closed form from these, reading its entry once.
    """
    n = len(idx)
    order = np.argsort(idx, kind="stable")
    sidx = idx[order]
    run_start = np.empty(n, dtype=bool)
    if n:
        run_start[0] = True
        np.not_equal(sidx[1:], sidx[:-1], out=run_start[1:])
    starts = np.where(run_start, np.arange(n, dtype=np.int32), np.int32(0))
    np.maximum.accumulate(starts, out=starts)
    return order, sidx, run_start, starts


def mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.common.bitops.mix64` (splitmix64 finalizer).

    Operates on (and returns) ``uint64`` arrays; multiplication wraps
    modulo 2**64 exactly like the scalar ``& _U64`` masking.
    """
    v = values.astype(np.uint64, copy=True)
    v ^= v >> np.uint64(30)
    v *= _MIX_M1
    v ^= v >> np.uint64(27)
    v *= _MIX_M2
    v ^= v >> np.uint64(31)
    return v


# perf: allow(REPRO401): per-trace staging, runs once per batch
def packed_history_series(
    outcomes: np.ndarray, bits: int, seed: int = 0
) -> np.ndarray:
    """Per-event packed outcome history, as seen *before* each event.

    Returns ``H`` (uint64) with ``H[i]`` = the ``bits`` most recent
    outcomes before event ``i`` packed newest-at-bit-0 — the register a
    scalar predictor maintains as ``h = ((h << 1) | taken) & mask``.
    ``seed`` is the register value before event 0 (for mid-trace resume).
    """
    n = len(outcomes)
    if bits <= 0 or bits > 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    # Accumulate in the narrowest lane that holds ``bits`` — the shift-OR
    # loop below runs ``bits`` times over the whole array, so lane width
    # is the dominant cost.
    dtype = np.uint16 if bits <= 16 else np.uint32 if bits <= 32 else np.uint64
    ext = np.zeros(n + bits, dtype=dtype)
    ext[bits:] = outcomes
    for j in range(bits):
        ext[bits - 1 - j] = (seed >> j) & 1
    out = np.zeros(n, dtype=dtype)
    for j in range(bits):
        out |= ext[bits - 1 - j : bits - 1 - j + n] << dtype(j)
    return out.astype(np.uint64)


# perf: allow(REPRO401): per-chunk staging, runs once per kernel chunk
def history_windows(values: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Per-event contents of a shift register, as seen *before* each event.

    The register holds ``len(seed)`` values, newest first, and each
    event pushes its entry of ``values``.  ``W[i, j]`` is the value
    pushed ``j + 1`` events before event ``i`` (``seed[j - i]`` when
    that is before event 0), and the extra last row ``W[n]`` is the
    register after the last push, the state a kernel writes back.
    The result (``n + 1`` C-contiguous rows) has ``seed``'s dtype.
    """
    seed = np.asarray(seed)
    length = len(seed)
    ext = np.empty(len(values) + length, dtype=seed.dtype)
    # seed[j] was pushed j+1 events before event 0: the newest seed
    # value sits right before event 0 in the extended timeline.
    ext[:length] = seed[::-1]
    ext[length:] = values
    return sliding_window_view(ext, length)[:, ::-1].copy()


def signed_history_matrix(
    outcomes: np.ndarray, length: int, seed: np.ndarray | None = None
) -> np.ndarray:
    """Per-event ±1 history matrix, as seen *before* each event.

    ``M[i, j]`` is the ±1 outcome of the branch ``j + 1`` events before
    event ``i`` — the perceptron's ``self._history`` at predict time —
    and ``M[n]`` is the history after the last event
    (:func:`history_windows`).  ``seed`` is the history vector before
    event 0 (defaults to the perceptron's all-ones power-on state).
    """
    signed = np.multiply(outcomes, 2, dtype=np.int32)
    signed -= 1
    if seed is None:
        seed = np.ones(length, dtype=np.int32)
    return history_windows(signed, np.asarray(seed, dtype=np.int32))


# Elements per temporary in folded_history_block: register groups are
# sized to it, so the temporaries stay cache-sized (a 20,000-event
# segment folds one register at a time, a campaign-length one all of
# them in one pass).
_FOLD_BLOCK_ELEMENTS = 1 << 14


# perf: allow(REPRO401, REPRO402): per-trace staging, runs once per batch
def folded_history_block(
    history: np.ndarray,
    prior: int,
    lengths,
    widths,
    seeds,
) -> np.ndarray:
    """Per-event values of many :class:`FoldedHistory` registers at once.

    ``history`` is one outcome stream: ``prior`` outcomes pushed before
    the segment (oldest first, zeros standing in for pushes that never
    happened) followed by the segment's own outcomes.  Register ``r``
    folds the last ``lengths[r] <= prior`` outcomes to ``widths[r] <=
    16`` bits and holds ``seeds[r]`` before the segment.  Returns ``F``
    (uint16, one row per register) where ``F[r, i]`` is register ``r``
    *after* pushing segment outcome ``i``.

    The recurrence ``f = rotl(f, 1) ^ incoming ^ (outgoing << (length %
    width))`` is linear over GF(2): de-rotating each per-push term by
    its push index turns a register's whole series into one prefix-XOR
    scan, and rows with their own width rotate side by side.
    """
    history = np.asarray(history, dtype=np.uint32)
    n = len(history) - prior
    count = len(lengths)
    result = np.empty((count, max(n, 0)), dtype=np.uint16)
    if n <= 0:
        return result
    incoming = history[prior:]
    pushes = np.arange(1, n + 1, dtype=np.uint32)
    step = max(1, _FOLD_BLOCK_ELEMENTS // n)
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        length = np.asarray(lengths[lo:hi], dtype=np.int64)
        width = np.asarray(widths[lo:hi], dtype=np.uint32)[:, None]
        # The bit leaving register r's window at push i was pushed
        # ``length`` pushes earlier: a shifted slice of the stream.
        outgoing = np.stack([history[prior - d : prior - d + n] for d in length.tolist()])
        terms = incoming ^ (outgoing << (length[:, None] % width).astype(np.uint32))
        wmask = (np.uint32(1) << width) - np.uint32(1)
        shift = pushes % width
        back = (width - shift) % width
        terms = ((terms >> shift) | (terms << back)) & wmask
        np.bitwise_xor.accumulate(terms, axis=1, out=terms)
        terms ^= np.asarray(seeds[lo:hi], dtype=np.uint32)[:, None]
        result[lo:hi] = ((terms << shift) | (terms >> back)) & wmask
    return result
