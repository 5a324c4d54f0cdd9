"""Hybrid vectorized kernel for BF-Neural (the bias-free substrate).

BF-Neural cannot be replayed by a pure array scan the way the counter
tables can: the perceptron weight updates of one non-biased event feed
the accumulator of the next.  But *everything else* about a trace
segment is outcome-only — independent of the weights — and therefore
computable up front with numpy:

* the BST status stream (the deterministic Figure-5 FSM per table entry
  is an absorbing chain: biased until the first disagreement, non-biased
  forever after — a segmented prefix-OR over disagreement flags);
* which events record into the recency stack (non-biased after observe),
  hence the full RS content at every prediction point: one python pass,
  :func:`recency_rows`, gives the stack after every record, and each
  event reads the row before its own record;
* the unfiltered history: packed recent bits, path registers, and the
  whole folded-history ladder (via the prefix-XOR closed form in
  ``repro.common.tablestate``);
* consequently every Wm row hash, every Wrs index hash, and every sign
  these components will ever use.

What remains sequential is the weight-table read/update chain itself, so
the kernel walks a python loop over *only* the events that touch weights
(non-biased predictions plus the rare biased-to-non-biased transition
trainings — typically a third of the trace), each step reduced to one
``take`` + dot over a precomputed index row into a single weight arena.
Biased and not-found events never enter the loop at all.  The weights
and θ train on the neural prediction, never on the loop predictor's
override, so the loop predictor runs afterwards over the non-biased
events: :func:`loop_replay`, the one replay of the loop table and its
``WITHLOOP`` counter, shared with the TAGE kernel.

The index and sign rows are ``1 + ht + rs_depth`` lanes per
weight-touching event, so they are built and replayed a chunk of
:data:`_CHUNK` stack records at a time (every weight-touching event
records): the stack, θ and its counter carry from chunk to chunk, and
the weight arena is staged once per call and written back once.  A
call's memory then stays bounded whatever the segment length; only the
per-event status, history and prediction arrays grow with it.

Exactness notes:

* the weight arena concatenates Wb | Wm | Wrs so the scalar update rule
  (add ±1, clamp to the 6-bit range) is one vectorized expression; a
  trailing dummy slot absorbs recency-stack padding lanes (sign 0);
* two RS entries can hash to the same Wrs index; the scalar core updates
  them sequentially (each add clamps before the next), which differs
  from a batched add under saturation.  Rows with duplicate indices are
  flagged during planning and updated by a scalar fallback loop;
* adaptive theta and the prediction scratch registers are replayed
  with exact scalar semantics inside the event loop, and the loop
  predictor and ``WITHLOOP`` in :func:`loop_replay`, so ``state_hash()``
  matches the scalar oracle bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.common.tablestate import (
    entry_runs,
    folded_history_block,
    mix64_array,
    packed_history_series,
    ring_history,
    ring_write,
)
from repro.core.bst import BranchStatus
from repro.core.recency_stack import RSEntry
from repro.predictors.base import hot_path

_PROVIDERS = ("default", "bst", "neural", "loop")
_STATUSES = tuple(BranchStatus)

#: Records per chunk of the weight replay: bounds the per-event index,
#: sign and hash rows (``1 + ht + rs_depth`` lanes each) held at once,
#: whatever the segment length.
_CHUNK = 256


# ---------------------------------------------------------------------------
# The loop predictor, shared with the TAGE kernel (tagekernel.py): every
# event's skewed (set, tag) per way from one vectorized hash, and the one
# replay of the loop table and its host's WITHLOOP counter.
# ---------------------------------------------------------------------------


def loop_rows(loop, pcs: np.ndarray) -> tuple[list, list]:
    """Per event, the set and the tag of its pc in every way (lists of
    per-way lists): ``LoopPredictor._slots`` for a whole pc array."""
    hashed = mix64_array(pcs[:, None] + np.array(loop._way_skews, dtype=np.uint64)[None, :])
    sets = (hashed % np.uint64(loop.sets)).astype(np.int64).tolist()
    tags = ((hashed >> np.uint64(20)) & np.uint64((1 << loop.tag_bits) - 1)).astype(
        np.int64
    ).tolist()
    return sets, tags


# perf: allow(REPRO401): two result lists per call (a chunk), not per event
def loop_replay(loop, sets, tags, outcomes, compared, preds, withloop: int) -> tuple:
    """Replay ``loop`` and its host's ``WITHLOOP`` counter over events the
    host core has already run.

    No host core reads loop state: it trains on its own prediction
    (``compared``), never on the loop's override, so the loop can run
    after it.  Per event (``sets``/``tags`` from :func:`loop_rows`) this
    is ``lookup``, the override of ``preds`` (after any statistical
    corrector) when the loop is confident and ``withloop >= 0``, the
    ``WITHLOOP`` update when the loop disagreed with ``compared``, and
    ``update(allocate=final != taken)``, on the loop's own field lists.
    Returns ``(overrides, finals, withloop, (loop_pred, loop_valid))``,
    the scratch of the last event.
    """
    ltag, lpast, lcur = loop._tags, loop._past, loop._current
    lconf, lage, lvalid = loop._confidence, loop._age, loop._valid
    ways = range(loop.ways)
    conf_max, age_max, trip_max = loop.CONFIDENCE_MAX, loop.AGE_MAX, loop.TRIP_MAX
    overrides: list[bool] = []
    finals: list[bool] = []
    add_override = overrides.append
    add_final = finals.append
    loop_pred = loop_valid = False
    for st, tg, taken, host, pred in zip(sets, tags, outcomes, compared, preds):
        found = -1
        for wy in ways:
            si = st[wy]
            if lvalid[si][wy] and ltag[si][wy] == tg[wy]:
                found = wy
                break
        # ``si`` is the found entry's set from here on.
        loop_valid = found >= 0 and lconf[si][found] >= conf_max
        override = False
        if loop_valid:
            loop_pred = lcur[si][found] != lpast[si][found]
            if withloop >= 0:
                pred = loop_pred
                override = True
            if loop_pred != host:
                if loop_pred == taken:
                    if withloop < 63:
                        withloop += 1
                elif withloop > -64:
                    withloop -= 1
        else:
            loop_pred = True
        add_override(override)
        add_final(pred)
        if found >= 0:
            cur = lcur[si]
            if taken:
                cur[found] += 1
                if cur[found] > trip_max:
                    lvalid[si][found] = False
            else:
                if cur[found] == lpast[si][found]:
                    if lconf[si][found] < conf_max:
                        lconf[si][found] += 1
                    if lage[si][found] < age_max:
                        lage[si][found] += 1
                else:
                    lpast[si][found] = cur[found]
                    lconf[si][found] = 0
                cur[found] = 0
        elif not taken and pred:
            # A mispredicted exit allocates: an invalid way, else the
            # first way whose age has decayed to zero.
            victim = -1
            for wy in ways:
                if not lvalid[st[wy]][wy]:
                    victim = wy
                    break
            if victim < 0:
                for wy in ways:
                    si = st[wy]
                    if lage[si][wy] == 0:
                        victim = wy
                        break
                    lage[si][wy] -= 1
            if victim >= 0:
                si = st[victim]
                ltag[si][victim] = tg[victim]
                lpast[si][victim] = 0
                lcur[si][victim] = 0
                lconf[si][victim] = 0
                lage[si][victim] = age_max
                lvalid[si][victim] = True
    return overrides, finals, withloop, (loop_pred, loop_valid)


# ---------------------------------------------------------------------------
# Shared with the TAGE kernel (tagekernel.py): the deterministic BST's
# status stream, the provider numbering and the one recency-stack pass.
# ---------------------------------------------------------------------------


# perf: allow(REPRO401): numpy slices are views; runs once per segment or chunk
def bst_stream(bst, pcs: np.ndarray, outs: np.ndarray) -> tuple:
    """Every event's BST status, resolved in closed form.

    The deterministic Figure-5 FSM of each table entry is an absorbing
    chain: biased (in the recorded direction, or the first outcome for
    an entry starting ``NOT_FOUND``) until the first disagreeing
    outcome, non-biased forever after.  Grouping the events by entry
    makes that a segmented prefix-OR over disagreement flags.

    Returns ``(status_before, nb_after, final)``: each event's status
    (uint8) before its ``observe``, whether it is non-biased after it,
    and the final status of every entry the events touch, which
    :func:`write_back_bst` installs.  Reads only those entries.
    """
    n = len(pcs)
    bidx = (pcs & np.uint64(bst.entries - 1)).astype(
        np.uint16 if bst.entries <= (1 << 16) else np.uint32
    )
    order, sidx, first, starts = entry_runs(bidx)
    souts = outs[order]

    # One read per distinct BST index, spread over its events by group.
    group = np.cumsum(first, dtype=np.int64)
    touched = sidx[first].tolist()
    init = np.fromiter(
        map(bst._state.__getitem__, touched), np.uint8, count=len(touched)
    )[group - 1]
    first_out = souts[starts]
    dir_ = np.where(init == 1, 1, np.where(init == 2, 0, first_out)).astype(np.uint8)
    disagree = souts != dir_
    disagree &= ~((init == 0) & first)  # first sighting only records
    running = np.maximum.accumulate(group * 2 + disagree)
    nb_after_s = (running - group * 2) == 1
    nb_after_s |= init == 3
    nb_before_s = np.empty(n, dtype=bool)
    nb_before_s[0] = False
    nb_before_s[1:] = nb_after_s[:-1]
    nb_before_s[first] = (init == 3)[first]

    status_before_s = np.where(dir_ == 1, 1, 2).astype(np.uint8)
    status_before_s[nb_before_s] = 3
    status_before_s[(init == 0) & first] = 0
    status_before = np.empty(n, dtype=np.uint8)
    status_before[order] = status_before_s
    nb_after = np.empty(n, dtype=bool)
    nb_after[order] = nb_after_s

    seg_end = np.empty(n, dtype=bool)
    seg_end[-1] = True
    np.copyto(seg_end[:-1], first[1:])
    init_end = init[seg_end]
    final_status = np.where(
        nb_after_s[seg_end],
        3,
        np.where(init_end == 0, np.where(first_out[seg_end] == 1, 1, 2), init_end),
    )
    return status_before, nb_after, (sidx[seg_end], final_status)


def write_back_bst(bst, final: tuple) -> None:
    """Install :func:`bst_stream`'s final entry statuses into ``bst``."""
    state = bst._state
    for index, status in zip(final[0].tolist(), final[1].tolist()):
        state[index] = _STATUSES[status]


# perf: allow(REPRO401): names of one segment, renumbered once per call
def first_appearance(codes: np.ndarray, names: tuple) -> tuple:
    """``(codes, names)`` renumbered in order of first appearance, as the
    scalar runner numbers them (names that never appear drop out)."""
    present, first = np.unique(codes, return_index=True)
    order = present[np.argsort(first)].tolist()
    renumber = np.zeros(len(names), dtype=codes.dtype)
    renumber[order] = np.arange(len(order))
    return renumber[codes], [names[code] for code in order]


# perf: allow(REPRO401): the one python pass over a batch's stack records
def recency_rows(pcs: list, depth: int, dedup: bool) -> np.ndarray:
    """Row ``j`` is a ``depth``-deep recency stack after the first ``j``
    records of ``pcs`` (``RecencyStack.record``, with or without
    ``dedup``): their indices, newest first, padded with ``len(pcs)``.
    Replaying a stack's own entries, oldest first, seeds it."""
    n = len(pcs)
    pad = [n] * depth
    flat = pad[:]
    stack: list[int] = []
    insert, remove, pop = stack.insert, stack.remove, stack.pop
    latest: dict[int, int] = {}
    occurrence = latest.get
    for j, pc in enumerate(pcs):
        if dedup:
            prev = occurrence(pc)
            if prev is not None:
                remove(prev)
            latest[pc] = j
        insert(0, j)
        if len(stack) > depth:
            dead = pop()
            if dedup:
                del latest[pcs[dead]]
        flat += stack
        flat += pad[len(stack) :]
    return np.array(flat, dtype=np.int32).reshape(n + 1, depth)


def _whole_arena(predictor) -> np.ndarray:
    """Wb, Wm and Wrs converted whole into the arena layout every index
    row addresses: Wb | Wm (row-major) | Wrs | a dummy slot."""
    cfg = predictor.config
    wm_off = cfg.bias_entries
    wrs_off = wm_off + cfg.wm_rows * cfg.ht
    dummy = wrs_off + cfg.wrs_entries
    arena = np.empty(dummy + 1, dtype=np.int32)
    arena[:wm_off] = predictor._wb
    arena[wm_off:wrs_off] = np.asarray(predictor._wm, dtype=np.int32).ravel()
    arena[wrs_off:dummy] = predictor._wrs
    arena[dummy] = 0
    return arena


# perf: allow(REPRO401): per-trace staging, runs once per batch
def _stage_weights(predictor, aidx: np.ndarray) -> tuple:
    """Gather the weights that the index rows ``aidx`` (whole-table
    layout) use into one arena.

    Returns the arena (the touched slots in layout order, then the
    dummy), the rows remapped onto it, and the touched Wb indices, Wm
    rows and Wrs indices :func:`_write_back_weights` scatters it back
    to: staging and writeback scale with the segment, not the tables.
    """
    cfg = predictor.config
    ht = cfg.ht
    wm_off = cfg.bias_entries
    wrs_off = wm_off + cfg.wm_rows * ht
    dummy = wrs_off + cfg.wrs_entries
    used = np.zeros(dummy + 1, dtype=bool)
    used[aidx.ravel()] = True
    used[dummy] = True
    # Wm is staged in whole rows (one list each in the predictor).
    wm_used = used[wm_off:wrs_off].reshape(cfg.wm_rows, ht)
    wm_used |= wm_used.any(axis=1)[:, None]
    slots = np.flatnonzero(used)
    nb, nm, nr = np.searchsorted(slots, (wm_off, wrs_off, dummy)).tolist()
    touched = (
        slots[:nb].tolist(),
        ((slots[nb:nm:ht] - wm_off) // ht).tolist(),
        (slots[nm:nr] - wrs_off).tolist(),
    )
    wb_slots, wm_rows, wrs_slots = touched
    staged = list(map(predictor._wb.__getitem__, wb_slots))
    wm = predictor._wm
    for row in wm_rows:
        staged += wm[row]
    staged += map(predictor._wrs.__getitem__, wrs_slots)
    staged.append(0)
    remap = np.cumsum(used, dtype=np.intp)
    remap -= 1
    return np.array(staged, dtype=np.int32), remap[aidx], touched


# perf: allow(REPRO401): per-trace writeback, runs once per batch
def _write_back_weights(predictor, arena: np.ndarray, touched: tuple | None) -> None:
    """Scatter an arena back into Wb, Wm and Wrs: a
    :func:`_stage_weights` arena slot by slot, a :func:`_whole_arena`
    one (``touched`` is None) table by table."""
    cfg = predictor.config
    if touched is None:
        wm_off = cfg.bias_entries
        wrs_off = wm_off + cfg.wm_rows * cfg.ht
        predictor._wb = arena[:wm_off].tolist()
        predictor._wm = arena[wm_off:wrs_off].reshape(cfg.wm_rows, cfg.ht).tolist()
        predictor._wrs = arena[wrs_off:-1].tolist()
        return
    wb_slots, wm_rows, wrs_slots = touched
    weights = arena.tolist()
    wb = predictor._wb
    for slot, value in zip(wb_slots, weights):
        wb[slot] = value
    ht = cfg.ht
    lo = len(wb_slots)
    wm = predictor._wm
    for row in wm_rows:
        wm[row] = weights[lo : lo + ht]
        lo += ht
    wrs = predictor._wrs
    for slot, value in zip(wrs_slots, weights[lo:]):
        wrs[slot] = value


# perf: allow(REPRO402): dtype lookups amortize over the whole column fold
def _chunk_fold(values: np.ndarray, width: int, source_bits: int) -> np.ndarray:
    """Vectorized :func:`repro.common.bitops.fold_bits` over an array."""
    wmask = np.uint32((1 << width) - 1)
    v = values.astype(np.uint32)
    folded = v & wmask
    passes = (source_bits - 1) // width if source_bits > width else 0
    for _ in range(passes):
        v >>= np.uint32(width)
        folded ^= v & wmask
    return folded


class BFNeuralKernel:
    """Vectorized-precompute / sparse-replay kernel for ``BFNeural``."""

    def supports(self, predictor) -> bool:
        cfg = predictor.config
        return not cfg.probabilistic_bst and 1 <= cfg.ht <= 16

    @hot_path  # perf: allow(REPRO401, REPRO402): staging runs per chunk, not per event
    def run(self, predictor, pcs, outcomes, start: int, end: int):
        n = end - start
        if n == 0:
            return np.zeros(0, dtype=bool), (np.zeros(0, dtype=np.uint8), _PROVIDERS)
        cfg = predictor.config
        pc_seg = pcs[start:end]
        outs = outcomes[start:end]

        bst = predictor.bst
        status_before, nb_after, bst_final = bst_stream(bst, pc_seg, outs)
        nb_before = status_before == 3

        # Vectorized predictions for every event the weights never see.
        preds = status_before == 1
        if cfg.default_prediction:
            preds = preds | (status_before == 0)
        prov = np.where(status_before == 0, 0, 1).astype(np.uint8)

        # ------------------------------------------------------------------
        # Unfiltered history series (before-event views).
        # ------------------------------------------------------------------
        ht = cfg.ht
        width = predictor._folds.width
        h64 = packed_history_series(outs, 64, seed=predictor._recent_bits)
        r16 = (h64 & np.uint64(0xFFFF)).astype(np.uint16)
        ext_paths = np.empty(n + ht, dtype=np.uint64)
        for j in range(ht):
            ext_paths[ht - 1 - j] = predictor._recent_paths[j]
        np.bitwise_and(pc_seg, np.uint64(0xFFFF), out=ext_paths[ht:])

        # ------------------------------------------------------------------
        # Folded-history ladder via the prefix-XOR closed form.  The final
        # register values are always needed for writeback (the scalar train
        # path pushes every outcome regardless of flags); the per-event
        # before-values only when Wrs index hashes fold distances.
        # ------------------------------------------------------------------
        folds = predictor._folds
        ring = folds.ring
        depths = folds.depths
        deepest = depths[-1]
        usable = min(len(ring), deepest)
        history = np.zeros(deepest + n, dtype=np.uint32)
        if usable:
            history[deepest - usable : deepest] = ring_history(ring._buf, ring._head)[
                ring.capacity - usable :
            ]
        history[deepest:] = outs
        series = folded_history_block(
            history, deepest, depths, [width] * len(depths), folds.values
        )
        del history
        fold_final = series[:, -1].tolist()

        # ------------------------------------------------------------------
        # Recency-stack records.  Which events record is status-pure, so
        # the record stream is a precomputable log (address, stamp, sign):
        # the stack's own entries oldest first, then the segment's
        # records.  Log slot ``m`` is the rows' pad: sign 0, so padded
        # lanes never contribute.
        # ------------------------------------------------------------------
        rs = predictor.rs
        base_clock = rs._clock
        record_mask = nb_after if cfg.filter_biased_history else np.ones(n, dtype=bool)
        ridx = np.flatnonzero(record_mask)
        seed = rs._entries[::-1]
        k0 = len(seed)
        records = len(ridx)
        m = k0 + records
        log_pc = np.empty(m + 1, dtype=np.uint64)
        log_stamp = np.empty(m + 1, dtype=np.int64)
        log_sign = np.empty(m + 1, dtype=np.int32)
        log_pc[:k0] = [e.address for e in seed]
        log_stamp[:k0] = [e.stamp for e in seed]
        log_sign[:k0] = [1 if e.outcome else -1 for e in seed]
        log_pc[k0:m] = pc_seg[ridx]
        log_stamp[k0:m] = base_clock + ridx + 1
        log_sign[k0:m] = outs[ridx].astype(np.int32) * 2 - 1
        log_pc[m] = 0
        log_stamp[m] = -(1 << 40)
        log_sign[m] = 0

        # ------------------------------------------------------------------
        # The weight-touching events: non-biased predictions, and biased
        # ones turning non-biased (their first lesson).  Each records, so
        # the replay runs a chunk of :data:`_CHUNK` records at a time: one
        # :func:`recency_rows` pass, seeded with the stack the last chunk
        # left, gives the stack after every record, each weight-touching
        # event gathers the row before its own record, and its index and
        # sign rows replay against one weight arena.  ``theta``, ``tc``
        # and the stack carry across chunks; the arena is staged once.
        # ------------------------------------------------------------------
        cidx = np.flatnonzero(nb_before | nb_after)
        record_of = (np.cumsum(record_mask) - record_mask)[cidx]
        isnb = nb_before[cidx]
        taken = outs[cidx] == 1
        arena = touched = last = None
        if records > _CHUNK:
            arena = _whole_arena(predictor)
        rsd = cfg.rs_depth
        lane = 1 + ht + rsd
        use_fold = cfg.use_folded_hist
        cols = np.arange(ht, dtype=np.int64)
        depth_mask = (np.uint32(1) << np.arange(1, ht + 1, dtype=np.uint32)) - 1
        depths_arr = np.array(depths, dtype=np.int64)
        wm_off = cfg.bias_entries
        wrs_off = wm_off + cfg.wm_rows * ht
        wmax = predictor._wmax
        wmin = predictor._wmin
        theta = predictor.theta
        tc = predictor._tc
        adaptive = cfg.adaptive_theta
        minimum = np.minimum
        maximum = np.maximum
        acc = 0
        loop = predictor.loop
        loop_valid = False
        stack = list(range(k0 - 1, -1, -1))  # log indices, newest first
        for r_lo in range(0, records, _CHUNK):
            r_hi = min(records, r_lo + _CHUNK)
            feed = stack[::-1] + list(range(k0 + r_lo, k0 + r_hi))
            passed = recency_rows(log_pc[feed].tolist(), rsd, rs.dedup)
            log_of = np.array(feed + [m], dtype=np.int64)
            rows = log_of[passed[len(stack) :]]
            stack = [j for j in rows[-1].tolist() if j != m]
            c_lo, c_hi = np.searchsorted(record_of, (r_lo, r_hi)).tolist()
            if c_lo == c_hi:
                continue
            cc = cidx[c_lo:c_hi]
            nc = c_hi - c_lo
            pc_c = pc_seg[cc]
            bias_idx = (pc_c & np.uint64(cfg.bias_entries - 1)).astype(np.int64)

            # Wm: per-event path registers, small-window folds, row hashes.
            path_mat = ext_paths[(cc[:, None] + (ht - 1)) - cols[None, :]]
            rc = r16[cc]
            key = pc_c[:, None] ^ path_mat
            if use_fold:
                small = rc[:, None].astype(np.uint32) & depth_mask[None, :]
                key ^= _chunk_fold(small, width, ht).astype(np.uint64) << np.uint64(5)
            key ^= cols.astype(np.uint64)[None, :] << np.uint64(24)
            wm_rows_mat = (
                mix64_array(key.ravel()) & np.uint64(cfg.wm_rows - 1)
            ).astype(np.int64).reshape(nc, ht)

            # Wrs: each event's stack before its own record, distances,
            # quantization, per-distance folds, index hashes.
            idx_mat = rows[record_of[c_lo:c_hi] - r_lo]
            del rows
            pad = idx_mat == m
            cnt = rsd - np.count_nonzero(pad, axis=1)
            h_mat = log_sign[idx_mat]
            dist = np.minimum(base_clock + cc[:, None] - log_stamp[idx_mat], cfg.position_cap)
            key = pc_c[:, None] ^ log_pc[idx_mat]
            if cfg.use_positional:
                exp = (np.frexp(dist.astype(np.float64))[1] - 1).astype(np.int64)
                sub = (dist >> np.maximum(exp - 2, 0)) & 3
                quant = np.where(dist < 4, dist, exp * 4 + sub)
                key ^= quant.astype(np.uint64) << np.uint64(13)
            if use_fold:
                ladder = series.T[np.maximum(cc - 1, 0)]
                ladder[cc == 0] = folds.values
                shift = np.minimum(dist, 16).astype(np.uint32)
                small_v = rc[:, None].astype(np.uint32) & (
                    (np.uint32(1) << shift) - 1
                )
                fold_small = _chunk_fold(small_v, width, 16)
                slot = np.clip(
                    np.searchsorted(depths_arr, dist.ravel(), side="right") - 1,
                    0,
                    len(depths) - 1,
                ).reshape(nc, rsd)
                fold_large = np.take_along_axis(ladder, slot, axis=1)
                fold_dist = np.where(dist <= 16, fold_small, fold_large)
                key ^= fold_dist.astype(np.uint64) << np.uint64(21)
            widx_raw = (
                mix64_array(key.ravel()) & np.uint64(cfg.wrs_entries - 1)
            ).astype(np.int64).reshape(nc, rsd)
            # Duplicate Wrs indices within one event need the scalar
            # sequential-clamp update; give padding lanes unique sentinels
            # so they never trip the detector.
            probe = np.where(pad, cfg.wrs_entries + np.arange(rsd)[None, :], widx_raw)
            probe.sort(axis=1)
            dup = np.any(probe[:, 1:] == probe[:, :-1], axis=1)

            # Index rows into the whole-table layout Wb | Wm (row-major) |
            # Wrs | dummy slot (padding RS lanes point at the dummy), and
            # their signs.
            aidx = np.empty((nc, lane), dtype=np.int64)
            aidx[:, 0] = bias_idx
            aidx[:, 1 : 1 + ht] = wm_off + wm_rows_mat * ht + cols[None, :]
            aidx[:, 1 + ht :] = np.where(pad, wrs_off + cfg.wrs_entries, wrs_off + widx_raw)
            signs = np.empty((nc, lane), dtype=np.int32)
            signs[:, 0] = 1
            signs[:, 1 : 1 + ht] = (
                (rc[:, None] >> cols.astype(np.uint16)[None, :]) & 1
            ).astype(np.int32) * 2 - 1
            signs[:, 1 + ht :] = h_mat
            k = int(cnt[-1])
            last = (
                int(bias_idx[-1]),
                wm_rows_mat[-1].tolist(),
                signs[-1, 1 : 1 + ht].tolist(),
                widx_raw[-1, :k].tolist(),
                h_mat[-1, :k].tolist(),
            )
            if arena is None:
                arena, aidx, touched = _stage_weights(predictor, aidx)

            # Sequential replay of the chunk's weight-touching events.
            nb_preds: list[bool] = []
            add_pred = nb_preds.append
            arena_take = arena.take
            for arow, srow, is_nb, is_taken, is_dup, k_rs in zip(
                aidx, signs, isnb[c_lo:c_hi].tolist(), taken[c_lo:c_hi].tolist(),
                dup.tolist(), cnt.tolist(),
            ):
                w = arena_take(arow)
                acc = int(w.dot(srow))
                t = 1 if is_taken else -1
                update = False
                if is_nb:
                    neural_pred = acc >= 0
                    add_pred(neural_pred)
                    neural_wrong = neural_pred != is_taken
                    if neural_wrong or (acc if acc >= 0 else -acc) <= theta:
                        update = True
                        if adaptive:
                            if neural_wrong:
                                tc += 1
                                if tc >= 7:
                                    tc = 0
                                    if theta < 255:
                                        theta += 1
                            else:
                                tc -= 1
                                if tc <= -7:
                                    tc = 0
                                    if theta > 1:
                                        theta -= 1
                else:
                    # Biased branch that just turned non-biased: first lesson.
                    update = True
                if update:
                    if is_dup:
                        for j in range(1 + ht + k_rs):
                            ai = int(arow[j])
                            value = int(arena[ai]) + t * int(srow[j])
                            arena[ai] = (
                                wmax
                                if value > wmax
                                else (wmin if value < wmin else value)
                            )
                    else:
                        if t == 1:
                            w += srow
                        else:
                            w -= srow
                        minimum(w, wmax, out=w)
                        maximum(w, wmin, out=w)
                        arena[arow] = w
            if not nb_preds:
                continue
            predictor._last_neural_pred = nb_preds[-1]
            nb_sel = cc[isnb[c_lo:c_hi]]
            preds[nb_sel] = nb_preds
            prov[nb_sel] = 2
            # The loop predictor overrides non-biased predictions only,
            # and no weight reads it: replay it over them afterwards.
            if loop is not None:
                overrides, finals, predictor._withloop, scratch = loop_replay(
                    loop,
                    *loop_rows(loop, pc_seg[nb_sel]),
                    outs[nb_sel].tolist(),
                    nb_preds,
                    nb_preds,
                    predictor._withloop,
                )
                preds[nb_sel] = finals
                prov[nb_sel[np.array(overrides, dtype=bool)]] = 3
                predictor._last_loop_pred, loop_valid = scratch

        # ------------------------------------------------------------------
        # Write the final state back through the scalar representations.
        # ------------------------------------------------------------------
        write_back_bst(bst, bst_final)

        rs._entries = [
            RSEntry(address=int(log_pc[j]), stamp=int(log_stamp[j]), outcome=bool(log_sign[j] > 0))
            for j in stack
        ]
        rs._clock = base_clock + n

        if arena is not None:
            _write_back_weights(predictor, arena, touched)
        predictor.theta = theta
        predictor._tc = tc

        predictor._recent_bits = ((int(h64[-1]) << 1) | int(outs[-1])) & (
            (1 << 64) - 1
        )
        old_paths = predictor._recent_paths
        predictor._recent_paths = [
            int(pc_seg[n - 1 - j]) & 0xFFFF if j < n else old_paths[j - n]
            for j in range(ht)
        ]

        folds.values[:] = fold_final
        ring._head = ring_write(ring._buf, ring._head, outs)
        ring._count = min(ring._count + n, ring.capacity)

        last_i = n - 1
        predictor._last_status = _STATUSES[int(status_before[last_i])]
        predictor._last_pred = bool(preds[last_i])
        predictor._last_provider = _PROVIDERS[int(prov[last_i])]
        predictor._last_used_weights = bool(nb_before[last_i])
        predictor._last_loop_valid = bool(nb_before[last_i]) and loop_valid
        if last is not None:
            predictor._last_accum = acc
            (
                predictor._last_bias_index,
                predictor._last_wm_rows,
                predictor._last_wm_signs,
                predictor._last_wrs_idx,
                predictor._last_wrs_signs,
            ) = last

        return preds, first_appearance(prov, _PROVIDERS)
