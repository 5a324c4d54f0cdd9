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
  hence the full RS content at every prediction point;
* the unfiltered history: packed recent bits, path registers, and the
  whole folded-history ladder (via the prefix-XOR closed form in
  ``repro.common.tablestate``);
* consequently every Wm row hash, every Wrs index hash, and every sign
  these components will ever use.

What remains sequential is the weight-table read/update chain itself, so
the kernel walks a python loop over *only* the events that touch weights
(non-biased predictions plus the rare biased-to-non-biased transition
trainings — typically a third of the trace), each step reduced to one
``take`` + dot over a precomputed index row into a single weight arena,
plus an inlined loop-predictor update.  Biased and not-found events
never enter the loop at all.

Exactness notes:

* the weight arena concatenates Wb | Wm | Wrs so the scalar update rule
  (add ±1, clamp to the 6-bit range) is one vectorized expression; a
  trailing dummy slot absorbs recency-stack padding lanes (sign 0);
* two RS entries can hash to the same Wrs index; the scalar core updates
  them sequentially (each add clamps before the next), which differs
  from a batched add under saturation.  Rows with duplicate indices are
  flagged during planning and updated by a scalar fallback loop;
* the loop predictor, adaptive theta, WITHLOOP counter and prediction
  scratch registers are replayed with exact scalar semantics inside the
  event loop, so ``state_hash()`` matches the scalar oracle bit for bit.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.common.tablestate import (
    folded_history_series,
    mix64_array,
    packed_history_series,
)
from repro.core.bst import BranchStatus
from repro.core.recency_stack import RSEntry
from repro.predictors.base import hot_path

_PROVIDERS = ("default", "bst", "neural", "loop")
_LOOP_SKEW = 0x517C_C1B7


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

    @hot_path  # perf: allow(REPRO401, REPRO402): staging runs per record batch
    def run(self, predictor, pcs, outcomes, start: int, end: int):
        n = end - start
        if n == 0:
            return np.zeros(0, dtype=bool), (np.zeros(0, dtype=np.uint8), _PROVIDERS)
        cfg = predictor.config
        pc_seg = pcs[start:end]
        outs = outcomes[start:end]

        # ------------------------------------------------------------------
        # BST status streams: group events by table entry and resolve the
        # absorbing FSM per group.  ``dir`` is the recorded bias direction
        # (the first outcome for entries starting NOT_FOUND); an entry is
        # non-biased from its first disagreeing outcome onwards.
        # ------------------------------------------------------------------
        bst = predictor.bst
        bst_mask = np.uint64(bst.entries - 1)
        bidx = (pc_seg & bst_mask).astype(
            np.uint16 if bst.entries <= (1 << 16) else np.uint32
        )
        order = np.argsort(bidx, kind="stable")
        sidx = bidx[order]
        souts = outs[order]
        seg_start = np.empty(n, dtype=bool)
        seg_start[0] = True
        np.not_equal(sidx[1:], sidx[:-1], out=seg_start[1:])
        positions = np.arange(n, dtype=np.int64)
        starts = np.where(seg_start, positions, 0)
        np.maximum.accumulate(starts, out=starts)
        pos = positions - starts

        s0 = np.fromiter((int(s) for s in bst._state), np.uint8, count=bst.entries)
        init = s0[sidx]
        first_out = souts[starts]
        dir_ = np.where(init == 1, 1, np.where(init == 2, 0, first_out)).astype(
            np.uint8
        )
        disagree = souts != dir_
        disagree &= ~((init == 0) & (pos == 0))  # first sighting only records
        group = np.cumsum(seg_start, dtype=np.int64)
        running = np.maximum.accumulate(group * 2 + disagree)
        nb_after_s = (running - group * 2) == 1
        nb_after_s |= init == 3
        nb_before_s = np.empty(n, dtype=bool)
        nb_before_s[0] = False
        nb_before_s[1:] = nb_after_s[:-1]
        nb_before_s[seg_start] = (init == 3)[seg_start]
        transition_s = nb_after_s & ~nb_before_s

        status_before_s = np.where(dir_ == 1, 1, 2).astype(np.uint8)
        status_before_s[nb_before_s] = 3
        status_before_s[(init == 0) & (pos == 0)] = 0

        status_before = np.empty(n, dtype=np.uint8)
        status_before[order] = status_before_s
        nb_before = np.empty(n, dtype=bool)
        nb_before[order] = nb_before_s
        nb_after = np.empty(n, dtype=bool)
        nb_after[order] = nb_after_s
        transition = np.empty(n, dtype=bool)
        transition[order] = transition_s

        seg_end = np.empty(n, dtype=bool)
        seg_end[-1] = True
        np.copyto(seg_end[:-1], seg_start[1:])
        final_bst_idx = sidx[seg_end]
        final_bst_status = np.where(
            nb_after_s[seg_end],
            3,
            np.where(
                init[seg_end] == 0,
                np.where(first_out[seg_end] == 1, 1, 2),
                init[seg_end],
            ),
        )

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

        comp = nb_before | transition
        cidx = np.flatnonzero(comp)
        nc = len(cidx)
        rsd = cfg.rs_depth
        use_fold = cfg.use_folded_hist
        pc_c = pc_seg[cidx]
        bias_idx = (pc_c & np.uint64(cfg.bias_entries - 1)).astype(np.int64)
        cols = np.arange(ht, dtype=np.int64)

        if nc:
            # Wm: per-event path registers, small-window folds, row hashes.
            ext_paths = np.empty(n + ht, dtype=np.uint64)
            for j in range(ht):
                ext_paths[ht - 1 - j] = predictor._recent_paths[j]
            np.bitwise_and(pc_seg, np.uint64(0xFFFF), out=ext_paths[ht:])
            path_mat = ext_paths[(cidx[:, None] + (ht - 1)) - cols[None, :]]
            rc = r16[cidx]
            key = pc_c[:, None] ^ path_mat
            if use_fold:
                depth_mask = ((np.uint32(1) << np.arange(1, ht + 1, dtype=np.uint32)) - 1)
                small = rc[:, None].astype(np.uint32) & depth_mask[None, :]
                fold_wm = _chunk_fold(small, width, ht)
                key ^= fold_wm.astype(np.uint64) << np.uint64(5)
            key ^= cols.astype(np.uint64)[None, :] << np.uint64(24)
            wm_rows_mat = (
                mix64_array(key.ravel()) & np.uint64(cfg.wm_rows - 1)
            ).astype(np.int64).reshape(nc, ht)
            signs_wm = ((rc[:, None] >> cols.astype(np.uint16)[None, :]) & 1).astype(
                np.int32
            ) * 2 - 1

        # ------------------------------------------------------------------
        # Folded-history ladder via the prefix-XOR closed form.  The final
        # register values are always needed for writeback (the scalar train
        # path pushes every outcome regardless of flags); the per-event
        # before-values only when Wrs index hashes fold distances.
        # ------------------------------------------------------------------
        folds = predictor._folds
        ring = folds.ring
        count0 = len(ring)
        depths = folds.depths
        fold_final = []
        want_ladder = bool(nc) and use_fold
        if want_ladder:
            ladder = np.empty((nc, len(depths)), dtype=np.uint16)
            cidx_prev = np.maximum(cidx - 1, 0)
            at_zero = cidx == 0
        for t, depth in enumerate(depths):
            usable = min(count0, depth)
            tail = np.array(
                [ring.at(k) for k in range(usable - 1, -1, -1)], dtype=np.uint16
            )
            seed_value = folds.values[t]
            series = folded_history_series(
                outs,
                depth,
                width,
                seed_value=seed_value,
                prior_tail=tail,
                prior_count=count0,
            )
            fold_final.append(int(series[-1]))
            if want_ladder:
                before = series[cidx_prev]
                before[at_zero] = seed_value
                ladder[:, t] = before
        depths_arr = np.array(depths, dtype=np.int64)

        # ------------------------------------------------------------------
        # Recency-stack evolution.  Which events record is status-pure, so
        # the record stream is a precomputable append-only log (address,
        # stamp, sign); the stack at any point is a depth-bounded dedup
        # window over it.  The replay loop therefore shuffles *log
        # indices* only — the per-event (A, stamp, H) matrices are three
        # vectorized gathers at the end.  Log slot ``m`` is a pad
        # sentinel: sign 0, so padded lanes never contribute.
        # ------------------------------------------------------------------
        rs = predictor.rs
        base_clock = rs._clock
        record_mask = nb_after if cfg.filter_biased_history else np.ones(n, dtype=bool)
        ridx = np.flatnonzero(record_mask)
        k0 = len(rs._entries)
        m = k0 + len(ridx)
        log_pc = np.empty(m + 1, dtype=np.uint64)
        log_stamp = np.empty(m + 1, dtype=np.int64)
        log_sign = np.empty(m + 1, dtype=np.int32)
        for j, e in enumerate(rs._entries):
            log_pc[j] = e.address
            log_stamp[j] = e.stamp
            log_sign[j] = 1 if e.outcome else -1
        log_pc[k0:m] = pc_seg[ridx]
        log_stamp[k0:m] = base_clock + ridx + 1
        log_sign[k0:m] = outs[ridx].astype(np.int32) * 2 - 1
        log_pc[m] = 0
        log_stamp[m] = -(1 << 40)
        log_sign[m] = 0
        lpcs = log_pc[:m].tolist()

        idx_mat = np.full((nc, rsd), m, dtype=np.int64)
        cnt = np.zeros(nc, dtype=np.int64)
        stack: list[int] = list(range(k0))  # log indices, newest first
        dedup = rs.dedup
        live: dict[int, int] = {}
        if dedup:
            for j in range(k0 - 1, -1, -1):
                live[lpcs[j]] = j
        ev = np.flatnonzero(comp | record_mask)
        ops = (comp[ev].astype(np.int8) + record_mask[ev].astype(np.int8) * 2).tolist()
        row = 0
        nxt = k0
        for op in ops:
            if op != 2:
                k = len(stack)
                if k:
                    idx_mat[row, :k] = stack
                cnt[row] = k
                row += 1
                if op == 1:
                    continue
            pc = lpcs[nxt]
            if dedup:
                prev = live.get(pc)
                if prev is not None:
                    stack.remove(prev)
                live[pc] = nxt
            stack.insert(0, nxt)
            if len(stack) > rsd:
                dead = stack.pop()
                if dedup and live.get(lpcs[dead]) == dead:
                    del live[lpcs[dead]]
            nxt += 1
        if nc:
            a_mat = log_pc[idx_mat]
            s_mat = log_stamp[idx_mat]
            h_mat = log_sign[idx_mat]

        if nc:
            # Wrs: distances, quantization, per-distance folds, index hashes.
            pad = np.arange(rsd, dtype=np.int64)[None, :] >= cnt[:, None]
            dist = np.minimum(
                base_clock + cidx[:, None] - s_mat, cfg.position_cap
            )
            key = pc_c[:, None] ^ a_mat
            if cfg.use_positional:
                exp = (np.frexp(dist.astype(np.float64))[1] - 1).astype(np.int64)
                sub = (dist >> np.maximum(exp - 2, 0)) & 3
                quant = np.where(dist < 4, dist, exp * 4 + sub)
                key ^= quant.astype(np.uint64) << np.uint64(13)
            if use_fold:
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

            # Weight arena: Wb | Wm (row-major) | Wrs | dummy pad slot.
            wm_off = cfg.bias_entries
            wrs_off = wm_off + cfg.wm_rows * ht
            dummy = wrs_off + cfg.wrs_entries
            arena = np.empty(dummy + 1, dtype=np.int32)
            arena[:wm_off] = predictor._wb
            arena[wm_off:wrs_off] = np.asarray(predictor._wm, dtype=np.int32).ravel()
            arena[wrs_off:dummy] = predictor._wrs
            arena[dummy] = 0
            lane = 1 + ht + rsd
            aidx = np.empty((nc, lane), dtype=np.int64)
            aidx[:, 0] = bias_idx
            aidx[:, 1 : 1 + ht] = wm_off + wm_rows_mat * ht + cols[None, :]
            aidx[:, 1 + ht :] = np.where(pad, dummy, wrs_off + widx_raw)
            signs = np.empty((nc, lane), dtype=np.int32)
            signs[:, 0] = 1
            signs[:, 1 : 1 + ht] = signs_wm
            signs[:, 1 + ht :] = h_mat

        # ------------------------------------------------------------------
        # Loop predictor: python-list state plus precomputed set/tag rows.
        # ------------------------------------------------------------------
        loop = predictor.loop
        has_loop = loop is not None
        if has_loop:
            ways = loop.ways
            nsets = loop.sets
            tag_mask = (1 << loop.tag_bits) - 1
            trip_max = loop.TRIP_MAX
            ltag = [[e.tag for e in ws] for ws in loop._table]
            lpast = [[e.past_trip for e in ws] for ws in loop._table]
            lcur = [[e.current_trip for e in ws] for ws in loop._table]
            lconf = [[e.confidence for e in ws] for ws in loop._table]
            lage = [[e.age for e in ws] for ws in loop._table]
            lvalid = [[e.valid for e in ws] for ws in loop._table]
            if nc:
                way_ix = np.arange(1, ways + 1, dtype=np.uint64)
                hashed = mix64_array(
                    pc_c[:, None] + np.uint64(_LOOP_SKEW) * way_ix[None, :]
                )
                lsets = (hashed % np.uint64(nsets)).astype(np.int64).tolist()
                ltags = (
                    (hashed >> np.uint64(20)) & np.uint64(tag_mask)
                ).astype(np.int64).tolist()

        # ------------------------------------------------------------------
        # Sequential replay of the weight-touching events.
        # ------------------------------------------------------------------
        wmax = predictor._wmax
        wmin = predictor._wmin
        theta = predictor.theta
        tc = predictor._tc
        withloop = predictor._withloop
        adaptive = cfg.adaptive_theta
        last_neural_pred = predictor._last_neural_pred
        last_loop_pred = predictor._last_loop_pred
        scr_loop_valid = False
        acc = 0

        if nc:
            isnb_arr = nb_before[cidx]
            isnb_l = isnb_arr.tolist()
            taken_l = (outs[cidx] == 1).tolist()
            cnt_l = cnt.tolist()
            dup_l = dup.tolist()
            nb_preds: list[bool] = []
            nb_codes: list[int] = []
            if not has_loop:
                lsets = ltags = repeat(None)
            arena_take = arena.take
            minimum = np.minimum
            maximum = np.maximum
            for arow, srow, isnb, taken, is_dup, k_rs, st, tg in zip(
                aidx, signs, isnb_l, taken_l, dup_l, cnt_l, lsets, ltags
            ):
                w = arena_take(arow)
                acc = int(w.dot(srow))
                t = 1 if taken else -1
                update = False
                if isnb:
                    neural_pred = acc >= 0
                    pred = neural_pred
                    code = 2
                    loop_valid = False
                    if has_loop:
                        found = -1
                        for wy in range(ways):
                            si = st[wy]
                            if lvalid[si][wy] and ltag[si][wy] == tg[wy]:
                                found = wy
                                fsi = si
                                break
                        if found >= 0 and lconf[fsi][found] >= 3:
                            loop_pred = lcur[fsi][found] != lpast[fsi][found]
                            loop_valid = True
                        else:
                            loop_pred = True
                        last_loop_pred = loop_pred
                        if loop_valid and withloop >= 0:
                            pred = loop_pred
                            code = 3
                    nb_preds.append(pred)
                    nb_codes.append(code)
                    mispredicted = pred != taken
                    if has_loop:
                        if loop_valid and loop_pred != neural_pred:
                            if loop_pred == taken:
                                if withloop < 63:
                                    withloop += 1
                            elif withloop > -64:
                                withloop -= 1
                        if found >= 0:
                            if taken:
                                lcur[fsi][found] += 1
                                if lcur[fsi][found] > trip_max:
                                    lvalid[fsi][found] = False
                            else:
                                if lcur[fsi][found] == lpast[fsi][found]:
                                    if lconf[fsi][found] < 3:
                                        lconf[fsi][found] += 1
                                    if lage[fsi][found] < 7:
                                        lage[fsi][found] += 1
                                else:
                                    lpast[fsi][found] = lcur[fsi][found]
                                    lconf[fsi][found] = 0
                                lcur[fsi][found] = 0
                        elif not taken and mispredicted:
                            victim = -1
                            for wy in range(ways):
                                if not lvalid[st[wy]][wy]:
                                    victim = wy
                                    break
                            if victim < 0:
                                for wy in range(ways):
                                    vsi = st[wy]
                                    if lage[vsi][wy] == 0:
                                        victim = wy
                                        break
                                    lage[vsi][wy] -= 1
                            if victim >= 0:
                                vsi = st[victim]
                                ltag[vsi][victim] = tg[victim]
                                lpast[vsi][victim] = 0
                                lcur[vsi][victim] = 0
                                lconf[vsi][victim] = 0
                                lage[vsi][victim] = 7
                                lvalid[vsi][victim] = True
                    neural_wrong = neural_pred != taken
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
                    last_neural_pred = neural_pred
                    scr_loop_valid = loop_valid
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
            nb_sel = cidx[isnb_arr]
            preds[nb_sel] = np.fromiter(nb_preds, dtype=bool, count=len(nb_preds))
            prov[nb_sel] = np.fromiter(nb_codes, dtype=np.uint8, count=len(nb_codes))

        # ------------------------------------------------------------------
        # Write the final state back through the scalar representations.
        # ------------------------------------------------------------------
        state_list = bst._state
        for fi, fv in zip(final_bst_idx.tolist(), final_bst_status.tolist()):
            state_list[fi] = BranchStatus(fv)

        rs._entries = [
            RSEntry(address=lpcs[j], stamp=int(log_stamp[j]), outcome=bool(log_sign[j] > 0))
            for j in stack
        ]
        rs._clock = base_clock + n

        if nc:
            predictor._wb = arena[:wm_off].tolist()
            predictor._wm = arena[wm_off:wrs_off].reshape(cfg.wm_rows, ht).tolist()
            predictor._wrs = arena[wrs_off:dummy].tolist()
        if has_loop:
            for si, ws in enumerate(loop._table):
                for wy, entry in enumerate(ws):
                    entry.tag = ltag[si][wy]
                    entry.past_trip = lpast[si][wy]
                    entry.current_trip = lcur[si][wy]
                    entry.confidence = lconf[si][wy]
                    entry.age = lage[si][wy]
                    entry.valid = lvalid[si][wy]
        predictor._withloop = withloop
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
        cap = ring.capacity
        head0 = ring._head
        buf = np.asarray(ring._buf, dtype=np.int64)
        lo = max(0, n - cap)
        slots = (head0 + np.arange(lo, n, dtype=np.int64)) % cap
        buf[slots] = outs[lo:]
        ring._buf = buf.tolist()
        ring._head = (head0 + n) % cap
        ring._count = min(ring._count + n, cap)

        last_i = n - 1
        predictor._last_status = BranchStatus(int(status_before[last_i]))
        predictor._last_pred = bool(preds[last_i])
        predictor._last_provider = _PROVIDERS[int(prov[last_i])]
        predictor._last_used_weights = bool(nb_before[last_i])
        predictor._last_loop_valid = bool(nb_before[last_i]) and scr_loop_valid
        predictor._last_neural_pred = bool(last_neural_pred)
        predictor._last_loop_pred = bool(last_loop_pred)
        if nc:
            last_row = nc - 1
            predictor._last_accum = acc
            predictor._last_bias_index = int(bias_idx[last_row])
            predictor._last_wm_rows = wm_rows_mat[last_row].tolist()
            predictor._last_wm_signs = signs[last_row, 1 : 1 + ht].tolist()
            k = int(cnt[last_row])
            predictor._last_wrs_idx = widx_raw[last_row, :k].tolist()
            predictor._last_wrs_signs = h_mat[last_row, :k].tolist()

        return preds, (prov, _PROVIDERS)
