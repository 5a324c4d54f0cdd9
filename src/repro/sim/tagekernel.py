"""Hybrid vectorized kernel for TAGE and ISL-TAGE (over a plain TAGE core).

TAGE's tables cannot be replayed as an array scan: which table provides,
what it predicts and where a misprediction allocates all depend on the
counters, tags and useful bits the previous events left.  But the
*history side* never depends on a prediction.  The 3·N folded-history
registers (Seznec's circular-shift registers) and the path register are
functions of past outcomes and pcs alone, so every event's table
indices and partial tags are known before the segment runs:

* the folds come from one :func:`~repro.common.tablestate.folded_history_block`
  call, seeded from ``Tage._folds`` and the circular ``_history_buffer``
  (whose zeros stand for pushes before the first branch, exactly as the
  scalar register reads them);
* the path register is a packed series of ``pc & 1`` bits;
* the ``(n, N)`` index and tag arrays, the bimodal base indices, the
  statistical corrector's pc half-index and the loop predictor's
  skewed set/tag rows are numpy expressions over those.

What stays in python is the table side, with the scalar predictor's
exact semantics and operation order: provider/alternate lookup,
use-alt-on-newly-allocated, the statistical corrector, the loop
override and its ``WITHLOOP`` confidence, counter and useful updates,
allocation through the predictor's own ``XorShift64`` in the same draw
order, and useful-bit aging every ``useful_reset_period`` events.  It
mutates the predictor's table lists in place, so staging costs nothing
per table entry; only the segment's own arrays are built.  The loop
predictor's staging and writeback are shared with BF-Neural's kernel.

Provider codes follow Figure 12: ``base``, ``T1``..``TN``, and for
ISL-TAGE ``sc`` and ``loop``.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.common.tablestate import (
    folded_history_block,
    packed_history_series,
    ring_history,
    ring_write,
)
from repro.predictors.base import hot_path
from repro.predictors.tage.isl import ISLTage
from repro.predictors.tage.tage import _PROVIDER_NAMES, Tage
from repro.sim.bfkernel import loop_rows, stage_loop, write_back_loop

#: Events per python-list chunk of the replay: bounds the per-event rows
#: held as python objects, whatever the segment length.
_CHUNK = 4096


class TageKernel:
    """Precomputed-history / python table-side kernel for ``Tage`` and
    ``ISLTage`` (registered for both by exact type)."""

    def supports(self, predictor) -> bool:
        tage = predictor.tage if isinstance(predictor, ISLTage) else predictor
        if type(tage) is not Tage:
            return False  # BF-ISL-TAGE's BFTage core keeps its own histories
        cfg = tage.config
        if max(cfg.log2_entries + cfg.tag_bits) > 16 or not 1 <= cfg.path_bits <= 64:
            return False
        if tage.base.counter_bits != 2:
            return False
        if isinstance(predictor, ISLTage) and predictor.with_statistical_corrector:
            entries = len(predictor._sc)
            return entries >= 2 and entries & (entries - 1) == 0
        return True

    @hot_path  # perf: allow(REPRO401, REPRO402): staging runs per record batch
    def run(self, predictor, pcs, outcomes, start: int, end: int):
        isl = predictor if isinstance(predictor, ISLTage) else None
        tage = isl.tage if isl is not None else predictor
        cfg = tage.config
        num = cfg.num_tables
        names = ("base",) + _PROVIDER_NAMES[:num]
        if isl is not None:
            names += ("sc", "loop")
        n = end - start
        if n == 0:
            return np.zeros(0, dtype=bool), (np.zeros(0, dtype=np.uint8), names)
        pc_seg = pcs[start:end]
        outs = outcomes[start:end]

        # ------------------------------------------------------------------
        # History side: every event's indices and tags, before the event.
        # ------------------------------------------------------------------
        registers = tage._fold_registers
        cap = tage._history_capacity
        history = np.empty(cap + n, dtype=np.uint32)
        history[:cap] = ring_history(tage._history_buffer, tage._history_head)
        history[cap:] = outs
        after = folded_history_block(
            history,
            cap,
            [length for length, _, _, _ in registers],
            [top + 1 for _, _, top, _ in registers],
            tage._folds,
        ).astype(np.uint64)
        before = np.empty_like(after)
        before[:, 0] = tage._folds
        before[:, 1:] = after[:, :-1]
        path = packed_history_series(
            pc_seg & np.uint64(1), cfg.path_bits, seed=tage._path_history
        )
        hashes = np.array(tage._table_hash, dtype=np.uint64)
        shift, index_mask, tag_mask = (hashes[:, k : k + 1] for k in range(3))
        pc_row = pc_seg[None, :]
        indices = (
            (pc_row ^ (pc_row >> shift) ^ before[0::3] ^ path) & index_mask
        ).T.astype(np.int64)
        tags = (
            (pc_row ^ before[1::3] ^ (before[2::3] << np.uint64(1))) & tag_mask
        ).T.astype(np.int64)
        base = tage.base
        base_idx = (pc_seg & np.uint64(base._mask)).astype(np.int64)

        # ------------------------------------------------------------------
        # Table side state: the predictor's own lists, mutated in place.
        # ------------------------------------------------------------------
        tables = tage.tables
        ctrs = [table.ctr for table in tables]
        tag_tables = [table.tag for table in tables]
        usefuls = [table.useful for table in tables]
        base_table = base._table
        use_alt = tage._use_alt_on_na
        count = tage._branch_count
        period = cfg.useful_reset_period
        chance = tage._rng.chance
        last_table = num - 1
        scan = range(last_table, -1, -1)

        has_sc = isl is not None and isl.with_statistical_corrector
        loop = isl.loop if isl is not None else None
        has_loop = loop is not None
        sc = isl._sc if has_sc else None
        if has_sc:
            sc_base = ((pc_seg << np.uint64(1)) & np.uint64(len(sc) - 1)).astype(np.int64)
        if has_loop:
            ways = range(loop.ways)
            trip_max = loop.TRIP_MAX
            loop_state = stage_loop(loop)
            ltag, lpast, lcur, lconf, lage, lvalid = loop_state
            withloop = isl._withloop
        sc_code = num + 1
        loop_code = num + 2

        preds: list[bool] = []
        codes: list[int] = []
        add_pred = preds.append
        add_code = codes.append
        loop_pred = loop_valid = sc_used = False
        sci = 0
        for lo in range(0, n, _CHUNK):
            hi = min(n, lo + _CHUNK)
            rows = (
                indices[lo:hi].tolist(),
                tags[lo:hi].tolist(),
                base_idx[lo:hi].tolist(),
                outs[lo:hi].tolist(),
                sc_base[lo:hi].tolist() if has_sc else repeat(0),
                *(loop_rows(loop, pc_seg[lo:hi]) if has_loop else (repeat(None),) * 2),
            )
            for ir, tr, bi, taken, scb, st, tg in zip(*rows):
                # ---------------- TAGE prediction ----------------
                provider = alt = -1
                for i in scan:
                    if tag_tables[i][ir[i]] == tr[i]:
                        if provider < 0:
                            provider = i
                        else:
                            alt = i
                            break
                base_pred = base_table[bi] >= 2
                if provider >= 0:
                    pidx = ir[provider]
                    pctr = ctrs[provider][pidx]
                    provider_pred = pctr >= 0
                    alt_pred = ctrs[alt][ir[alt]] >= 0 if alt >= 0 else base_pred
                    weak = (pctr == 0 or pctr == -1) and usefuls[provider][pidx] == 0
                    tage_pred = alt_pred if weak and use_alt >= 8 else provider_pred
                else:
                    weak = False
                    provider_pred = alt_pred = tage_pred = base_pred
                pred = tage_pred
                code = provider + 1

                # ---------------- ISL overlay ----------------
                if has_sc:
                    sci = scb | tage_pred
                    sc_used = False
                    if weak:
                        counter = sc[sci]
                        if counter <= -8 and pred:
                            pred = False
                            sc_used = True
                        elif counter >= 8 and not pred:
                            pred = True
                            sc_used = True
                    if sc_used:
                        code = sc_code
                if has_loop:
                    found = -1
                    for wy in ways:
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
                        loop_valid = False
                    if loop_valid and withloop >= 0:
                        pred = loop_pred
                        code = loop_code
                add_pred(pred)
                add_code(code)

                # ---------------- ISL training ----------------
                if has_loop:
                    if loop_valid and loop_pred != tage_pred:
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
                    elif not taken and pred != taken:
                        victim = -1
                        for wy in ways:
                            if not lvalid[st[wy]][wy]:
                                victim = wy
                                break
                        if victim < 0:
                            for wy in ways:
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
                if has_sc:
                    counter = sc[sci]
                    if taken:
                        if counter < 31:
                            sc[sci] = counter + 1
                    elif counter > -32:
                        sc[sci] = counter - 1

                # ---------------- TAGE training ----------------
                train_base = provider < 0
                if not train_base:
                    if weak and provider_pred != alt_pred:
                        if provider_pred == taken:
                            if use_alt > 0:
                                use_alt -= 1
                        elif alt_pred == taken and use_alt < 15:
                            use_alt += 1
                    ctr = ctrs[provider]
                    value = ctr[pidx]
                    if taken:
                        if value < 3:
                            value += 1
                    elif value > -4:
                        value -= 1
                    ctr[pidx] = value
                    if provider_pred != alt_pred:
                        useful = usefuls[provider]
                        u = useful[pidx]
                        if provider_pred == taken:
                            if u < 3:
                                useful[pidx] = u + 1
                        elif u > 0:
                            useful[pidx] = u - 1
                    # A weak provider lets the alternate keep learning.
                    if value == 0 or value == -1:
                        if alt >= 0:
                            ctr = ctrs[alt]
                            aidx = ir[alt]
                            value = ctr[aidx]
                            if taken:
                                if value < 3:
                                    ctr[aidx] = value + 1
                            elif value > -4:
                                ctr[aidx] = value - 1
                        else:
                            train_base = True
                if train_base:
                    value = base_table[bi]
                    if taken:
                        if value < 3:
                            base_table[bi] = value + 1
                    elif value > 0:
                        base_table[bi] = value - 1
                if tage_pred != taken and provider < last_table:
                    # Tage._allocate, draw for draw.
                    candidates = [
                        i for i in range(provider + 1, num) if usefuls[i][ir[i]] == 0
                    ]
                    if not candidates:
                        for i in range(provider + 1, num):
                            useful = usefuls[i]
                            u = useful[ir[i]]
                            if u > 0:
                                useful[ir[i]] = u - 1
                    else:
                        chosen = candidates[0]
                        for candidate in candidates[1:]:
                            if chance(1, 2):
                                break
                            chosen = candidate
                        installs = [chosen]
                        if chance(1, 2):
                            installs += [c for c in candidates if c >= chosen + 2][:1]
                        for i in installs:
                            entry = ir[i]
                            tag_tables[i][entry] = tr[i]
                            ctrs[i][entry] = 0 if taken else -1
                            usefuls[i][entry] = 0
                count += 1
                if count % period == 0:
                    for table in tables:
                        table.age_useful()
                    usefuls = [table.useful for table in tables]

        # ------------------------------------------------------------------
        # Write back the history registers, counters and scratch fields.
        # ------------------------------------------------------------------
        tage._folds = after[:, -1].tolist()
        tage._history_head = ring_write(tage._history_buffer, tage._history_head, outs)
        tage._path_history = ((int(path[-1]) << 1) | (int(pc_seg[-1]) & 1)) & tage._path_mask
        tage._use_alt_on_na = use_alt
        tage._branch_count = count
        tage._last_indices = ir
        tage._last_tags = tr
        tage._last_provider = provider
        tage._last_alt = alt
        tage._last_provider_pred = provider_pred
        tage._last_alt_pred = alt_pred
        tage._last_pred = tage_pred
        tage._last_weak_provider = weak
        if isl is not None:
            if has_loop:
                write_back_loop(loop, loop_state)
                isl._withloop = withloop
            isl._last_tage_pred = tage_pred
            isl._last_loop_pred = loop_pred
            isl._last_loop_valid = loop_valid
            isl._last_sc_index = sci
            isl._last_sc_used = sc_used
            isl._last_pred = pred
            isl._last_provider_name = names[code]
        return (
            np.array(preds, dtype=bool),
            (np.array(codes, dtype=np.uint8), names),
        )
