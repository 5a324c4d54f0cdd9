"""Hybrid vectorized kernel for the TAGE family: TAGE, ISL-TAGE, BF-TAGE
and BF-ISL-TAGE.

TAGE's tables cannot be replayed as an array scan: which table provides,
what it predicts and where a misprediction allocates all depend on the
counters, tags and useful bits the previous events left.  But the
*history side* never depends on a prediction.  Every event's 3·N folded
histories (index, tag, tag−1 per table) and path register are functions
of past outcomes and pcs alone, so its table indices and partial tags are
known before the segment runs.  Two history sides produce the folds:

* TAGE's circular-shift registers come from one
  :func:`~repro.common.tablestate.folded_history_block` call per chunk,
  seeded from ``Tage._folds`` and the circular ``_history_buffer``
  (whose zeros stand for pushes before the first branch, exactly as the
  scalar register reads them);
* BF-TAGE folds every table's prefix of the bias-free GHR from scratch,
  as the scalar core does.  The deterministic BST's status stream is
  resolved in closed form (:func:`~repro.sim.bfkernel.bst_stream`), so
  which branches the segmented recency stacks record is known up front.
  The stacks have a closed form too: segment ``k`` is a prefix of one
  LRU over the non-biased records, read ``b_k + 1`` commits late and
  cut at the segment's deep boundary.  One python pass
  (:func:`~repro.sim.bfkernel.recency_rows`, BF-Neural's stack pass)
  gives that LRU after every record; numpy reads it at every segment's
  delay, lays out each event's BF-GHR, packs it 3 bits per position
  and folds it 64-bit word by word (:func:`_fold_plan`).

The path register is a packed series of ``pc & 1`` bits, and the ``(n,
N)`` index and tag arrays, the bimodal base indices and the statistical
corrector's pc half-index are numpy expressions over those, staged a
chunk at a time.

What stays in python is the table side, with the scalar predictor's
exact semantics and operation order: provider/alternate lookup,
use-alt-on-newly-allocated, the statistical corrector, counter and
useful updates, allocation through the predictor's own ``XorShift64``
state in the same draw order (stepped inline), and useful-bit aging
every ``useful_reset_period`` events.  It mutates the predictor's table
lists in place, so staging costs nothing per table entry; only the
chunk's own arrays are built.

No TAGE table or SC counter reads the loop predictor: they train on
TAGE's own prediction, never on the loop's override.  So after each
chunk's table side, the replay BF-Neural's kernel shares
(:func:`~repro.sim.bfkernel.loop_replay`) runs the loop predictor and
its ``WITHLOOP`` counter over the chunk, on the loop's own field lists,
and overrides the chunk's predictions where the loop provides.

Provider codes follow Figure 12: ``base``, ``T1``..``TN``, and for the
ISL overlays ``sc`` and ``loop``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat

import numpy as np

from repro.common.bitops import mask
from repro.common.tablestate import (
    folded_history_block,
    packed_history_series,
    ring_history,
    ring_write,
)
from repro.core.bftage import BFISLTage, BFTage, fold_steps
from repro.predictors.base import hot_path
from repro.predictors.tage.isl import ISLTage
from repro.predictors.tage.tage import _PROVIDER_NAMES, Tage
from repro.sim.bfkernel import (
    bst_stream,
    first_appearance,
    loop_replay,
    loop_rows,
    recency_rows,
    write_back_bst,
)

#: Events per chunk of a TAGE core's history side: bounds the per-event
#: arrays and python rows held at once, whatever the segment length.
_CHUNK = 4096

#: Events per chunk of BF-TAGE's history side: bounds its (rs_size,
#: events, segments) reads and its per-event BF-GHR layout.
_BF_CHUNK = 512

#: The LRU's padding, and the floor of its record indices: older than
#: any window.
_NO_RECORD = -(1 << 30)

#: Events per block of the word-level prefix fold: its (events, register
#: words) temporaries stay a few hundred KB.
_FOLD_ROWS = 256

#: ``XorShift64.next_u64``'s word mask and output multiplier.
_U64 = (1 << 64) - 1
_XORSHIFT_MUL = 0x2545F4914F6CDD1D


# ---------------------------------------------------------------------------
# History sides: per chunk, ``(lo, before)`` with ``before[r, i]`` fold
# register ``r`` (table-major: index, tag, tag−1) before chunk event ``i``.
# Each writes its history state back once the last chunk is consumed.
# ---------------------------------------------------------------------------


# perf: allow(REPRO401, REPRO402): staging runs per chunk, not per event
def _seznec_folds(tage, outs: np.ndarray):
    """TAGE's incrementally folded registers, one
    :func:`folded_history_block` call per chunk."""
    registers = tage._fold_registers
    lengths = [length for length, _, _, _ in registers]
    widths = [top + 1 for _, _, top, _ in registers]
    cap = tage._history_capacity
    n = len(outs)
    # The last ``cap`` outcomes before the chunk, oldest first, then the
    # chunk's own.
    history = np.array(ring_history(tage._history_buffer, tage._history_head), dtype=np.uint32)
    folds = np.array(tage._folds, dtype=np.uint64)
    for lo in range(0, n, _CHUNK):
        hi = min(n, lo + _CHUNK)
        history = np.concatenate((history[-cap:], outs[lo:hi]))
        after = folded_history_block(history, cap, lengths, widths, folds).astype(np.uint64)
        before = np.empty_like(after)
        before[:, 0] = folds
        before[:, 1:] = after[:, :-1]
        folds = after[:, -1]
        yield lo, before
    tage._folds = folds.tolist()
    tage._history_head = ring_write(tage._history_buffer, tage._history_head, outs)


@lru_cache(maxsize=64)  # perf: allow(REPRO401, REPRO402): built once per geometry
def _fold_plan(prefix_bits: tuple[int, ...], widths: tuple[int, ...]) -> tuple:
    """The prefix folds of a BF-TAGE geometry, word by word.

    Register ``r`` folds the low ``prefix_bits[r]`` bits of the packed
    BF-GHR to ``widths[r]`` bits: ``fold_bits``, the XOR of the
    ``w``-bit chunks of the prefix.  That is linear, and shifting a value
    by a whole number of chunks leaves its fold unchanged, so
    ``fold_w(A | B << k) = fold_w(A) ^ rotl_w(fold_w(B), k mod w)``: the
    prefix splits into 64-bit words, each word is folded on its own
    (:func:`~repro.core.bftage.fold_steps`), rotated left by ``64·j mod
    w`` and XORed into its register.  Returns one column per (register,
    word) pair: the word index and mask, the fold steps (padded with
    steps that leave a folded value unchanged), the rotation, the width
    mask, and each register's first column for ``reduceat``.
    """
    words, word_masks, steps, rotations, widths_of, starts = [], [], [], [], [], []
    for bits, width in zip(prefix_bits, widths):
        starts.append(len(words))
        for j in range(-(-bits // 64)):
            chunk = min(64, bits - 64 * j)
            words.append(j)
            word_masks.append(mask(chunk))
            steps.append(fold_steps(chunk, width))
            rotations.append(64 * j % width)
            widths_of.append(width)
    depth = max(len(column) for column in steps)
    # (shift w, low mask(w)) maps a value already below 2**w to itself.
    padded = [
        column + ((width, mask(width)),) * (depth - len(column))
        for column, width in zip(steps, widths_of)
    ]
    u64 = np.uint64
    return (
        np.array(words, dtype=np.intp),
        np.array(word_masks, dtype=u64),
        [
            (np.array(shifts, dtype=u64), np.array(lows, dtype=u64))
            for shifts, lows in (zip(*level) for level in zip(*padded))
        ],
        np.array(rotations, dtype=u64),
        np.array([w - r for w, r in zip(widths_of, rotations)], dtype=u64),
        np.array([mask(w) for w in widths_of], dtype=u64),
        np.array(starts, dtype=np.intp),
    )


# perf: allow(REPRO401, REPRO402): numpy row blocks, staged per chunk
def _fold_prefixes(words: np.ndarray, plan: tuple) -> np.ndarray:
    """Every register's fold of every event's prefix (one row per
    register), from the prefixes as little-endian 64-bit words.  Works
    in place on blocks of :data:`_FOLD_ROWS` events, so its temporaries
    stay small whatever the chunk."""
    word, word_mask, steps, rotation, back, width_mask, starts = plan
    folds = np.empty((len(starts), len(words)), dtype=np.uint64)
    for lo in range(0, len(words), _FOLD_ROWS):
        v = words[lo : lo + _FOLD_ROWS, word]
        v &= word_mask
        spill = np.empty_like(v)
        for shift, low in steps:
            np.right_shift(v, shift, out=spill)
            v &= low
            v ^= spill
        np.right_shift(v, back, out=spill)
        v <<= rotation
        v |= spill
        v &= width_mask
        folds[:, lo : lo + _FOLD_ROWS] = np.bitwise_xor.reduceat(v, starts, axis=1).T
    return folds


# perf: allow(REPRO401): numpy slices are views; runs per chunk
def _segment_reads(lru, records, elements, events, boundaries) -> tuple:
    """Every segment before each of ``events`` (indices into ``records``
    and their ``elements``), read from ``lru`` at its delay: which
    entries are live, shape (rs_size, events, segments), and their
    elements (dead ones read record 0's).  ``lru[:, r]`` is the LRU
    after ``r`` non-biased records."""
    seen = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum(records[:, 2], out=seen[1:])
    index = np.take(lru, seen[events[:, None] - boundaries[:-1]], axis=1)
    live = index >= events[:, None] - boundaries[1:]
    index *= live
    return live, np.take(elements, index)


# perf: allow(REPRO401, REPRO402): staging runs per chunk, not per event
def _bf_folds(tage, pc_seg: np.ndarray, outs: np.ndarray):
    """BF-TAGE's prefix folds of the bias-free GHR, per chunk: the BST
    stream, one LRU pass, every event's BF-GHR read from it at the
    segments' delays, and the word-level fold.  Writes back the BST
    entries per chunk, and the stacks' ring, cursor and unfiltered
    register at the end, then the segments the ring determines
    (``SegmentedRecencyStacks.ring_segments``).

    Before commit ``t`` segment ``k`` is the LRU of the non-biased
    records as it stood after stamp ``t - b_k - 1``, cut to the entries
    stamped ``t - b_{k+1}`` or later (docs/vectorization.md).  A read
    depends only on its window, so the first chunk starts the LRU empty
    at the ring's oldest record, and each chunk hands the next the LRU
    states of its last ring's worth of records, as record indices.
    """
    cfg = tage.config
    segments = tage.segments
    positions = cfg.history_lengths[-1]
    plan = _fold_plan(
        tuple(3 * length for length, _, _, _ in tage._fold_registers),
        tuple(top + 1 for _, _, top, _ in tage._fold_registers),
    )
    words = -(-3 * positions // 64)
    width = -(-64 * words // 3)  # the positions that fill ``words``
    rs_size = segments.rs_size
    unfiltered = segments.unfiltered_bits
    shallow = min(unfiltered, positions)
    ring = segments._ring
    ring_len = len(ring)
    head = segments._head
    count = segments._count
    boundaries = np.array(segments.boundaries, dtype=np.int64)
    pc_mask = np.uint64(segments._pc_mask)
    # The ring's (hashed pc, taken, non-biased) records oldest first.
    # Slots no branch was committed to yet stay zero: never non-biased.
    tail = np.zeros((ring_len, 3), dtype=np.int64)
    known = min(count, ring_len)
    if known:
        at = head % ring_len
        tail[ring_len - known :] = (ring[at:] + ring[:at])[ring_len - known :]
    lru = np.full((rs_size, 1), _NO_RECORD, dtype=np.int32)
    fresh = 0  # records before this index are already in ``lru``
    n = len(outs)
    for lo in range(0, n, _BF_CHUNK):
        hi = min(n, lo + _BF_CHUNK)
        m = hi - lo
        _, nb, final = bst_stream(tage.bst, pc_seg[lo:hi], outs[lo:hi])
        write_back_bst(tage.bst, final)
        chunk = np.stack(((pc_seg[lo:hi] & pc_mask).astype(np.int64), outs[lo:hi], nb), axis=1)
        records = np.concatenate((tail, chunk))
        elements = (((records[:, 0] & 3) << 1) | records[:, 1]).astype(np.uint8)
        # One LRU pass over the non-biased records not yet in it, seeded
        # with the latest state's entries still among the records.
        seed = lru[:, -1][lru[:, -1] >= 0][::-1]
        feed = np.concatenate((seed, fresh + np.flatnonzero(records[fresh:, 2])))
        passed = recency_rows(records[feed, 0].tolist(), rs_size, True)
        record_of = np.append(feed, _NO_RECORD).astype(np.int32)
        lru = np.concatenate((lru, record_of[passed[len(seed) + 1 :]].T), axis=1)
        # Each event's BF-GHR: the unfiltered elements, then every
        # segment's live entries in turn, cut at ``positions`` (the extra
        # column takes what falls past it), 3 bits per position.
        events = ring_len + np.arange(m, dtype=np.int64)
        live, entries = _segment_reads(lru, records, elements, events, boundaries)
        filled = live.sum(axis=0, dtype=np.int32)
        at = np.cumsum(filled, axis=1, dtype=np.int32) - filled + unfiltered
        at = at + np.arange(rs_size, dtype=np.int32)[:, None, None]
        np.putmask(at, ~live | (at >= positions), width)
        at += (width + 1) * np.arange(m, dtype=np.int32)[:, None]
        layout = np.zeros((m, width + 1), dtype=np.uint8)
        layout[:, :shallow] = elements[events[:, None] - 1 - np.arange(shallow)]
        layout.ravel()[at] = entries
        # Bit i of position p at bit 3p + i.
        bits = np.empty((m, width, 3), dtype=np.uint8)
        for i in range(3):
            np.right_shift(layout[:, :width], i, out=bits[:, :, i])
        bits &= 1
        prefixes = np.packbits(bits.reshape(m, -1), axis=1, bitorder="little")[:, : 8 * words]
        # The ring keeps bools: (hashed pc, taken, non-biased) per commit.
        keep_from = max(0, m - ring_len)
        for j, (pc, taken, flag) in zip(
            range(head + lo + keep_from, head + hi), chunk[keep_from:].tolist()
        ):
            ring[j % ring_len] = (pc, taken == 1, flag == 1)
        yield lo, _fold_prefixes(np.ascontiguousarray(prefixes).view("<u8"), plan)
        lru = np.maximum(lru[:, np.count_nonzero(records[:m, 2]) :] - m, _NO_RECORD)
        tail = records[m:]
        fresh = ring_len
    # The unfiltered register, the cursor, and every segment after the
    # last commit, which the ring determines.
    recent = elements[m:][::-1][:unfiltered].tolist()
    segments._recent = sum(element << (3 * p) for p, element in enumerate(recent))
    segments._head = head + n
    segments._count = min(count + n, ring_len)
    segments._install_segments(
        segments.ring_segments(ring, segments._head, segments._count)
    )


# perf: allow(REPRO401): staging runs per chunk, not per event
def _stage_rows(tage, isl, pc_chunk, outs_chunk, before, path_seed: int) -> tuple:
    """A chunk's per-event python rows for the table side (table indices,
    tags, base index, outcome, SC half-index) from its fold registers,
    and the path register after the chunk."""
    path = packed_history_series(
        pc_chunk & np.uint64(1), tage.config.path_bits, seed=path_seed
    )
    hashes = np.array(tage._table_hash, dtype=np.uint64)
    shift, index_mask, tag_mask = (hashes[:, k : k + 1] for k in range(3))
    pc_row = pc_chunk[None, :]
    sc_mask = len(isl._sc) - 1 if isl is not None and isl.with_statistical_corrector else 0
    rows = (
        ((pc_row ^ (pc_row >> shift) ^ before[0::3] ^ path) & index_mask).T.tolist(),
        ((pc_row ^ before[1::3] ^ (before[2::3] << np.uint64(1))) & tag_mask).T.tolist(),
        (pc_chunk & np.uint64(tage.base._mask)).tolist(),
        outs_chunk.tolist(),
        ((pc_chunk << np.uint64(1)) & np.uint64(sc_mask)).tolist() if sc_mask else repeat(0),
    )
    return rows, ((int(path[-1]) << 1) | (int(pc_chunk[-1]) & 1)) & tage._path_mask


class TageKernel:
    """Precomputed-history / python table-side kernel for ``Tage``,
    ``ISLTage``, ``BFTage`` and ``BFISLTage`` (registered for each by
    exact type)."""

    def supports(self, predictor) -> bool:
        tage = predictor.tage if isinstance(predictor, ISLTage) else predictor
        core = BFTage if type(predictor) in (BFTage, BFISLTage) else Tage
        if type(tage) is not core:
            return False  # an overlay on another core keeps that core's histories
        if core is BFTage and (
            tage.bf_config.probabilistic_bst or tage.bias_oracle is not None
        ):
            # The probabilistic BST draws from its own generator per
            # disagreement, and a profile is not the BST: both stay scalar.
            return False
        cfg = tage.config
        if max(cfg.log2_entries + cfg.tag_bits) > 16 or not 1 <= cfg.path_bits <= 64:
            return False
        if tage.base.counter_bits != 2:
            return False
        if isinstance(predictor, ISLTage) and predictor.with_statistical_corrector:
            entries = len(predictor._sc)
            return entries >= 2 and entries & (entries - 1) == 0
        return True

    @hot_path  # perf: allow(REPRO401, REPRO402): staging runs per chunk, not per event
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
        if type(tage) is BFTage:
            history = _bf_folds(tage, pc_seg, outs)
        else:
            history = _seznec_folds(tage, outs)
        path_seed = tage._path_history

        # ------------------------------------------------------------------
        # Table side state: the predictor's own lists, mutated in place.
        # ------------------------------------------------------------------
        tables = tage.tables
        ctrs = [table.ctr for table in tables]
        tag_tables = [table.tag for table in tables]
        usefuls = [table.useful for table in tables]
        base_table = tage.base._table
        use_alt = tage._use_alt_on_na
        count = tage._branch_count
        period = cfg.useful_reset_period
        rng_state = tage._rng._state
        last_table = num - 1
        scan = range(last_table, -1, -1)

        has_sc = isl is not None and isl.with_statistical_corrector
        loop = isl.loop if isl is not None else None
        sc = isl._sc if has_sc else None
        sc_code = num + 1
        loop_code = num + 2

        predictions = np.empty(n, dtype=bool)
        providers = np.empty(n, dtype=np.uint8)
        loop_pred = loop_valid = sc_used = False
        sci = 0
        for lo, before in history:
            hi = lo + before.shape[1]
            rows, path_seed = _stage_rows(tage, isl, pc_seg[lo:hi], outs[lo:hi], before, path_seed)
            preds: list[bool] = []
            codes: list[int] = []
            tage_preds: list[bool] = []  # the SC's inputs, which WITHLOOP compares
            add_pred = preds.append
            add_code = codes.append
            add_tage_pred = tage_preds.append
            for ir, tr, bi, taken, scb in zip(*rows):
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

                # ---------------- Statistical corrector ----------------
                if has_sc:
                    add_tage_pred(tage_pred)
                    sci = scb | tage_pred
                    counter = sc[sci]
                    sc_used = False
                    if weak:
                        if counter <= -8 and pred:
                            pred = False
                            sc_used = True
                        elif counter >= 8 and not pred:
                            pred = True
                            sc_used = True
                    if sc_used:
                        code = sc_code
                    if taken:
                        if counter < 31:
                            sc[sci] = counter + 1
                    elif counter > -32:
                        sc[sci] = counter - 1
                add_pred(pred)
                add_code(code)

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
                        # Each chance(1, 2) is XorShift64.next_u64's step
                        # on the local state, then next_below(2) < 1.
                        chosen = candidates[0]
                        for candidate in candidates[1:]:
                            x = rng_state
                            x ^= (x >> 12) & _U64
                            x = (x ^ (x << 25)) & _U64
                            x ^= x >> 27
                            rng_state = x
                            if ((x * _XORSHIFT_MUL) & _U64) % 2 < 1:
                                break
                            chosen = candidate
                        installs = [chosen]
                        x = rng_state
                        x ^= (x >> 12) & _U64
                        x = (x ^ (x << 25)) & _U64
                        x ^= x >> 27
                        rng_state = x
                        if ((x * _XORSHIFT_MUL) & _U64) % 2 < 1:
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
            # ---------------- Loop predictor ----------------
            # No TAGE or SC state reads the loop: replay it after them.
            if loop is not None:
                overrides, preds, isl._withloop, (loop_pred, loop_valid) = loop_replay(
                    loop,
                    *loop_rows(loop, pc_seg[lo:hi]),
                    rows[3],
                    tage_preds if has_sc else preds,
                    preds,
                    isl._withloop,
                )
                codes = np.where(overrides, loop_code, codes)
                pred = preds[-1]
                code = int(codes[-1])
            predictions[lo:hi] = preds
            providers[lo:hi] = codes
            del rows  # before the history side stages the next chunk

        # ------------------------------------------------------------------
        # Write back the path register, counters and scratch fields (the
        # history side wrote its own state back after its last chunk).
        # ------------------------------------------------------------------
        tage._path_history = path_seed
        tage._rng._state = rng_state
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
            isl._last_tage_pred = tage_pred
            isl._last_loop_pred = loop_pred
            isl._last_loop_valid = loop_valid
            isl._last_sc_index = sci
            isl._last_sc_used = sc_used
            isl._last_pred = pred
            isl._last_provider_name = names[code]
        return predictions, first_appearance(providers, names)
