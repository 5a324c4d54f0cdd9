"""BF-Neural: the practical bias-free neural predictor (Algorithms 2, 3).

Prediction path (Algorithm 2):

* branches the BST has never seen get a static default;
* branches the BST believes biased are predicted with their recorded
  direction and neither read nor train the weight tables;
* non-biased branches accumulate three perceptron components:

  1. a pc-indexed bias weight ``Wb``,
  2. a conventional component ``Wm`` over the ``ht`` most recent
     *unfiltered* history bits, each weight selected by
     ``hash(pc, path address, folded history at that depth)`` — the
     paper keeps a few unfiltered bits so strongly biased branches can
     out-vote the bias weight during training (Section IV-B2),
  3. the bias-free component ``Wrs`` over the recency-stack entries,
     each weight selected by ``hash(pc, RS.A, quantized RS.P, folded
     history over the RS.P most recent branches)`` — a one-dimensional
     table, so previously detected non-biased branches never re-learn
     when a newly detected branch shifts stack depths (Section IV-B2).

A 64-entry loop-count predictor overrides the neural output for
constant-trip loops once a ``WITHLOOP`` confidence counter trusts it.

The Figure 9 ablation stages map to constructor flags:

=====================  =============================================
Figure 9 bar           configuration
=====================  =============================================
BF-Neural (fhist)      ``filter_biased_history=False, use_rs=False``
+ ghist bias-free      ``filter_biased_history=True, use_rs=False``
+ RS                   ``filter_biased_history=True, use_rs=True``
=====================  =============================================

(The leftmost Figure 9 bar — a conventional hashed perceptron with
72-bit history — is ``repro.predictors.snap.ScaledNeural(history=72)``;
see DESIGN.md.)

Scalar hot path.  ``_compute`` runs for every non-biased branch and does
the arithmetic above without a helper call per weight:

* ``folded(d)`` is one read of the per-event ``_fold_view``.  Windows of
  up to 16 outcomes are folded from ``_recent_bits`` once per event, one
  bit at a time (the chunk XOR of ``fold_bits``); the ``Wm`` rows use
  them, and so do the ``Wrs`` entries at distance 16 or less.  Longer
  windows read the largest ``MultiFoldedHistory`` ladder register not
  exceeding ``d``, whose values are copied into the view once per event.
* A ``Wrs`` entry's distance is ``clock - stamp`` capped at
  ``position_cap``, the definition in ``RecencyStack.distance_of``.
  It indexes two tables from ``distance_tables``:
  ``quantize_distance(d) << 13`` and the fold slot of ``d``.  The tables
  are built once per (``position_cap``, depth ladder) and shared by
  every instance.
* The splitmix64 finalizer ``mix64`` is written out in both loops, with
  the constants from ``repro.common.bitops``.

The components stay behind their own methods, which the traced
benchmark times per instance: ``bst.status``/``observe``/
``is_non_biased``, ``rs.tick``/``record``/``entries``, ``_folds.push``
and ``loop.lookup``/``update``.  The per-entry form survives as the
frozen reference in ``tests/test_bfneural.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from repro.common.bitops import MIX64_M1, MIX64_M2, U64, fold_bits, mask
from repro.common.histories import MultiFoldedHistory
from repro.common.state import expect_keys, expect_length, expect_range
from repro.core.bst import BranchStatus, BranchStatusTable
from repro.core.recency_stack import RecencyStack
from repro.predictors.base import BranchPredictor
from repro.predictors.loop import LoopPredictor

#: Depth ladder for the folded-history registers backing ``folded(P)``.
_FOLD_DEPTHS = [4, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048]

#: Windows up to this depth are folded per event from ``_recent_bits``
#: instead of being kept in a ladder register.
_SMALL_WINDOW = 16

#: Hardware threshold registers are 8-bit; the adaptive θ never gets
#: near this in practice, but the model must saturate like the RTL.
_THETA_MAX = 255


def quantize_distance(distance: int) -> int:
    """Log-scale quantization of a positional distance.

    Hardware stores P in a handful of bits; this maps distances to
    ~log2 buckets with four sub-buckets each, so nearby instances of a
    pattern share a bucket while clearly different distances do not.
    """
    if distance < 4:
        return distance
    exponent = distance.bit_length() - 1
    sub = (distance >> (exponent - 2)) & 3
    return exponent * 4 + sub


def _fold_slot(depths: tuple[int, ...], depth: int) -> int:
    """Index of ``folded(depth)`` in ``BFNeural._fold_view``.

    Windows up to ``_SMALL_WINDOW`` are folded exactly (slot ``depth``);
    longer ones read the largest ladder register not exceeding ``depth``
    (``MultiFoldedHistory.folded_at``), stored after the small windows.
    """
    if depth <= _SMALL_WINDOW:
        return depth
    return _SMALL_WINDOW + bisect_right(depths, depth)


@lru_cache(maxsize=16)
def distance_tables(
    position_cap: int, depths: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-distance ``Wrs`` hash constants for one geometry.

    Indexed by the positional distance ``d`` in ``0..position_cap``:
    ``quantize_distance(d) << 13`` and ``_fold_slot(depths, d)``.  Cached
    per geometry, so every predictor built for a campaign task shares
    one copy.
    """
    span = range(position_cap + 1)
    return (
        tuple(quantize_distance(d) << 13 for d in span),
        tuple(_fold_slot(depths, d) for d in span),
    )


@dataclass
class BFNeuralConfig:
    """Structural and feature parameters of BF-Neural.

    Defaults follow the paper's 64 KB configuration (Section VI-B): a
    16K-entry BST, a 1024x16 two-dimensional weight table over 16 recent
    unfiltered history bits, a 64K-entry one-dimensional weight table
    and a recency stack of depth 48.
    """

    bst_entries: int = 16384
    probabilistic_bst: bool = False
    bias_entries: int = 2048
    wm_rows: int = 1024
    ht: int = 16
    wrs_entries: int = 65536
    rs_depth: int = 48
    weight_bits: int = 6
    position_cap: int = 2048
    default_prediction: bool = True
    # Feature flags (Figure 9 ablations).
    filter_biased_history: bool = True
    use_rs: bool = True
    use_folded_hist: bool = True
    use_positional: bool = True
    with_loop_predictor: bool = True
    # Adaptive threshold (Seznec TC scheme).  The starting point matters:
    # weights are 6-bit (|w| <= 31), so a threshold far above the
    # achievable |accum| keeps every uncorrelated weight churning in a
    # random walk that drowns saturated correlation weights.
    initial_theta: int = 35
    adaptive_theta: bool = True


class BFNeural(BranchPredictor):
    """The practical BF-Neural predictor."""

    name = "bf-neural"

    def __init__(self, config: BFNeuralConfig | None = None) -> None:
        self.config = config if config is not None else BFNeuralConfig()
        cfg = self.config
        self.bst = BranchStatusTable(
            entries=cfg.bst_entries, probabilistic=cfg.probabilistic_bst
        )
        self.rs = RecencyStack(
            depth=cfg.rs_depth,
            position_cap=cfg.position_cap,
            dedup=cfg.use_rs,
        )
        weight_max = (1 << (cfg.weight_bits - 1)) - 1
        self._wmax = weight_max
        self._wmin = -(weight_max + 1)
        self._wb = [0] * cfg.bias_entries
        self._wm = [[0] * cfg.ht for _ in range(cfg.wm_rows)]
        self._wrs = [0] * cfg.wrs_entries
        self.loop = LoopPredictor() if cfg.with_loop_predictor else None
        self._withloop = -1
        self.theta = cfg.initial_theta
        self._tc = 0
        # Unfiltered history state.
        self._recent_bits = 0  # newest outcome at bit 0
        self._recent_paths = [0] * cfg.ht  # newest at index 0
        depths = tuple(d for d in _FOLD_DEPTHS if d <= cfg.position_cap)
        self._folds = MultiFoldedHistory(
            depths=list(depths),
            width=max(4, cfg.wm_rows.bit_length() - 1),
            ring_capacity=cfg.position_cap,
        )
        # Immutable hash constants fixed by the geometry: where history
        # bit i lands in a small-window fold (bit i % width), the fold
        # slot of each Wm row, and the shared per-distance Wrs tables.
        width = self._folds.width
        self._small_bits = tuple(1 << (i % width) for i in range(_SMALL_WINDOW))
        self._wm_slots = tuple(_fold_slot(depths, i + 1) for i in range(cfg.ht))
        self._dist_keys, self._dist_slots = distance_tables(cfg.position_cap, depths)
        # Per-event scratch of _compute: folded(d) for d = 0.._SMALL_WINDOW,
        # then every ladder register.  Fully rewritten before each read.
        self._fold_view = [0] * (_SMALL_WINDOW + 1 + len(depths))
        # Per-prediction scratch consumed by train().
        self._last_status = BranchStatus.NOT_FOUND
        self._last_accum = 0
        self._last_used_weights = False
        self._last_wm_rows: list[int] = []
        self._last_wm_signs: list[int] = []
        self._last_wrs_idx: list[int] = []
        self._last_wrs_signs: list[int] = []
        self._last_bias_index = 0
        self._last_neural_pred = False
        self._last_loop_pred = False
        self._last_loop_valid = False
        self._last_pred = False
        self._last_provider = "default"

    # ------------------------------------------------------------------
    # Component computation
    # ------------------------------------------------------------------

    def _folded(self, depth: int) -> int:
        """Folded unfiltered history over the last ``depth`` outcomes.

        The one-value form of ``_fold_view``, for callers off the hot
        path (the ahead-pipelined model's stale-history snapshots).
        """
        if depth <= _SMALL_WINDOW:
            return fold_bits(self._recent_bits & mask(depth), depth, self._folds.width)
        return self._folds.folded_at(depth)

    def _compute(self, pc: int) -> None:
        """Evaluate the three weight components for a non-biased branch.

        Runs once per non-biased branch event, so the scratch lists
        preallocated in ``__init__`` are reused in place and every
        attribute consulted inside the loops is hoisted to a local
        (REPRO401/402 — ``snapshot()`` copies the scratch, so reuse is
        checkpoint-safe).  No helper is called per weight; see the
        module docstring for the fold view, the distance tables and the
        inlined ``mix64``.
        """
        cfg = self.config
        bias_index = pc & (cfg.bias_entries - 1)
        accum = self._wb[bias_index]
        self._last_bias_index = bias_index

        u64 = U64
        m1 = MIX64_M1
        m2 = MIX64_M2
        recent = self._recent_bits
        use_fold = cfg.use_folded_hist
        view = self._fold_view
        if use_fold:
            folded = 0
            for i, bit in enumerate(self._small_bits):
                if (recent >> i) & 1:
                    folded ^= bit
                view[i + 1] = folded
            view[_SMALL_WINDOW + 1 :] = self._folds.values

        wm_rows = self._last_wm_rows
        wm_signs = self._last_wm_signs
        wm_rows.clear()
        wm_signs.clear()
        rows_append = wm_rows.append
        signs_append = wm_signs.append
        row_mask = cfg.wm_rows - 1
        paths = self._recent_paths
        wm_slots = self._wm_slots
        wm = self._wm
        for i in range(cfg.ht):
            key = pc ^ paths[i] ^ (i << 24)
            if use_fold:
                key ^= view[wm_slots[i]] << 5
            key &= u64
            key = (key ^ (key >> 30)) * m1 & u64
            key = (key ^ (key >> 27)) * m2 & u64
            row = (key ^ (key >> 31)) & row_mask
            if (recent >> i) & 1:
                accum += wm[row][i]
                signs_append(1)
            else:
                accum -= wm[row][i]
                signs_append(-1)
            rows_append(row)

        wrs_idx = self._last_wrs_idx
        wrs_signs = self._last_wrs_signs
        wrs_idx.clear()
        wrs_signs.clear()
        idx_append = wrs_idx.append
        wsigns_append = wrs_signs.append
        wrs_mask = cfg.wrs_entries - 1
        rs = self.rs
        clock = rs._clock
        cap = cfg.position_cap
        use_positional = cfg.use_positional
        dist_keys = self._dist_keys
        dist_slots = self._dist_slots
        wrs = self._wrs
        for entry in rs.entries():
            distance = clock - entry.stamp
            if distance > cap:
                distance = cap
            key = pc ^ entry.address
            if use_positional:
                key ^= dist_keys[distance]
            if use_fold:
                key ^= view[dist_slots[distance]] << 21
            key &= u64
            key = (key ^ (key >> 30)) * m1 & u64
            key = (key ^ (key >> 27)) * m2 & u64
            index = (key ^ (key >> 31)) & wrs_mask
            if entry.outcome:
                accum += wrs[index]
                wsigns_append(1)
            else:
                accum -= wrs[index]
                wsigns_append(-1)
            idx_append(index)

        self._last_accum = accum

    # ------------------------------------------------------------------
    # Prediction (Algorithm 2)
    # ------------------------------------------------------------------

    def predict(self, pc: int) -> bool:
        status = self.bst.status(pc)
        self._last_status = status
        self._last_used_weights = False
        self._last_loop_valid = False

        if status == BranchStatus.NOT_FOUND:
            prediction = self.config.default_prediction
            provider = "default"
        elif status in (BranchStatus.TAKEN, BranchStatus.NOT_TAKEN):
            prediction = status == BranchStatus.TAKEN
            provider = "bst"
        else:
            self._compute(pc)
            self._last_used_weights = True
            prediction = self._last_accum >= 0
            provider = "neural"
            self._last_neural_pred = prediction
            if self.loop is not None:
                loop_pred, loop_valid = self.loop.lookup(pc)
                self._last_loop_pred = loop_pred
                self._last_loop_valid = loop_valid
                if loop_valid and self._withloop >= 0:
                    prediction = loop_pred
                    provider = "loop"

        self._last_pred = prediction
        self._last_provider = provider
        return prediction

    @property
    def provider(self) -> str:
        return self._last_provider

    # ------------------------------------------------------------------
    # Training (Algorithm 3)
    # ------------------------------------------------------------------

    def _update_weights(self, taken: bool) -> None:
        t = 1 if taken else -1
        wmax = self._wmax
        wmin = self._wmin
        bias_index = self._last_bias_index
        value = self._wb[bias_index] + t
        self._wb[bias_index] = wmax if value > wmax else (wmin if value < wmin else value)
        wm = self._wm
        for i, (row, sign) in enumerate(zip(self._last_wm_rows, self._last_wm_signs)):
            row_weights = wm[row]
            value = row_weights[i] + t * sign
            row_weights[i] = wmax if value > wmax else (wmin if value < wmin else value)
        wrs = self._wrs
        for index, sign in zip(self._last_wrs_idx, self._last_wrs_signs):
            value = wrs[index] + t * sign
            wrs[index] = wmax if value > wmax else (wmin if value < wmin else value)

    def _adapt_theta(self, mispredicted: bool) -> None:
        if not self.config.adaptive_theta:
            return
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

    def train(self, pc: int, taken: bool) -> None:
        status = self._last_status
        mispredicted = self._last_pred != taken

        if status == BranchStatus.NON_BIASED:
            if self.loop is not None:
                if self._last_loop_valid and self._last_loop_pred != self._last_neural_pred:
                    if self._last_loop_pred == taken:
                        if self._withloop < 63:
                            self._withloop += 1
                    elif self._withloop > -64:
                        self._withloop -= 1
                self.loop.update(pc, taken, allocate=mispredicted)
            neural_wrong = self._last_neural_pred != taken
            if neural_wrong or abs(self._last_accum) <= self.theta:
                self._update_weights(taken)
                self._adapt_theta(neural_wrong)
        elif status in (BranchStatus.TAKEN, BranchStatus.NOT_TAKEN) and mispredicted:
            # The branch just turned non-biased (Algorithm 3): give the
            # weights their first lesson using components computed now.
            self._compute(pc)
            self._update_weights(taken)

        self.bst.observe(pc, taken)

        # History management: the RS clock counts every committed branch;
        # the stack records non-biased branches (or, in the unfiltered
        # ablation, every branch).
        self.rs.tick()
        if self.config.filter_biased_history:
            if self.bst.is_non_biased(pc):
                self.rs.record(pc, taken)
        else:
            self.rs.record(pc, taken)

        # Unfiltered global history always advances.  The path shift is
        # in place (insert/pop) — the slice-assignment idiom copies the
        # list twice per event (REPRO401).
        self._recent_bits = ((self._recent_bits << 1) | (1 if taken else 0)) & U64
        paths = self._recent_paths
        paths.insert(0, pc & 0xFFFF)
        paths.pop()
        self._folds.push(taken)

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Restore power-on state (subclasses with extra constructor
        arguments override and re-invoke their own ``__init__``)."""
        self.__init__(self.config)

    def storage_bits(self) -> int:
        cfg = self.config
        bits = self.bst.storage_bits()
        bits += cfg.bias_entries * cfg.weight_bits
        bits += cfg.wm_rows * cfg.ht * cfg.weight_bits
        bits += cfg.wrs_entries * cfg.weight_bits
        bits += self.rs.storage_bits()
        bits += cfg.ht * (16 + 1)  # recent path/outcome registers
        if self.loop is not None:
            bits += self.loop.storage_bits()
        return bits

    def _state_payload(self) -> dict:
        return {
            "bst": self.bst.snapshot(),
            "rs": self.rs.snapshot(),
            "wb": list(self._wb),
            "wm": [list(row) for row in self._wm],
            "wrs": list(self._wrs),
            "loop": self.loop.snapshot() if self.loop is not None else None,
            "withloop": self._withloop,
            "theta": self.theta,
            "tc": self._tc,
            "recent_bits": self._recent_bits,
            "recent_paths": list(self._recent_paths),
            "folds": self._folds.snapshot(),
            "scratch": {
                "status": int(self._last_status),
                "accum": self._last_accum,
                "used_weights": self._last_used_weights,
                "wm_rows": list(self._last_wm_rows),
                "wm_signs": list(self._last_wm_signs),
                "wrs_idx": list(self._last_wrs_idx),
                "wrs_signs": list(self._last_wrs_signs),
                "bias_index": self._last_bias_index,
                "neural_pred": self._last_neural_pred,
                "loop_pred": self._last_loop_pred,
                "loop_valid": self._last_loop_valid,
                "pred": self._last_pred,
                "provider": self._last_provider,
            },
        }

    def _restore_payload(self, payload: dict) -> None:
        cfg = self.config
        expect_keys(
            payload,
            ("bst", "rs", "wb", "wm", "wrs", "loop", "withloop", "theta", "tc",
             "recent_bits", "recent_paths", "folds", "scratch"),
            "BFNeural",
        )
        expect_length(payload["wb"], cfg.bias_entries, "BFNeural.wb")
        expect_length(payload["wm"], cfg.wm_rows, "BFNeural.wm")
        for row in payload["wm"]:
            expect_length(row, cfg.ht, "BFNeural.wm[row]")
        expect_length(payload["wrs"], cfg.wrs_entries, "BFNeural.wrs")
        expect_length(payload["recent_paths"], cfg.ht, "BFNeural.recent_paths")
        # Every table and register is range-checked here, so a corrupt
        # payload fails now with a StateError rather than mid-simulate
        # (a negative RS distance would index the distance tables from
        # the end).  Checks are C-level min/max over the converted lists.
        wmin, wmax = self._wmin, self._wmax
        wb = [int(v) for v in payload["wb"]]
        expect_range(wb, wmin, wmax, "BFNeural.wb")
        wm = [[int(v) for v in row] for row in payload["wm"]]
        if cfg.ht:
            expect_range([min(map(min, wm)), max(map(max, wm))], wmin, wmax, "BFNeural.wm")
        wrs = [int(v) for v in payload["wrs"]]
        expect_range(wrs, wmin, wmax, "BFNeural.wrs")
        recent_paths = [int(v) for v in payload["recent_paths"]]
        expect_range(recent_paths, 0, 0xFFFF, "BFNeural.recent_paths")
        recent_bits = int(payload["recent_bits"])
        expect_range([recent_bits], 0, U64, "BFNeural.recent_bits")
        theta = int(payload["theta"])
        expect_range(
            [theta],
            min(1, cfg.initial_theta),
            max(_THETA_MAX, cfg.initial_theta),
            "BFNeural.theta",
        )
        withloop = int(payload["withloop"])
        expect_range([withloop], -64, 63, "BFNeural.withloop")
        self.bst.restore(payload["bst"])
        self.rs.restore(payload["rs"])
        self._folds.restore(payload["folds"])
        if self.loop is not None:
            self.loop.restore(payload["loop"])
        self._wb = wb
        self._wm = wm
        self._wrs = wrs
        self._withloop = withloop
        self.theta = theta
        self._tc = int(payload["tc"])
        self._recent_bits = recent_bits
        self._recent_paths = recent_paths
        scratch = payload["scratch"]
        expect_keys(
            scratch,
            ("status", "accum", "used_weights", "wm_rows", "wm_signs", "wrs_idx",
             "wrs_signs", "bias_index", "neural_pred", "loop_pred", "loop_valid",
             "pred", "provider"),
            "BFNeural.scratch",
        )
        self._last_status = BranchStatus(scratch["status"])
        self._last_accum = int(scratch["accum"])
        self._last_used_weights = bool(scratch["used_weights"])
        self._last_wm_rows = [int(v) for v in scratch["wm_rows"]]
        self._last_wm_signs = [int(v) for v in scratch["wm_signs"]]
        self._last_wrs_idx = [int(v) for v in scratch["wrs_idx"]]
        self._last_wrs_signs = [int(v) for v in scratch["wrs_signs"]]
        self._last_bias_index = int(scratch["bias_index"])
        self._last_neural_pred = bool(scratch["neural_pred"])
        self._last_loop_pred = bool(scratch["loop_pred"])
        self._last_loop_valid = bool(scratch["loop_valid"])
        self._last_pred = bool(scratch["pred"])
        self._last_provider = str(scratch["provider"])
