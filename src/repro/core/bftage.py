"""BF-TAGE: TAGE indexed by the bias-free global history (Section V).

Structurally BF-TAGE is a conventional TAGE — the same tagged tables,
useful bits, allocation and aging — but the tagged tables are indexed by
prefixes of the *BF-GHR* built from segmented recency stacks instead of
prefixes of the raw global history.  The compressed history lengths for
the 10-table configuration, {3, 8, 14, 26, 40, 54, 70, 94, 118, 142},
are the paper's (Section VI-C); smaller table counts use prefixes.

Because recency-stack management re-orders the BF-GHR on every commit,
its folds cannot be kept incrementally like TAGE's CSRs.  Each
prediction therefore folds every table's BF-GHR prefix (3 bits per
position, at most 426 bits for the 142-position table) from scratch, as
the hardware hash tree would.  ``fold_bits`` does this in a log-depth
number of XOR steps; the steps depend only on the prefix width and the
fold target, so :func:`fold_steps` lists them once per (table, target)
in ``__init__`` and each event only applies them.  The BF-GHR itself is
kept packed as it changes: ``SegmentedRecencyStacks.commit`` shifts each
segment's packed bits in place, so ``packed_ghr`` is one OR-and-shift
per segment.

``BFISLTage`` adds the loop predictor and statistical corrector overlay,
mirroring BF-ISL-TAGE in Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.bitops import mask
from repro.common.state import expect_keys
from repro.core.bst import BranchStatusTable
from repro.core.segments import DEFAULT_BOUNDARIES, SegmentedRecencyStacks
from repro.predictors.tage.isl import ISLTage
from repro.predictors.tage.tage import Tage, TageConfig, _default_sizing

#: Compressed (BF-GHR) history lengths for the 10-table configuration.
BF_10_TABLE_LENGTHS = [3, 8, 14, 26, 40, 54, 70, 94, 118, 142]

#: Table I sizing for the 10-table configuration: Kentries 2,2,2,4,4,4,
#: 2,2,1,1 and tag widths 7..15.
_TABLE_I_LOG2 = [11, 11, 11, 12, 12, 12, 11, 11, 10, 10]
_TABLE_I_TAGS = [7, 7, 8, 9, 10, 11, 11, 13, 14, 15]


# perf: allow(REPRO401, REPRO402): runs once per geometry, never per event
def fold_steps(width: int, target_bits: int) -> tuple[tuple[int, int], ...]:
    """The XOR steps of ``fold_bits(value, width, target_bits)``.

    Each ``(shift, low_mask)`` step maps ``v`` to
    ``(v & low_mask) ^ (v >> shift)``; applied in order to
    ``value & mask(width)`` they fold it exactly as ``fold_bits`` does,
    the same log-depth chunk tree with its loop bounds precomputed.
    """
    if target_bits <= 0:
        raise ValueError(f"target width must be positive, got {target_bits}")
    steps = []
    chunks = -(-width // target_bits)
    while chunks > 1:
        chunks = (chunks + 1) >> 1
        shift = chunks * target_bits
        steps.append((shift, (1 << shift) - 1))
    return tuple(steps)


def bf_lengths(num_tables: int) -> list[int]:
    """Compressed history lengths for a BF-TAGE with ``num_tables``."""
    if not 1 <= num_tables <= len(BF_10_TABLE_LENGTHS):
        raise ValueError(
            f"BF-TAGE supports 1..{len(BF_10_TABLE_LENGTHS)} tables, got {num_tables}"
        )
    return BF_10_TABLE_LENGTHS[:num_tables]


@dataclass
class BFTageConfig:
    """Structural parameters of BF-TAGE."""

    num_tables: int = 10
    base_log2_entries: int = 14
    history_lengths: list[int] = field(default_factory=list)
    log2_entries: list[int] = field(default_factory=list)
    tag_bits: list[int] = field(default_factory=list)
    bst_entries: int = 8192
    probabilistic_bst: bool = False
    boundaries: list[int] = field(default_factory=lambda: list(DEFAULT_BOUNDARIES))
    rs_size: int = 8
    unfiltered_bits: int = 16
    path_bits: int = 16
    useful_reset_period: int = 1 << 14
    seed: int = 0xBF7A

    def __post_init__(self) -> None:
        if not self.history_lengths:
            self.history_lengths = bf_lengths(self.num_tables)
        if not self.log2_entries or not self.tag_bits:
            if self.num_tables == 10:
                log2, tags = list(_TABLE_I_LOG2), list(_TABLE_I_TAGS)
            else:
                log2, tags = _default_sizing(self.num_tables)
            self.log2_entries = self.log2_entries or log2
            self.tag_bits = self.tag_bits or tags

    @classmethod
    def for_tables(cls, num_tables: int) -> "BFTageConfig":
        return cls(num_tables=num_tables)

    def to_tage_config(self) -> TageConfig:
        return TageConfig(
            num_tables=self.num_tables,
            base_log2_entries=self.base_log2_entries,
            history_lengths=list(self.history_lengths),
            log2_entries=list(self.log2_entries),
            tag_bits=list(self.tag_bits),
            path_bits=self.path_bits,
            useful_reset_period=self.useful_reset_period,
            seed=self.seed,
        )


class BFTage(Tage):
    """TAGE over the bias-free global history register.

    ``bias_oracle`` replaces the runtime BST with a profile-assisted
    classification (pc -> biased direction or None), the §VI-D variant
    that restores the SERV traces' accuracy: dynamic detection misfiles
    phase-changing branches, a profile does not.
    """

    name = "bf-tage"

    def __init__(
        self,
        config: BFTageConfig | None = None,
        bias_oracle=None,
    ) -> None:
        self.bf_config = config if config is not None else BFTageConfig()
        super().__init__(self.bf_config.to_tage_config())
        self.bst = BranchStatusTable(
            entries=self.bf_config.bst_entries,
            probabilistic=self.bf_config.probabilistic_bst,
        )
        self.bias_oracle = bias_oracle
        self.segments = SegmentedRecencyStacks(
            boundaries=self.bf_config.boundaries,
            rs_size=self.bf_config.rs_size,
            unfiltered_bits=self.bf_config.unfiltered_bits,
        )
        # Per-table fold geometry, fixed by the config: the mask of the
        # BF-GHR prefix (3 bits per position) and the fold steps to the
        # index width and the two tag widths.
        cfg = self.config
        self._ghr_positions = cfg.history_lengths[-1]
        self._ghr_folds = tuple(
            (
                mask(3 * length),
                fold_steps(3 * length, log2),
                fold_steps(3 * length, tag_bits),
                fold_steps(3 * length, max(1, tag_bits - 1)),
            )
            for length, log2, tag_bits in zip(
                cfg.history_lengths, cfg.log2_entries, cfg.tag_bits
            )
        )

    # ------------------------------------------------------------------
    # Index computation from the BF-GHR
    # ------------------------------------------------------------------

    def _compute_indices(self, pc: int) -> None:
        # TaggedTable.index_of/tag_of over BF-GHR prefix folds, inlined
        # over the constants from __init__ (once per event per table):
        # each fold is fold_bits of the table's prefix, step by step.
        packed_ghr, _ = self.segments.packed_ghr(self._ghr_positions)
        path = self._path_history & self._path_mask
        indices = self._last_indices
        tags = self._last_tags
        i = 0
        for (shift, index_mask, tag_mask), folds in zip(self._table_hash, self._ghr_folds):
            prefix_mask, index_steps, tag_steps, tag2_steps = folds
            index_fold = tag_fold_1 = tag_fold_2 = packed_ghr & prefix_mask
            for step, low in index_steps:
                index_fold = (index_fold & low) ^ (index_fold >> step)
            for step, low in tag_steps:
                tag_fold_1 = (tag_fold_1 & low) ^ (tag_fold_1 >> step)
            for step, low in tag2_steps:
                tag_fold_2 = (tag_fold_2 & low) ^ (tag_fold_2 >> step)
            indices[i] = (pc ^ (pc >> shift) ^ index_fold ^ path) & index_mask
            tags[i] = (pc ^ tag_fold_1 ^ (tag_fold_2 << 1)) & tag_mask
            i += 1

    # ------------------------------------------------------------------
    # History advance: BST classification feeds the segmented stacks
    # ------------------------------------------------------------------

    def _advance_histories(self, pc: int, taken: bool) -> None:
        if self.bias_oracle is not None:
            non_biased = self.bias_oracle(pc) is None
        else:
            self.bst.observe(pc, taken)
            non_biased = self.bst.is_non_biased(pc)
        self.segments.commit(pc, taken, non_biased)
        self._path_history = ((self._path_history << 1) | (pc & 1)) & self._path_mask

    def reset(self) -> None:
        self.__init__(self.bf_config, self.bias_oracle)

    def storage_bits(self) -> int:
        bits = self.base.storage_bits()
        for table in self.tables:
            bits += table.storage_bits()
        bits += self.bst.storage_bits()
        bits += self.segments.storage_bits()
        bits += self.config.path_bits
        return bits

    def _state_payload(self) -> dict:
        payload = super()._state_payload()
        payload["bst"] = self.bst.snapshot()
        payload["segments"] = self.segments.snapshot()
        return payload

    def _restore_payload(self, payload: dict) -> None:
        expect_keys(payload, ("bst", "segments"), "BFTage")
        super()._restore_payload(
            {k: v for k, v in payload.items() if k not in ("bst", "segments")}
        )
        self.bst.restore(payload["bst"])
        self.segments.restore(payload["segments"])


class BFISLTage(ISLTage):
    """BF-ISL-TAGE: BF-TAGE plus loop predictor and statistical corrector."""

    name = "bf-isl-tage"

    def __init__(
        self,
        config: BFTageConfig | None = None,
        with_loop_predictor: bool = True,
        with_statistical_corrector: bool = True,
    ) -> None:
        super().__init__(
            core=BFTage(config),
            with_loop_predictor=with_loop_predictor,
            with_statistical_corrector=with_statistical_corrector,
        )
