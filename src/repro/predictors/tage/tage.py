"""Conventional TAGE (Seznec & Michaud; configuration per ISL-TAGE).

A bimodal base predictor T0 is backed by N partially tagged tables
T1..TN indexed with geometrically increasing history lengths
L(i) = round(L1 · α^(i-1)).  The longest history table whose tag matches
provides the prediction; the next matching table (or the base) provides
the alternate.  Entries are allocated on mispredictions on tables with
longer history than the provider, steered by useful bits.

The 10-table and 15-table configurations use the history length sets the
paper quotes (§VI-C and footnote 2).

Each table is indexed by three incrementally folded views of the global
history (the index fold, and tag folds of ``tag_bits`` and
``tag_bits - 1`` bits), the circular-shift registers (CSRs) of Seznec's
reference implementations.  All 3·N registers are one flat int list,
``_folds`` (table-major: index, tag 1, tag 2), advanced in one loop over
per-register constants fixed in ``__init__``, the layout
``MultiFoldedHistory`` gives BF-Neural's ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.bitops import mask
from repro.common.rng import XorShift64
from repro.common.state import StateError, expect_keys, expect_length, expect_range
from repro.predictors.base import BranchPredictor
from repro.predictors.static_ import Bimodal
from repro.predictors.tage.components import TaggedTable

#: Maximum geometric history length per tagged-table count, anchoring the
#: sweep of Figure 10.  The 10- and 15-table entries match the paper's
#: quoted ISL-TAGE history sets; intermediate counts interpolate.
MAX_HISTORY_BY_TABLES = {
    4: 26,
    5: 40,
    6: 54,
    7: 70,
    8: 94,
    9: 130,
    10: 195,
    11: 330,
    12: 517,
    13: 800,
    14: 1200,
    15: 1930,
}

#: The exact 15-table ISL-TAGE history lengths from the paper's footnote.
ISL_15_TABLE_LENGTHS = [3, 8, 12, 17, 33, 35, 67, 97, 138, 195, 330, 517, 1193, 1741, 1930]

#: Precomputed provider labels — ``provider`` is read once per branch
#: event under ``track_providers``, so the f-string stays off the hot
#: path (REPRO401).
_PROVIDER_NAMES = tuple(f"T{i + 1}" for i in range(32))


def geometric_lengths(num_tables: int, l1: int = 3, lmax: int | None = None) -> list[int]:
    """History lengths L(i) = round(L1 · α^(i-1)) hitting ``lmax`` at i=N."""
    if num_tables < 1:
        raise ValueError(f"need at least one tagged table, got {num_tables}")
    if lmax is None:
        try:
            lmax = MAX_HISTORY_BY_TABLES[num_tables]
        except KeyError:
            raise ValueError(
                f"no default max history for {num_tables} tables; pass lmax"
            ) from None
    if num_tables == 1:
        return [l1]
    if num_tables == 15 and l1 == 3 and lmax == 1930:
        return list(ISL_15_TABLE_LENGTHS)
    alpha = (lmax / l1) ** (1.0 / (num_tables - 1))
    lengths = []
    for i in range(num_tables):
        length = int(round(l1 * alpha**i))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    return lengths


def _default_sizing(num_tables: int) -> tuple[list[int], list[int]]:
    """(log2 entries, tag bits) per tagged table, ISL-TAGE-style.

    The 10-table sizing follows Table I of the paper (2,2,2,4,4,4,2,2,1,1
    Kentries; tags 7..15); other counts spread a similar budget so every
    Figure 10 point compares equal-storage predictors.
    """
    if num_tables == 10:
        log2 = [11, 11, 11, 12, 12, 12, 11, 11, 10, 10]
        tags = [7, 7, 8, 9, 10, 11, 11, 13, 14, 15]
        return log2, tags
    # Spread tags 7..15 across the tables; middle tables get more entries.
    # Larger table counts shrink per-table entries so the total budget
    # stays near 64 KB (the CBP ISL-TAGE uses ~1K-entry tables at 15).
    tags = [7 + round(8 * i / max(1, num_tables - 1)) for i in range(num_tables)]
    base = 10 if num_tables >= 12 else 11
    log2 = []
    for i in range(num_tables):
        position = i / max(1, num_tables - 1)
        log2.append(base + 1 if 0.25 <= position <= 0.6 else base)
    return log2, tags


@dataclass
class TageConfig:
    """Structural parameters of a TAGE predictor."""

    num_tables: int = 10
    base_log2_entries: int = 14
    history_lengths: list[int] = field(default_factory=list)
    log2_entries: list[int] = field(default_factory=list)
    tag_bits: list[int] = field(default_factory=list)
    path_bits: int = 16
    useful_reset_period: int = 1 << 14
    seed: int = 0x7A6E

    def __post_init__(self) -> None:
        if not self.history_lengths:
            self.history_lengths = geometric_lengths(self.num_tables)
        if not self.log2_entries or not self.tag_bits:
            log2, tags = _default_sizing(self.num_tables)
            self.log2_entries = self.log2_entries or log2
            self.tag_bits = self.tag_bits or tags
        lists = (self.history_lengths, self.log2_entries, self.tag_bits)
        if {len(values) for values in lists} != {self.num_tables}:
            raise ValueError(
                "history_lengths, log2_entries and tag_bits must all have "
                f"num_tables={self.num_tables} elements, got lengths "
                f"{[len(values) for values in lists]}"
            )
        if self.history_lengths != sorted(self.history_lengths):
            raise ValueError(f"history lengths must increase: {self.history_lengths}")
        if self.history_lengths[0] <= 0:
            raise ValueError(f"history lengths must be positive: {self.history_lengths}")

    @classmethod
    def for_tables(cls, num_tables: int) -> "TageConfig":
        return cls(num_tables=num_tables)


class Tage(BranchPredictor):
    """Conventional TAGE over the raw (unfiltered) global history."""

    name = "tage"

    def __init__(self, config: TageConfig | None = None) -> None:
        self.config = config if config is not None else TageConfig()
        cfg = self.config
        self.base = Bimodal(entries=1 << cfg.base_log2_entries)
        self.tables = [
            TaggedTable(cfg.log2_entries[i], cfg.tag_bits[i], cfg.history_lengths[i])
            for i in range(cfg.num_tables)
        ]
        # FoldedHistory.update constants per fold register, table-major
        # (index fold, tag fold, tag fold one bit narrower): window
        # length, width mask, top bit position and the folded position
        # of the bit leaving the window.
        self._fold_registers = tuple(
            (length, mask(width), width - 1, length % width)
            for length, log2, tag_bits in zip(
                cfg.history_lengths, cfg.log2_entries, cfg.tag_bits
            )
            for width in (log2, tag_bits, max(1, tag_bits - 1))
        )
        self._folds = [0] * len(self._fold_registers)
        # Per-table hash constants, fixed by the config: the index
        # shift, index mask and tag mask of TaggedTable.index_of/tag_of.
        self._table_hash = tuple(
            (log2 - 2, (1 << log2) - 1, mask(tag_bits))
            for log2, tag_bits in zip(cfg.log2_entries, cfg.tag_bits)
        )
        self._path_mask = mask(cfg.path_bits)
        max_history = cfg.history_lengths[-1]
        self._history_buffer = [0] * (max_history + 1)
        self._history_head = 0
        self._history_capacity = max_history + 1
        self._path_history = 0
        self._rng = XorShift64(cfg.seed)
        self._use_alt_on_na = 8  # 4-bit counter, midpoint
        self._branch_count = 0
        # Per-prediction scratch, consumed by train().
        self._last_indices: list[int] = [0] * cfg.num_tables
        self._last_tags: list[int] = [0] * cfg.num_tables
        self._last_provider = -1  # -1 = base predictor
        self._last_alt = -1
        self._last_provider_pred = False
        self._last_alt_pred = False
        self._last_pred = False
        self._last_weak_provider = False

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def _compute_indices(self, pc: int) -> None:
        # TaggedTable.index_of/tag_of, inlined over the constants from
        # __init__: this runs once per branch event over every table.
        path = self._path_history & self._path_mask
        indices = self._last_indices
        tags = self._last_tags
        folds = self._folds
        i = 0
        for shift, index_mask, tag_mask in self._table_hash:
            r = 3 * i
            indices[i] = (pc ^ (pc >> shift) ^ folds[r] ^ path) & index_mask
            tags[i] = (pc ^ folds[r + 1] ^ (folds[r + 2] << 1)) & tag_mask
            i += 1

    def predict(self, pc: int) -> bool:
        self._compute_indices(pc)
        provider = -1
        alt = -1
        tables = self.tables
        indices = self._last_indices
        tags = self._last_tags
        for i in range(len(tables) - 1, -1, -1):
            if tables[i].tag[indices[i]] == tags[i]:
                if provider < 0:
                    provider = i
                else:
                    alt = i
                    break
        base_pred = self.base.predict(pc)
        if provider >= 0:
            table = self.tables[provider]
            index = self._last_indices[provider]
            provider_pred = table.predict_at(index)
            alt_pred = (
                self.tables[alt].predict_at(self._last_indices[alt])
                if alt >= 0
                else base_pred
            )
            weak = table.is_weak(index) and table.useful[index] == 0
            if weak and self._use_alt_on_na >= 8:
                prediction = alt_pred
            else:
                prediction = provider_pred
            self._last_weak_provider = weak
            self._last_provider_pred = provider_pred
            self._last_alt_pred = alt_pred
        else:
            prediction = base_pred
            self._last_weak_provider = False
            self._last_provider_pred = base_pred
            self._last_alt_pred = base_pred
        self._last_provider = provider
        self._last_alt = alt
        self._last_pred = prediction
        return prediction

    @property
    def provider(self) -> str:
        """Component that provided the last prediction (Figure 12)."""
        if self._last_provider < 0:
            return "base"
        return _PROVIDER_NAMES[self._last_provider]

    @property
    def provider_table(self) -> int:
        """1-based provider table number; 0 for the base predictor."""
        return self._last_provider + 1

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------

    def train(self, pc: int, taken: bool) -> None:
        provider = self._last_provider
        mispredicted = self._last_pred != taken

        if provider >= 0:
            table = self.tables[provider]
            index = self._last_indices[provider]
            # Track whether alt-on-weak is the better policy.
            if self._last_weak_provider and self._last_provider_pred != self._last_alt_pred:
                if self._last_provider_pred == taken and self._use_alt_on_na > 0:
                    self._use_alt_on_na -= 1
                elif self._last_alt_pred == taken and self._use_alt_on_na < 15:
                    self._use_alt_on_na += 1
            table.update_ctr(index, taken)
            if self._last_provider_pred != self._last_alt_pred:
                table.update_useful(index, self._last_provider_pred == taken)
            # A weak provider lets the alternate keep learning.
            if table.is_weak(index):
                if self._last_alt >= 0:
                    self.tables[self._last_alt].update_ctr(
                        self._last_indices[self._last_alt], taken
                    )
                else:
                    self.base.train(pc, taken)
        else:
            self.base.train(pc, taken)

        if mispredicted and provider < len(self.tables) - 1:
            self._allocate(provider, taken)

        self._advance_histories(pc, taken)
        self._branch_count += 1
        if self._branch_count % self.config.useful_reset_period == 0:
            for table in self.tables:
                table.age_useful()

    def _allocate(self, provider: int, taken: bool) -> None:
        """Install entries on (usually one) longer-history tables."""
        start = provider + 1
        tables = self.tables
        indices = self._last_indices
        tags = self._last_tags
        # perf: allow(REPRO401): mispredict-only, bounded by num_tables
        candidates = [
            i
            for i in range(start, len(tables))
            if tables[i].useful[indices[i]] == 0
        ]
        if not candidates:
            for i in range(start, len(tables)):
                tables[i].update_useful(indices[i], False)
            return
        # Prefer shorter history (probabilistically skip with 1/2 chance),
        # the standard TAGE anti-ping-pong allocation.  The RNG call
        # sequence is bit-identity-pinned — keep draw order intact.
        chance = self._rng.chance
        chosen = candidates[0]
        # perf: allow(REPRO401): mispredict-only slice over <= num_tables candidates
        for candidate in candidates[1:]:
            if chance(1, 2):
                break
            chosen = candidate
        table = tables[chosen]
        table.allocate(indices[chosen], tags[chosen], taken)
        # Probabilistically allocate a second entry two or more tables
        # deeper (TAGE-SC-L style) — speeds convergence on long-history
        # patterns without doubling the allocation pollution.
        if chance(1, 2):
            for candidate in candidates:
                if candidate >= chosen + 2:
                    second = tables[candidate]
                    second.allocate(indices[candidate], tags[candidate], taken)
                    break

    def _advance_histories(self, pc: int, taken: bool) -> None:
        # FoldedHistory.update per register: rotate left within the
        # width, inject the new bit, cancel the bit leaving the window.
        # ``buffer[head - length]`` wraps through negative indexing, as
        # 0 <= head < capacity and every length < capacity.
        incoming = 1 if taken else 0
        head = self._history_head
        buffer = self._history_buffer
        folds = self._folds
        r = 0
        for length, width_mask, top, out_pos in self._fold_registers:
            v = folds[r]
            folds[r] = (
                (((v << 1) | incoming) & width_mask) ^ (v >> top)
                ^ (buffer[head - length] << out_pos)
            )
            r += 1
        buffer[head] = incoming
        head += 1
        self._history_head = 0 if head == self._history_capacity else head
        self._path_history = ((self._path_history << 1) | (pc & 1)) & self._path_mask

    def reset(self) -> None:
        """Restore power-on state (subclasses with extra constructor
        arguments override and re-invoke their own ``__init__``)."""
        self.__init__(self.config)

    def storage_bits(self) -> int:
        bits = self.base.storage_bits()
        for table in self.tables:
            bits += table.storage_bits()
        bits += self.config.history_lengths[-1]  # global history register
        bits += self.config.path_bits
        return bits

    def _state_payload(self) -> dict:
        return {
            "base": self.base.snapshot().payload,
            "tables": [table.snapshot() for table in self.tables],
            "folds": [self._folds[r : r + 3] for r in range(0, len(self._folds), 3)],
            "history_buffer": list(self._history_buffer),
            "history_head": self._history_head,
            "path_history": self._path_history,
            "rng": self._rng.snapshot(),
            "use_alt_on_na": self._use_alt_on_na,
            "branch_count": self._branch_count,
            "last_indices": list(self._last_indices),
            "last_tags": list(self._last_tags),
            "last_provider": self._last_provider,
            "last_alt": self._last_alt,
            "last_provider_pred": self._last_provider_pred,
            "last_alt_pred": self._last_alt_pred,
            "last_pred": self._last_pred,
            "last_weak_provider": self._last_weak_provider,
        }

    def _restore_payload(self, payload: dict) -> None:
        expect_keys(
            payload,
            ("base", "tables", "folds", "history_buffer", "history_head",
             "path_history", "rng", "use_alt_on_na", "branch_count",
             "last_indices", "last_tags", "last_provider", "last_alt",
             "last_provider_pred", "last_alt_pred", "last_pred",
             "last_weak_provider"),
            "Tage",
        )
        expect_length(payload["tables"], len(self.tables), "Tage.tables")
        expect_length(payload["folds"], len(self.tables), "Tage.folds")
        folds = []
        for state in payload["folds"]:
            expect_length(state, 3, "Tage.folds[table]")
            folds.extend(state)
        for value, (_, width_mask, _, _) in zip(folds, self._fold_registers):
            if not isinstance(value, int) or not 0 <= value <= width_mask:
                raise StateError(
                    f"Tage.folds: value {value!r} outside "
                    f"{width_mask.bit_length()}-bit register"
                )
        expect_length(
            payload["history_buffer"], self._history_capacity, "Tage.history_buffer"
        )
        history_buffer = [int(v) for v in payload["history_buffer"]]
        expect_range(history_buffer, 0, 1, "Tage.history_buffer")
        history_head = int(payload["history_head"])
        expect_range([history_head], 0, self._history_capacity - 1, "Tage.history_head")
        self.base._restore_payload(payload["base"])
        for table, state in zip(self.tables, payload["tables"]):
            table.restore(state)
        self._folds = folds
        self._history_buffer = history_buffer
        self._history_head = history_head
        self._path_history = int(payload["path_history"])
        self._rng.restore(payload["rng"])
        self._use_alt_on_na = int(payload["use_alt_on_na"])
        self._branch_count = int(payload["branch_count"])
        self._last_indices = [int(v) for v in payload["last_indices"]]
        self._last_tags = [int(v) for v in payload["last_tags"]]
        self._last_provider = int(payload["last_provider"])
        self._last_alt = int(payload["last_alt"])
        self._last_provider_pred = bool(payload["last_provider_pred"])
        self._last_alt_pred = bool(payload["last_alt_pred"])
        self._last_pred = bool(payload["last_pred"])
        self._last_weak_provider = bool(payload["last_weak_provider"])
