"""Global-history registers: plain rings and incrementally folded forms.

Predictors need two views of the branch outcome stream:

* ``HistoryRing`` — the raw, unfiltered global history (the paper's
  ``GHRunfiltered``), kept in a ring buffer so arbitrary recent depths can
  be inspected without shifting cost.
* ``FoldedHistory`` — an incrementally maintained XOR-fold of the most
  recent ``length`` history bits down to ``width`` bits, the standard
  circular-shift-register trick TAGE uses; the Bias-Free paper folds
  history the same way for its index hashes (Section IV-A).
* ``MultiFoldedHistory`` — a bank of ``FoldedHistory`` registers at a
  ladder of depths.  BF-Neural needs the folded history *from an RS
  entry's positional depth up to now*; maintaining a register per
  quantized depth makes that O(1) per prediction.
"""

from __future__ import annotations

from repro.common.bitops import fold_bits, mask
from repro.common.state import expect_keys, expect_length


class HistoryRing:
    """A ring buffer over the most recent ``capacity`` branch outcomes.

    Index 0 is the most recent outcome, index 1 the one before, etc.
    Entries are stored as 0/1 integers.
    """

    __slots__ = ("_buf", "_count", "_head", "capacity")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._buf = [0] * capacity
        self._head = 0  # slot that will receive the next push
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push(self, taken: bool) -> int:
        """Record an outcome; return the bit that fell off the end (0/1).

        Before the ring is full the returned "evicted" bit is 0, matching
        a hardware shift register initialized to zero.
        """
        evicted = self._buf[self._head]
        self._buf[self._head] = 1 if taken else 0
        self._head = (self._head + 1) % self.capacity
        if self._count < self.capacity:
            self._count += 1
            evicted = 0
        return evicted

    def at(self, depth: int) -> int:
        """Return the outcome bit ``depth`` branches ago (depth 0 = latest)."""
        if not 0 <= depth < self.capacity:
            raise IndexError(f"depth {depth} outside ring of {self.capacity}")
        return self._buf[(self._head - 1 - depth) % self.capacity]

    def recent_bits(self, count: int) -> int:
        """Pack the ``count`` most recent outcomes into an int (bit 0 = latest)."""
        if not 0 <= count <= self.capacity:
            raise ValueError(f"count {count} outside [0, {self.capacity}]")
        value = 0
        for depth in range(count):
            value |= self.at(depth) << depth
        return value

    def clear(self) -> None:
        self._buf = [0] * self.capacity
        self._head = 0
        self._count = 0

    def snapshot(self) -> dict:
        """JSON-safe copy of the ring contents and cursor."""
        return {"buf": list(self._buf), "head": self._head, "count": self._count}

    def restore(self, state: dict) -> None:
        """Re-install a :meth:`snapshot`; the capacity must match."""
        expect_keys(state, ("buf", "head", "count"), "HistoryRing")
        expect_length(state["buf"], self.capacity, "HistoryRing.buf")
        self._buf = list(state["buf"])
        self._head = state["head"] % self.capacity
        self._count = min(int(state["count"]), self.capacity)


class FoldedHistory:
    """Incrementally maintained fold of the last ``length`` bits to ``width``.

    The invariant (checked in tests against a naive refold) is::

        self.value == fold_bits(packed recent `length` outcomes, length, width)

    Each ``update`` rotates the fold left by one, XORs in the incoming bit
    at position 0 and cancels the outgoing bit at its folded position.
    """

    __slots__ = ("_mask", "_outgoing_pos", "length", "value", "width")

    def __init__(self, length: int, width: int) -> None:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.length = length
        self.width = width
        self._outgoing_pos = length % width
        self._mask = mask(width)
        self.value = 0

    def update(self, incoming: int, outgoing: int) -> None:
        """Shift in the newest bit and cancel the bit leaving the window."""
        if self.length == 0:
            return
        width_mask = self._mask
        v = self.value
        # Rotate left by 1 within `width` bits, then inject the new bit.
        v = ((v << 1) | incoming) & width_mask
        v ^= (self.value >> (self.width - 1)) & 1
        # The outgoing bit was injected `length` updates ago; after the
        # rotations it sits at position length % width.
        v ^= outgoing << self._outgoing_pos
        v &= width_mask
        self.value = v

    def clear(self) -> None:
        self.value = 0

    def snapshot(self) -> int:
        """The fold register value (geometry is configuration, not state)."""
        return self.value

    def restore(self, state: int) -> None:
        if not isinstance(state, int) or not 0 <= state < (1 << self.width):
            raise ValueError(
                f"FoldedHistory: value {state!r} outside {self.width}-bit register"
            )
        self.value = state


def naive_fold(ring: HistoryRing, length: int, width: int) -> int:
    """Reference fold: pack the most recent ``length`` bits and fold them.

    Bit ordering matches ``FoldedHistory``: the *newest* bit in the window
    is bit 0 of the packed value, so each new outcome shifts the packed
    value left — mirroring the rotate-left of the incremental form.
    """
    packed = 0
    usable = min(length, len(ring))
    for depth in range(usable):
        packed |= ring.at(depth) << depth
    return fold_bits(packed, length, width)


class MultiFoldedHistory:
    """A ladder of folded-history registers over one outcome stream.

    ``depths`` is a sorted list of window lengths.  ``folded_at(depth)``
    returns the folded value for the largest maintained window that does
    not exceed ``depth`` — the quantization BF-Neural uses to attach "the
    folded history from the RS entry to now" to its index hash without
    per-entry recomputation.
    """

    def __init__(self, depths: list[int], width: int, ring_capacity: int) -> None:
        if not depths:
            raise ValueError("at least one depth is required")
        if sorted(depths) != list(depths) or len(set(depths)) != len(depths):
            raise ValueError(f"depths must be strictly increasing, got {depths}")
        if depths[-1] > ring_capacity:
            raise ValueError(
                f"deepest window {depths[-1]} exceeds ring capacity {ring_capacity}"
            )
        self.depths = list(depths)
        self.width = width
        self._ring = HistoryRing(ring_capacity)
        self._folds = [FoldedHistory(depth, width) for depth in depths]

    def push(self, taken: bool) -> None:
        """Record one outcome and advance every folded register."""
        incoming = 1 if taken else 0
        ring_at = self._ring.at
        count_before = len(self._ring)
        for fold in self._folds:
            # The bit leaving each window is the one at depth length-1
            # *before* the push (zero while the window is not yet full).
            if count_before >= fold.length and fold.length > 0:
                outgoing = ring_at(fold.length - 1)
            else:
                outgoing = 0
            fold.update(incoming, outgoing)
        self._ring.push(taken)

    def folded_at(self, depth: int) -> int:
        """Folded history over the largest window ``<= depth`` (0 if none)."""
        best = 0
        for fold in self._folds:
            if fold.length <= depth:
                best = fold.value
            else:
                break
        return best

    def exact(self, depth: int) -> int:
        """Folded history for a window that must be maintained exactly."""
        for fold in self._folds:
            if fold.length == depth:
                return fold.value
        raise KeyError(f"no folded register maintained for depth {depth}")

    @property
    def ring(self) -> HistoryRing:
        return self._ring

    def clear(self) -> None:
        self._ring.clear()
        for fold in self._folds:
            fold.clear()

    def snapshot(self) -> dict:
        """Ring contents plus every folded register value."""
        return {
            "ring": self._ring.snapshot(),
            "folds": [fold.snapshot() for fold in self._folds],
        }

    def restore(self, state: dict) -> None:
        """Re-install a :meth:`snapshot`; the depth ladder must match."""
        expect_keys(state, ("ring", "folds"), "MultiFoldedHistory")
        expect_length(state["folds"], len(self._folds), "MultiFoldedHistory.folds")
        self._ring.restore(state["ring"])
        for fold, value in zip(self._folds, state["folds"]):
            fold.restore(value)
