"""Bit-manipulation helpers used by predictor index functions.

Hardware branch predictors index SRAM arrays with cheap hash functions of
the branch address and history bits.  The helpers here provide the same
building blocks in software: masking to a power-of-two range, folding a
long bit string into a short one with XOR, and a 64-bit finalizer-style
mixer used where the paper says "hash".
"""

from __future__ import annotations

#: All-ones 64-bit mask, and the two splitmix64 finalizer multipliers
#: ``mix64`` uses; hot loops that inline the mixer read them from here.
U64 = (1 << 64) - 1
MIX64_M1 = 0xBF58476D1CE4E5B9
MIX64_M2 = 0x94D049BB133111EB


def mask(bits: int) -> int:
    """Return a bit mask with the low ``bits`` bits set.

    >>> mask(4)
    15
    """
    if bits < 0:
        raise ValueError(f"bit width must be non-negative, got {bits}")
    return (1 << bits) - 1


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def mix64(value: int) -> int:
    """Finalize-mix a 64-bit integer (splitmix64 finalizer).

    Used wherever the paper writes ``hash(...)``: a cheap, well-dispersed
    mapping from a combined key to a table index.
    """
    value &= U64
    value = (value ^ (value >> 30)) * MIX64_M1 & U64
    value = (value ^ (value >> 27)) * MIX64_M2 & U64
    return value ^ (value >> 31)


def hash_combine(*values: int) -> int:
    """Combine several integer keys into one 64-bit hash.

    The combination is order-sensitive so that ``hash_combine(a, b)`` and
    ``hash_combine(b, a)`` differ, matching the role of the distinct XOR
    inputs in Algorithm 2 of the paper.
    """
    acc = 0x9E3779B97F4A7C15
    for value in values:
        acc = mix64(acc ^ (value & U64))
    return acc


def fold_bits(value: int, width: int, target_bits: int) -> int:
    """Fold a ``width``-bit value down to ``target_bits`` by XOR of chunks.

    This is the paper's "folded" global history: consecutive groups of
    history bits are XORed together until the result fits the predictor
    index width (Section IV-A).  The chunks are combined as a log-depth
    tree, the way a hardware XOR tree would: while more than one chunk
    remains, the high half of the chunks is XORed onto the low half.
    XOR is associative, so this equals XORing the chunks one at a time.

    >>> fold_bits(0b1011_0110, 8, 4)
    13
    """
    if target_bits <= 0:
        raise ValueError(f"target width must be positive, got {target_bits}")
    if width < 0:
        raise ValueError(f"source width must be non-negative, got {width}")
    value &= (1 << width) - 1
    chunks = -(-width // target_bits)
    while chunks > 1:
        chunks = (chunks + 1) >> 1
        shift = chunks * target_bits
        value = (value & ((1 << shift) - 1)) ^ (value >> shift)
    return value
