"""Unit and property tests for repro.common.bitops."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitops import fold_bits, hash_combine, is_power_of_two, mask, mix64


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_small_widths(self):
        assert mask(1) == 1
        assert mask(4) == 15
        assert mask(8) == 255

    def test_large_width(self):
        assert mask(64) == (1 << 64) - 1

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)

    @given(st.integers(min_value=0, max_value=256))
    def test_mask_is_all_ones(self, bits):
        value = mask(bits)
        assert value == (1 << bits) - 1
        assert value.bit_count() == bits


class TestIsPowerOfTwo:
    def test_powers(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_non_powers(self):
        for value in (0, 3, 5, 6, 7, 9, 12, 100, -2, -8):
            assert not is_power_of_two(value)


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_fits_64_bits(self):
        for value in (0, 1, 2**63, 2**64 - 1, 2**80):
            assert 0 <= mix64(value) < 2**64

    def test_disperses_adjacent_inputs(self):
        outputs = {mix64(i) for i in range(1000)}
        assert len(outputs) == 1000

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_low_bits_change(self, value):
        # Adjacent inputs should differ in the low bits used as indices.
        assert (mix64(value) ^ mix64(value + 1)) & 0xFFFF != 0


class TestHashCombine:
    def test_order_sensitive(self):
        assert hash_combine(1, 2) != hash_combine(2, 1)

    def test_arity_sensitive(self):
        assert hash_combine(1) != hash_combine(1, 0)

    def test_deterministic(self):
        assert hash_combine(7, 8, 9) == hash_combine(7, 8, 9)

    def test_range(self):
        assert 0 <= hash_combine(1, 2, 3) < 2**64


class TestFoldBits:
    def test_identity_when_fits(self):
        assert fold_bits(0b1011, 4, 4) == 0b1011
        assert fold_bits(0b1011, 4, 8) == 0b1011

    def test_simple_fold(self):
        # 1011_0110 folded to 4 bits: 0110 ^ 1011 = 1101
        assert fold_bits(0b1011_0110, 8, 4) == 0b1101

    def test_masks_out_of_range_bits(self):
        # Bits beyond `width` must be ignored.
        assert fold_bits(0b1_0001, 4, 4) == 0b0001

    def test_zero(self):
        assert fold_bits(0, 100, 7) == 0

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            fold_bits(1, 4, 0)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            fold_bits(1, -1, 4)

    @given(
        st.integers(min_value=0, max_value=2**128 - 1),
        st.integers(min_value=1, max_value=128),
        st.integers(min_value=1, max_value=32),
    )
    def test_result_fits_target(self, value, width, target):
        assert 0 <= fold_bits(value, width, target) < (1 << target)

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=1, max_value=16),
    )
    def test_xor_homomorphism(self, value, target):
        """Folding distributes over XOR: fold(a^b) == fold(a)^fold(b)."""
        other = 0x5A5A_5A5A_5A5A_5A5A
        left = fold_bits(value ^ other, 64, target)
        right = fold_bits(value, 64, target) ^ fold_bits(other, 64, target)
        assert left == right

    @given(
        st.integers(min_value=0, max_value=2**700 - 1),
        st.integers(min_value=0, max_value=600),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=300)
    def test_matches_chunk_loop(self, value, width, target):
        """The halving fold equals XORing the chunks one at a time."""
        assert fold_bits(value, width, target) == chunk_fold(value, width, target)


def chunk_fold(value: int, width: int, target: int) -> int:
    """Reference fold: XOR consecutive ``target``-bit chunks in order."""
    value &= (1 << width) - 1
    folded = 0
    while value:
        folded ^= value & ((1 << target) - 1)
        value >>= target
    return folded
