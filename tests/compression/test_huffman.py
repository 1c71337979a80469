"""Unit tests for the canonical Huffman coder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.huffman import (
    HuffmanCode,
    decode,
    encode,
    encoded_size,
)


class TestHuffmanCode:
    def test_canonical_assignment_is_prefix_free(self):
        symbols = np.array([10, 20, 30, 40], dtype=np.int64)
        lengths = np.array([1, 2, 3, 3], dtype=np.uint8)
        code = HuffmanCode(symbols, lengths)
        words = [
            format(int(c), f"0{int(l)}b") for c, l in zip(code.codes, code.lengths)
        ]
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                if i != j:
                    assert not b.startswith(a), (a, b)

    def test_kraft_violation_rejected(self):
        with pytest.raises(ValueError):
            HuffmanCode(np.array([1, 2, 3]), np.array([1, 1, 1], dtype=np.uint8))

    def test_from_frequencies_optimality_order(self):
        # More frequent symbols never get longer codes.
        symbols = np.arange(5, dtype=np.int64)
        freqs = np.array([100, 50, 20, 5, 1], dtype=np.int64)
        code = HuffmanCode.from_frequencies(symbols, freqs)
        lens = code.lengths.astype(int)
        assert all(lens[i] <= lens[i + 1] for i in range(4))

    def test_single_symbol(self):
        code = HuffmanCode.from_frequencies(np.array([42]), np.array([7]))
        assert list(code.lengths) == [1]

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            HuffmanCode.from_frequencies(np.empty(0, dtype=np.int64), np.empty(0))

    def test_serialization_roundtrip(self):
        code = HuffmanCode.from_frequencies(
            np.array([-5, 0, 7, 123456789]), np.array([3, 9, 1, 2])
        )
        blob = code.to_bytes()
        back, offset = HuffmanCode.from_bytes(blob)
        assert offset == len(blob)
        assert np.array_equal(back.symbols, code.symbols)
        assert np.array_equal(back.lengths, code.lengths)
        assert np.array_equal(back.codes, code.codes)


class TestEncodeDecode:
    def test_empty(self):
        assert decode(encode(np.empty(0, dtype=np.int64))).shape == (0,)

    def test_single_value_stream(self):
        vals = np.full(100, 7, dtype=np.int64)
        assert np.array_equal(decode(encode(vals)), vals)

    def test_two_symbols(self):
        vals = np.array([0, 1, 0, 0, 1, 1, 0], dtype=np.int64)
        assert np.array_equal(decode(encode(vals)), vals)

    def test_negative_symbols(self):
        vals = np.array([-3, -1, -3, 5, 0, -1], dtype=np.int64)
        assert np.array_equal(decode(encode(vals)), vals)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_streams(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.integers(-50, 50, size=3000).astype(np.int64)
        assert np.array_equal(decode(encode(vals)), vals)

    def test_skewed_distribution_compresses(self):
        rng = np.random.default_rng(9)
        vals = rng.choice([0, 0, 0, 0, 0, 0, 1, 2], size=8000).astype(np.int64)
        blob = encode(vals)
        assert len(blob) < vals.nbytes / 4

    def test_large_symbol_values(self):
        vals = np.array([2**40, -(2**40), 0, 2**40], dtype=np.int64)
        assert np.array_equal(decode(encode(vals)), vals)

    def test_truncated_stream_detected(self):
        vals = np.arange(100, dtype=np.int64)
        blob = encode(vals)
        with pytest.raises(ValueError):
            decode(blob[:-5])


class TestEncodedSize:
    @settings(max_examples=60, deadline=None)
    @given(freqs=st.lists(st.integers(1, 5000), min_size=1, max_size=300),
           offset=st.integers(-(1 << 40), 1 << 40))
    def test_matches_encoded_length(self, freqs, offset):
        symbols = offset + 3 * np.arange(len(freqs), dtype=np.int64)
        values = np.repeat(symbols, freqs)
        np.random.default_rng(len(freqs)).shuffle(values)
        code = HuffmanCode.from_frequencies(symbols, np.array(freqs))
        assert encoded_size(freqs, code.lengths) == len(encode(values))
