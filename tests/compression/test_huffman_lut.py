"""The table-driven Huffman decoder against the per-bit trie oracle.

The LUT decoder (``decode_lut``) must be element-identical to the original
trie walk (``decode_trie``) on every stream — the trie is the oracle these
property tests pit it against, across alphabet widths (including past the
2^12 symbols the old szlike cap allowed), stream lengths past 2^14,
skewed/degenerate frequencies, and hand-built maximum-length codes the
frequency constructor would never emit. A golden blob pins the serialized
format byte-for-byte: blobs written before the fast path existed must
decode unchanged.
"""

import numpy as np
import pytest

from repro.compression.huffman import (
    HuffmanCode,
    decode,
    decode_lut,
    decode_trie,
    encode,
    encode_ranks,
    encode_with_code,
)

RNG = np.random.default_rng(20260806)


def both_decoders_agree(blob: bytes) -> np.ndarray:
    via_lut = decode_lut(blob)
    via_trie = decode_trie(blob)
    assert via_lut.dtype == via_trie.dtype == np.int64
    assert np.array_equal(via_lut, via_trie)
    # the public dispatcher must match whichever path it picked
    assert np.array_equal(decode(blob), via_lut)
    return via_lut


class TestLutVsTrieOracle:
    @pytest.mark.parametrize("n", [1, 17, 255, 256, 4096, (1 << 14) + 3])
    def test_random_streams_all_sizes(self, n):
        vals = RNG.integers(-50, 50, size=n).astype(np.int64)
        assert np.array_equal(both_decoders_agree(encode(vals)), vals)

    @pytest.mark.parametrize("alphabet_bits", [4, 8, 13, 14])
    def test_alphabets_past_the_old_cap(self, alphabet_bits):
        # alphabet_bits > 12 exceeds the old _HUFFMAN_MAX_ALPHABET = 2^12
        n = 1 << 15
        vals = RNG.integers(0, 1 << alphabet_bits, size=n).astype(np.int64)
        assert np.array_equal(both_decoders_agree(encode(vals)), vals)

    def test_skewed_frequencies(self):
        n = 1 << 15
        vals = np.where(
            RNG.random(n) < 0.995, 0,
            RNG.integers(1, 3000, size=n)).astype(np.int64)
        assert np.array_equal(both_decoders_agree(encode(vals)), vals)

    def test_degenerate_single_symbol(self):
        vals = np.full(1 << 14, -9, dtype=np.int64)
        assert np.array_equal(both_decoders_agree(encode(vals)), vals)

    def test_geometric_like_zigzag_deltas(self):
        # the regime szlike actually feeds the coder
        n = 1 << 16
        vals = RNG.geometric(0.03, size=n).astype(np.int64)
        assert np.array_equal(both_decoders_agree(encode(vals)), vals)

    def test_negative_and_huge_symbols(self):
        n = 1 << 14
        vals = RNG.integers(-(1 << 40), 1 << 40, size=n).astype(np.int64)
        assert np.array_equal(both_decoders_agree(encode(vals)), vals)

    def test_max_length_codes_via_explicit_code(self):
        # A maximally unbalanced code (lengths 1, 2, ..., k-1, k-1) pushes
        # codewords past the 16-bit LUT window, forcing the searchsorted
        # escape lane — from_frequencies would need astronomically skewed
        # counts to produce this, so build it by hand.
        k = 24
        lengths = np.array(
            list(range(1, k)) + [k - 1], dtype=np.uint8)  # unary-style, Kraft = 1
        symbols = np.arange(k, dtype=np.int64)
        code = HuffmanCode(symbols, lengths)
        # weight toward the deep (long-code) symbols so escapes dominate
        vals = RNG.integers(k // 2, k, size=1 << 14).astype(np.int64)
        blob = encode_with_code(vals, code)
        assert np.array_equal(both_decoders_agree(blob), vals)

    def test_encode_with_code_rejects_foreign_symbols(self):
        code = HuffmanCode.from_frequencies(
            np.array([1, 2, 3]), np.array([5, 3, 2]))
        with pytest.raises(ValueError):
            encode_with_code(np.array([1, 2, 99], dtype=np.int64), code)

    def test_vectorized_canonical_assignment_matches_reference(self):
        # canonical rule: code_i = (code_{i-1} + 1) << (len_i - len_{i-1})
        # in (length, symbol) order — check the cumsum construction on a
        # mixed-length code against the sequential definition.
        lengths = np.array([2, 2, 4, 4, 3, 2], dtype=np.uint8)  # Kraft = 1
        symbols = np.array([5, 0, 9, 1, -2, 7], dtype=np.int64)
        code = HuffmanCode(symbols, lengths)
        order = np.lexsort((symbols, lengths))
        expect, prev_len, c = {}, 0, 0
        for rank in order:
            ln = int(lengths[rank])
            c <<= ln - prev_len
            expect[rank] = c
            c += 1
            prev_len = ln
        for rank, want in expect.items():
            assert int(code.codes[rank]) == want


class TestGoldenBlob:
    # Emitted by encode() when the LUT decoder landed; pins the wire
    # format — n (u64) + k (u32) + int64 symbols + uint8 lengths +
    # total_bits (u64) + packed big-endian codewords.
    GOLDEN_VALUES = np.array([3, -1, 3, 3, 0, 7, 3, -1, 0, 3], dtype=np.int64)
    GOLDEN_HEX = (
        "0a0000000000000004000000ffffffffffffffff000000000000000003000000"
        "00000000070000000000000003020103120000000000000062ed00"
    )

    def test_encode_is_byte_stable(self):
        assert encode(self.GOLDEN_VALUES).hex() == self.GOLDEN_HEX

    def test_golden_blob_decodes_on_every_path(self):
        blob = bytes.fromhex(self.GOLDEN_HEX)
        assert np.array_equal(decode_lut(blob), self.GOLDEN_VALUES)
        assert np.array_equal(decode_trie(blob), self.GOLDEN_VALUES)
        assert np.array_equal(decode(blob), self.GOLDEN_VALUES)

    def test_alphabet_passthrough_is_byte_identical(self):
        # a caller that built the alphabet and code itself frames the
        # same blob from ranks into the symbol table
        vals = RNG.integers(-30, 30, size=5000).astype(np.int64)
        symbols, ranks, freqs = np.unique(
            vals, return_inverse=True, return_counts=True)
        code = HuffmanCode.from_frequencies(symbols, freqs)
        assert encode(vals) == encode_ranks(code, ranks)


class TestLutStreamValidation:
    def _blob(self, n=1 << 14):
        vals = RNG.geometric(0.1, size=n).astype(np.int64)
        return encode(vals)

    def test_truncated_payload_raises(self):
        blob = self._blob()
        for cut in (1, 5, 50):
            with pytest.raises(ValueError):
                decode_lut(blob[:-cut])

    def test_trie_fallback_for_tiny_streams(self):
        # below _LUT_MIN_ELEMENTS the dispatcher walks the trie; both
        # answers must still agree
        vals = RNG.integers(0, 9, size=100).astype(np.int64)
        assert np.array_equal(both_decoders_agree(encode(vals)), vals)

    def test_lut_handles_tiny_streams_too(self):
        vals = np.array([1, 2, 1, 1, 3], dtype=np.int64)
        assert np.array_equal(decode_lut(encode(vals)), vals)
