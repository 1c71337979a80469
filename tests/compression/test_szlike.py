"""Unit tests for the SZ-like error-bounded compressor."""

import hashlib

import numpy as np
import pytest

from repro.compression import SZLikeCompressor, get_compressor, huffman
from repro.compression.szlike import blob_entropy
from repro.compression.metrics import max_component_error


def smooth_signal(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 8 * np.pi, n)
    return (np.sin(t) + 0.1 * rng.standard_normal(n)) * np.exp(1j * t / 3) / np.sqrt(n)


class TestRoundTrip:
    @pytest.mark.parametrize("eb", [1e-2, 1e-4, 1e-6, 1e-10])
    def test_abs_bound_respected(self, eb):
        x = smooth_signal(4096)
        c = SZLikeCompressor(error_bound=eb)
        back = c.decompress(c.compress(x))
        assert max_component_error(x, back) <= eb * (1 + 1e-9)

    def test_rel_mode_bound(self):
        x = smooth_signal(2048, seed=1) * 1e-3
        c = SZLikeCompressor(error_bound=1e-3, mode="rel")
        back = c.decompress(c.compress(x))
        planes = np.concatenate([x.real, x.imag])
        realized = 1e-3 * np.max(np.abs(planes))
        assert max_component_error(x, back) <= realized * (1 + 1e-9)

    def test_length_preserved(self):
        x = smooth_signal(777)
        c = SZLikeCompressor()
        assert c.decompress(c.compress(x)).shape == (777,)

    def test_empty_array(self):
        c = SZLikeCompressor()
        out = c.decompress(c.compress(np.empty(0, dtype=np.complex128)))
        assert out.shape == (0,)

    def test_single_element(self):
        x = np.array([0.3 - 0.4j])
        c = SZLikeCompressor(error_bound=1e-6)
        back = c.decompress(c.compress(x))
        assert max_component_error(x, back) <= 1e-6

    def test_all_zero_chunk(self):
        x = np.zeros(1024, dtype=np.complex128)
        c = SZLikeCompressor(error_bound=1e-6)
        blob = c.compress(x)
        assert len(blob) < 200  # must compress extremely well
        assert np.allclose(c.decompress(blob), 0.0, atol=1e-6)


class TestCompression:
    def test_smooth_data_compresses_well(self):
        x = smooth_signal(1 << 14)
        c = SZLikeCompressor(error_bound=1e-4)
        blob = c.compress(x)
        assert x.nbytes / len(blob) > 8

    def test_looser_bound_better_ratio(self):
        x = smooth_signal(1 << 13, seed=3)
        tight = len(SZLikeCompressor(error_bound=1e-8).compress(x))
        loose = len(SZLikeCompressor(error_bound=1e-3).compress(x))
        assert loose < tight

    def test_raw_fallback_on_tight_bound_random_data(self):
        rng = np.random.default_rng(5)
        x = (rng.standard_normal(512) + 1j * rng.standard_normal(512)) * 1e150
        c = SZLikeCompressor(error_bound=1e-300)
        # Quantization would overflow; raw fallback must be *exact*.
        back = c.decompress(c.compress(x))
        assert np.array_equal(back, x)

    def test_blob_never_catastrophically_larger(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        c = SZLikeCompressor(error_bound=1e-14)
        blob = c.compress(x)
        assert len(blob) <= x.nbytes * 1.1


class TestEntropyModes:
    @pytest.mark.parametrize("entropy", ["zlib", "huffman", "auto"])
    def test_all_modes_roundtrip(self, entropy):
        x = smooth_signal(2048, seed=7)
        c = SZLikeCompressor(error_bound=1e-5, entropy=entropy)
        back = c.decompress(c.compress(x))
        assert max_component_error(x, back) <= 1e-5 * (1 + 1e-9)

    def test_invalid_entropy_rejected(self):
        with pytest.raises(ValueError):
            SZLikeCompressor(entropy="arith")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SZLikeCompressor(mode="pointwise")

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError):
            SZLikeCompressor(error_bound=0.0)


class TestBlobFormat:
    def test_magic_checked(self):
        c = SZLikeCompressor()
        with pytest.raises(ValueError):
            c.decompress(b"XXXXgarbage")

    def test_registry_construction(self):
        c = get_compressor("szlike", error_bound=1e-3, mode="rel")
        assert c.error_bound == 1e-3
        assert c.mode == "rel"
        assert c.is_lossy

    def test_describe(self):
        assert "szlike" in SZLikeCompressor().describe()


class TestAutoEntropySelection:
    """The lifted-caps `auto` mode: Huffman at real chunk sizes, never worse."""

    def test_huffman_selected_at_chunk_scale(self):
        # 2^16 elements was beyond the old _HUFFMAN_MAX_ELEMENTS = 2^12 cap;
        # with the LUT decoder auto must now pick Huffman on smooth chunks
        x = smooth_signal(1 << 16)
        auto = SZLikeCompressor(error_bound=1e-5, entropy="auto")
        assert blob_entropy(auto.compress(x)) == "huffman"

    @pytest.mark.parametrize("seed,eb", [(0, 1e-6), (1, 1e-5), (2, 1e-4)])
    def test_auto_never_worse_than_zlib(self, seed, eb):
        # exact-size arbitration: whatever auto picks, the blob can only tie
        # or beat a forced-zlib compressor on the same chunk
        rng = np.random.default_rng(seed)
        for x in (smooth_signal(1 << 14, seed=seed),
                  (rng.standard_normal(1 << 14)
                   + 1j * rng.standard_normal(1 << 14)) / 128.0):
            auto = SZLikeCompressor(error_bound=eb, entropy="auto")
            zl = SZLikeCompressor(error_bound=eb, entropy="zlib")
            assert len(auto.compress(x)) <= len(zl.compress(x))

    def test_wide_alphabet_stays_with_zlib(self):
        # near-uniform noise under a tight bound explodes the delta alphabet
        # past the probe, so auto keeps the zlib (or raw-escape) path
        rng = np.random.default_rng(7)
        x = (rng.standard_normal(1 << 14) + 1j * rng.standard_normal(1 << 14))
        blob = SZLikeCompressor(error_bound=1e-9, entropy="auto").compress(x)
        assert blob_entropy(blob) in ("zlib", "raw")


def entropy_streams():
    """Seeded zigzag streams, one per branch of the `auto` arbitration."""
    rng = np.random.default_rng(20261017)
    n = 1 << 15
    sparse = np.zeros(n, dtype=np.uint64)
    hit = rng.choice(n, n // 64, replace=False)
    sparse[hit] = rng.integers(1, 6, hit.size)
    skewed = np.where(rng.random(n) < 0.9, 0,
                      rng.integers(1, 4, n)).astype(np.uint64)
    wide16 = np.minimum(rng.geometric(0.002, n), 60000).astype(np.uint64)
    geo16 = rng.geometric(0.02, n).astype(np.uint64)
    w32 = rng.geometric(0.05, n).astype(np.uint64)
    w32[rng.choice(n, 16, replace=False)] = rng.integers(1 << 20, 1 << 30, 16)
    dyadic = rng.permutation(np.repeat(np.arange(3, dtype=np.uint64),
                                       [n // 2, n // 4, n // 4]))
    runs = np.random.default_rng(0)
    near_tie = np.repeat(runs.integers(0, 3, n),
                         runs.geometric(0.24, n))[:n].astype(np.uint64)
    return {
        "qft_sparse": sparse,
        "skewed_h_lt_1": skewed,
        "uint16_wide_alphabet": wide16,
        "uint16_huffman": geo16,
        "uint32_width": w32,
        "dyadic": dyadic,  # H = 1.5 bits exactly: the lower bound is tight
        # runs zlib exploits: inside the lower bound, lost on exact size
        "runs_near_tie": near_tie,
        "single_symbol": np.full(n, 7, dtype=np.uint64),
        "past_alphabet_cap": rng.permutation(
            np.arange(70000, dtype=np.uint64) * 3),
    }


def brute_force_entropy(zz):
    """Encode both ways; Huffman iff its payload is no longer than zlib's."""
    zpay, zid = SZLikeCompressor(entropy="zlib")._entropy_encode(zz)
    if 2 <= np.unique(zz).size <= 1 << 16:
        hpay, hid = SZLikeCompressor(entropy="huffman")._entropy_encode(zz)
        if len(hpay) <= len(zpay):
            return hpay, hid
    return zpay, zid


class TestExactSizeArbitration:
    """`auto` decides from exact sizes, and every blob stays byte-identical."""

    #: sha256 of the auto payloads (entropy id byte + payload, in stream
    #: order) and of three whole-chunk blobs, as recorded before the
    #: arbitration was rewritten.
    STREAMS_SHA256 = \
        "a2b17c2a10ed931df269062286f10dbee3772116b954ef30aacae5a574256059"
    BLOBS_SHA256 = \
        "4304fd646449a381a464c3f4d5be32a409c624b516789851bccb4b85e63de17c"

    @pytest.mark.parametrize("name", sorted(entropy_streams()))
    def test_auto_equals_brute_force(self, name):
        zz = entropy_streams()[name]
        assert SZLikeCompressor()._entropy_encode(zz) == \
            brute_force_entropy(zz)

    def test_streams_cover_both_outcomes_on_both_alphabet_paths(self):
        picked = {name: SZLikeCompressor()._entropy_encode(zz)[1]
                  for name, zz in entropy_streams().items()}
        # bincount path (8/16-bit) and np.unique path (32-bit), each won
        # by Huffman on one stream and by zlib on another
        assert picked["uint16_huffman"] == picked["uint32_width"] == 1
        assert picked["uint16_wide_alphabet"] == \
            picked["past_alphabet_cap"] == 0

    def test_exact_size_rejects_what_the_lower_bound_admits(self):
        zz = entropy_streams()["runs_near_tie"]
        zpay, entropy_id = SZLikeCompressor()._entropy_encode(zz)
        symbols, freqs = np.unique(zz, return_counts=True)
        p = freqs / zz.size
        bound = huffman.frame_overhead(symbols.size) \
            + zz.size * max(float(-(p * np.log2(p)).sum()), 1.0) / 8
        code = huffman.HuffmanCode.from_frequencies(symbols, freqs)
        assert bound <= len(zpay) < huffman.encoded_size(freqs, code.lengths)
        assert entropy_id == 0

    def test_pinned_payloads(self):
        h = hashlib.sha256()
        for zz in entropy_streams().values():
            payload, entropy_id = SZLikeCompressor()._entropy_encode(zz)
            h.update(bytes([entropy_id]) + payload)
        assert h.hexdigest() == self.STREAMS_SHA256

    def test_pinned_blobs(self):
        n = 1 << 14
        rng = np.random.default_rng(7)
        t = np.linspace(0, 8 * np.pi, n)
        smooth = (np.sin(t) + 0.1 * rng.standard_normal(n)) \
            * np.exp(1j * t / 3) / np.sqrt(n)
        qft = np.exp(2j * np.pi * 5 * np.arange(n) / n) / np.sqrt(n)
        h = hashlib.sha256()
        for x, eb in ((smooth, 1e-4), (smooth, 1e-6), (qft, 1e-6)):
            h.update(SZLikeCompressor(error_bound=eb).compress(x))
        assert h.hexdigest() == self.BLOBS_SHA256


class TestBlobEntropySniffer:
    def test_forced_modes_are_reported(self):
        x = smooth_signal(4096)
        assert blob_entropy(
            SZLikeCompressor(error_bound=1e-5, entropy="huffman").compress(x)
        ) == "huffman"
        assert blob_entropy(
            SZLikeCompressor(error_bound=1e-5, entropy="zlib").compress(x)
        ) == "zlib"

    def test_raw_escape_is_reported(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        blob = SZLikeCompressor(error_bound=1e-14).compress(x)
        assert blob_entropy(blob) == "raw"

    def test_non_szl1_blob_is_none(self):
        assert blob_entropy(b"XXXXnot a blob") is None
        assert blob_entropy(b"") is None

    def test_adaptive_wrapper_looked_through(self):
        from repro.compression import get_compressor as _get
        adaptive = _get("adaptive")
        blob = adaptive.compress(smooth_signal(4096))
        # may route to szlike or a lossless inner codec; the sniffer must
        # either see through the wrapper or return None, never raise
        assert blob_entropy(blob) in ("huffman", "zlib", "raw", None)
