"""zlib's two chunk layouts: whole-chunk ``LSL1`` and byte-plane ``LSP1``.

Pins the per-chunk arbitration (sparse chunks keep the legacy blob byte
for byte; dense chunks split into planes and never lose ratio), the
integrity of the ``LSP1`` frame under fault injection, and bit-exact
round-trips at the layout's size boundary.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.generators import WORKLOADS, get_workload
from repro.compression import ZlibCompressor, get_compressor
from repro.compression.interface import tag_dtype
from repro.compression.lossless import PLANE_MIN_AMPLITUDES, blob_layout
from repro.statevector import DenseSimulator

#: the LSP1 header after its magic: n, plane width, deflate mask, deflate length
HEADER = struct.Struct("<QBHQ")
HEAD = 4 + HEADER.size

DTYPES = [np.complex128, np.complex64]


def dense_chunk(n, seed=3, dtype=np.complex128):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return (v / np.linalg.norm(v)).astype(dtype)


def sparse_chunk(n, dtype=np.complex128):
    v = np.zeros(n, dtype=dtype)
    v[::97] = 0.25 - 0.5j
    return v


def legacy_blob(x):
    """The historical ``LSL1`` frame, built by hand."""
    return b"LSL1" + struct.pack("<Q", x.shape[0]) + zlib.compress(x.tobytes(), 1)


def reframe(blob, **fields):
    """An ``LSP1`` blob with header fields replaced and a valid crc32."""
    values = dict(zip(("n", "width", "mask", "dlen"),
                      HEADER.unpack_from(blob, 4)))
    values.update(fields)
    frame = b"LSP1" + HEADER.pack(values["n"], values["width"],
                                  values["mask"], values["dlen"]) \
        + blob[HEAD:-4]
    return frame + struct.pack("<I", zlib.crc32(frame))


@pytest.fixture(scope="module")
def codec():
    return ZlibCompressor()


@pytest.fixture(scope="module")
def planes_blob(codec):
    blob = codec.compress(dense_chunk(PLANE_MIN_AMPLITUDES))
    assert blob[:4] == b"LSP1"
    return blob


class TestArbitration:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sparse_chunk_is_legacy_byte_for_byte(self, codec, dtype):
        x = sparse_chunk(1 << 14, dtype)
        assert codec.compress(x) == tag_dtype(legacy_blob(x), dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_short_chunk_is_legacy_byte_for_byte(self, codec, dtype):
        x = dense_chunk(PLANE_MIN_AMPLITUDES - 1, dtype=dtype)
        assert codec.compress(x) == tag_dtype(legacy_blob(x), dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dense_chunk_splits_into_planes(self, codec, dtype):
        x = dense_chunk(1 << 14, dtype=dtype)
        blob = codec.compress(x)
        assert blob_layout(blob) == "planes"
        assert len(blob) < len(tag_dtype(legacy_blob(x), dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_legacy_blob_still_decodes(self, codec, dtype):
        x = dense_chunk(1 << 14, dtype=dtype)
        back = codec.decompress(tag_dtype(legacy_blob(x), dtype))
        assert back.dtype == np.dtype(dtype)
        assert back.tobytes() == x.tobytes()

    def test_blob_layout_sniffs_only_zlib(self, codec):
        x = sparse_chunk(1 << 12)
        assert blob_layout(codec.compress(x)) == "zlib"
        assert blob_layout(codec.compress(x.astype(np.complex64))) == "zlib"
        for name in ("lzma", "bz2", "null"):
            assert blob_layout(get_compressor(name).compress(x)) is None


@st.composite
def amplitude_bits(draw):
    """Chunks at the layout boundary, including NaN/inf bit patterns."""
    n = draw(st.sampled_from([0, 1, 2047, 2048, 2049, 1 << 14]))
    dtype = draw(st.sampled_from(DTYPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["bits", "gauss", "special"]))
    if kind == "bits":
        raw = rng.integers(0, 256, n * np.dtype(dtype).itemsize, dtype=np.uint8)
        return raw.view(dtype)
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(dtype)
    if kind == "special" and n:
        floats = x.view(np.float32 if dtype == np.complex64 else np.float64)
        at = rng.integers(0, floats.size, max(1, floats.size // 8))
        floats[at] = rng.choice([np.nan, np.inf, -np.inf, -0.0], at.size)
    return x


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(x=amplitude_bits())
    def test_bit_exact(self, x):
        codec = ZlibCompressor()
        back = codec.decompress(codec.compress(x))
        assert back.dtype == x.dtype
        assert back.tobytes() == x.tobytes()


class TestIntegrity:
    def test_flipped_byte_anywhere(self, codec, planes_blob):
        # Header, deflate stream, stored planes and crc alike. The sign
        # bit (0x80) matters most: adler32 alone misses some of those
        # flips inside the deflate stream.
        dlen = HEADER.unpack_from(planes_blob, 4)[3]
        assert 0 < dlen < len(planes_blob) - HEAD - 4
        for at in range(len(planes_blob)):
            for flip in (0x80, 0x5A):
                bad = bytearray(planes_blob)
                bad[at] ^= flip
                with pytest.raises(ValueError):
                    codec.decompress(bytes(bad))

    def test_truncated(self, codec, planes_blob):
        for cut in (1, 4, 5, len(planes_blob) // 2, len(planes_blob) - HEAD):
            with pytest.raises(ValueError):
                codec.decompress(planes_blob[:-cut])

    def test_appended_byte(self, codec, planes_blob):
        with pytest.raises(ValueError):
            codec.decompress(planes_blob + b"\x00")

    def test_mask_beyond_planes(self, codec):
        # c64 has 8 planes, so a u16 mask can name planes that do not exist.
        inner = codec.compress(dense_chunk(1 << 12, dtype=np.complex64))[5:]
        assert inner[:4] == b"LSP1"
        mask = HEADER.unpack_from(inner, 4)[2]
        bad = tag_dtype(reframe(inner, mask=mask | 1 << 8), np.complex64)
        with pytest.raises(ValueError, match="mask"):
            codec.decompress(bad)

    def test_width_must_match_dtype(self, codec, planes_blob):
        with pytest.raises(ValueError, match="width"):
            codec.decompress(reframe(planes_blob, width=4))
        with pytest.raises(ValueError, match="width"):
            codec.decompress(tag_dtype(planes_blob, np.complex64))

    def test_segment_lengths_checked(self, codec, planes_blob):
        n, _, mask, dlen = HEADER.unpack_from(planes_blob, 4)
        for fields in ({"n": n + 1}, {"dlen": dlen - 1}, {"mask": mask ^ 1}):
            with pytest.raises(ValueError):
                codec.decompress(reframe(planes_blob, **fields))

    def test_deflate_stream_must_hold_its_planes(self, codec, planes_blob):
        # Move a stored plane into the deflate mask while shrinking the
        # stored segment accordingly: lengths add up, content does not.
        n, width, mask, dlen = HEADER.unpack_from(planes_blob, 4)
        stored_plane = next(p for p in range(2 * width) if not mask >> p & 1)
        frame = b"LSP1" + HEADER.pack(n, width, mask | 1 << stored_plane, dlen) \
            + planes_blob[HEAD:HEAD + dlen] + planes_blob[HEAD + dlen + n:-4]
        with pytest.raises(ValueError, match="deflate"):
            codec.decompress(frame + struct.pack("<I", zlib.crc32(frame)))


@pytest.fixture(scope="module")
def workload_states():
    return {name: DenseSimulator().run(get_workload(name, 15)).data
            for name in WORKLOADS}


class TestRatioParity:
    """The arbitration never trades compression ratio for speed."""

    @pytest.mark.parametrize("chunk_qubits", [12, 14])
    def test_no_workload_loses_ratio(self, codec, workload_states, chunk_qubits):
        for name, state in workload_states.items():
            chunks = state.reshape(-1, 1 << chunk_qubits)
            new = sum(len(codec.compress(c)) for c in chunks)
            legacy = sum(len(legacy_blob(c)) for c in chunks)
            assert new <= legacy, (name, new, legacy)
            if name in ("vqe", "random", "qv"):
                assert new < legacy, (name, new, legacy)
