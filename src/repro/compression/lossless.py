"""Lossless byte-transparent compressor backends (zlib / lzma / bz2 / null).

These serve three roles:

* the exactness baseline in the compressor-comparison benchmarks (A2);
* the backstop MEMQSim uses when configured lossless (``compressor="zlib"``),
  in which case the chunked simulator is *bit-identical* to the dense one;
* the chunking-overhead isolator (``null``).

(The SZ-like pipeline's raw escape calls :mod:`zlib` directly.)

Every backend frames a chunk as ``LSL1`` + ``<Q n>`` + the codec's stream
over the raw bytes. :class:`ZlibCompressor` adds a second layout, chosen
per chunk from the chunk's own content (see :meth:`ZlibCompressor._frame`):
``LSP1``, the chunk split into byte planes, of which only those with
low byte entropy (sign/exponent) are deflated while the rest (mantissa
noise) are stored with a crc32.
"""

from __future__ import annotations

import bz2
import lzma
import struct
import zlib
from typing import Optional

import numpy as np

from .interface import (
    Compressor,
    coerce_amplitudes,
    inner_frame,
    register_compressor,
    split_dtype,
    tag_dtype,
)

__all__ = ["ZlibCompressor", "LzmaCompressor", "Bz2Compressor", "NullCompressor",
           "blob_layout"]

_MAGIC = b"LSL1"
_PLANE_MAGIC = b"LSP1"
#: ``LSP1`` header after the magic: amplitude count n, plane width w
#: (bytes per float), deflate mask (bit p set: byte plane p sits in the
#: deflate stream), deflate stream length in bytes.
_PLANE_HEADER = struct.Struct("<QBHQ")
_PLANE_HEAD = len(_PLANE_MAGIC) + _PLANE_HEADER.size
_CRC = struct.Struct("<I")

#: chunks shorter than this always use ``LSL1``: below it the plane
#: split costs more than whole-chunk zlib saves
PLANE_MIN_AMPLITUDES = 1 << 11
#: amplitudes, from the start of a chunk, that decide its layout
_SAMPLE = 1024
#: byte planes whose sampled order-0 entropy is at most this many bits
#: are deflated; the rest are stored
_DEFLATE_MAX_BITS = 7.5


class _ByteCodecCompressor(Compressor):
    """Shared framing for byte-level codecs."""

    def __init__(self) -> None:
        pass

    @property
    def is_lossy(self) -> bool:
        return False

    def _encode(self, raw: bytes) -> bytes:
        raise NotImplementedError

    def _decode(self, blob: bytes) -> bytes:
        raise NotImplementedError

    def compress(self, data: np.ndarray) -> bytes:
        data = coerce_amplitudes(data)
        return tag_dtype(self._frame(data), data.dtype)

    def decompress(self, blob: bytes) -> np.ndarray:
        dtype, blob = split_dtype(blob)
        return self._unframe(blob, dtype)

    # Layouts override these two helpers, never ``compress``/``decompress``:
    # one public call must stay one encode (or decode), with no nesting.

    def _frame(self, data: np.ndarray) -> bytes:
        """``LSL1`` + ``<Q n>`` + the codec's stream over the raw bytes."""
        return _MAGIC + struct.pack("<Q", data.shape[0]) \
            + self._encode(data.tobytes())

    def _unframe(self, blob: bytes, dtype: np.dtype) -> np.ndarray:
        if blob[:4] != _MAGIC:
            raise ValueError("not a lossless blob")
        (n,) = struct.unpack_from("<Q", blob, 4)
        raw = self._decode(blob[12:])
        return np.frombuffer(raw, dtype=dtype, count=n).copy()


class ZlibCompressor(_ByteCodecCompressor):
    """DEFLATE; the fast default lossless backend.

    Each chunk takes one of two layouts, decided from its own content
    only (so blobs are identical whichever process encodes them):

    * ``LSL1``: the whole chunk deflated, as every byte codec frames it;
    * ``LSP1``: the chunk split component-major into ``2w`` byte planes
      (real planes, then imaginary; ``w`` = 8 for c128, 4 for c64). The
      planes that deflate (sign/exponent, the top mantissa byte) share
      one zlib stream; the rest are stored raw, followed by a crc32 over
      the whole frame. Dense amplitudes have near-random low mantissa
      bytes, on which whole-chunk zlib spends most of its time searching
      for matches that are not there.
    """

    name = "zlib"

    def __init__(self, level: int = 1):
        super().__init__()
        self.level = int(level)

    def _encode(self, raw: bytes) -> bytes:
        return zlib.compress(raw, self.level)

    def _decode(self, blob: bytes) -> bytes:
        return zlib.decompress(blob)

    def _frame(self, data: np.ndarray) -> bytes:
        if data.shape[0] < PLANE_MIN_AMPLITUDES:
            return super()._frame(data)
        deflate = self._plane_choice(data[:_SAMPLE])
        if deflate is None:
            return super()._frame(data)
        return self._plane_frame(data, deflate)

    def _plane_choice(self, sample: np.ndarray) -> Optional[np.ndarray]:
        """Per-plane deflate mask for ``LSP1``, or None to use ``LSL1``.

        Cheapest test first: a sample that zlib shrinks below the smallest
        size any plane layout could reach (one bit per byte) is
        compressible as a whole, which is the case for zero and sparse
        chunks. Otherwise each plane's size is estimated from its order-0
        entropy ``H``: ``max(H, 1)/8`` per byte when deflated (``H`` at
        most 7.5 bits), a byte when stored. ``LSL1`` keeps the chunk if
        zlib did as well on the sample, since LZ matches that span bytes
        (smooth amplitudes, repeated values) vanish under the split.
        """
        planes = sample.itemsize
        sampled = len(zlib.compress(sample, self.level))
        if sampled <= planes * _SAMPLE // 8:
            return None
        by_plane = sample.view(np.uint8).reshape(_SAMPLE, planes) \
            + np.arange(0, 256 * planes, 256)
        p = np.bincount(by_plane.ravel(), minlength=256 * planes) \
            .reshape(planes, 256) / _SAMPLE
        h = -(p * np.log2(np.where(p > 0, p, 1.0))).sum(axis=1)
        deflate = h <= _DEFLATE_MAX_BITS
        estimate = _SAMPLE * np.where(deflate, np.maximum(h, 1.0) / 8, 1.0).sum()
        return None if sampled <= estimate else deflate

    def _plane_frame(self, data: np.ndarray, deflate: np.ndarray) -> bytes:
        n, planes = data.shape[0], data.itemsize
        deflated = np.flatnonzero(deflate)
        order = np.concatenate((deflated, np.flatnonzero(~deflate)))
        # Row p of the transposed byte matrix is byte plane p.
        rows = data.view(np.uint8).reshape(n, planes).T[order]
        k = deflated.size
        packed = zlib.compress(rows[:k], self.level)
        stored = rows[k:]
        header = _PLANE_MAGIC + _PLANE_HEADER.pack(
            n, planes // 2, sum(1 << int(p) for p in deflated), len(packed))
        crc = zlib.crc32(stored, zlib.crc32(packed, zlib.crc32(header)))
        return b"".join((header, packed, stored, _CRC.pack(crc)))

    def _unframe(self, blob: bytes, dtype: np.dtype) -> np.ndarray:
        if blob[:4] != _PLANE_MAGIC:
            return super()._unframe(blob, dtype)
        return _plane_unframe(blob, dtype)


def _plane_unframe(blob: bytes, dtype: np.dtype) -> np.ndarray:
    """Decode an ``LSP1`` blob; any inconsistency raises ValueError.

    The crc32 covers every byte before it, the deflate stream included:
    zlib's own adler32 missed some single-bit flips in that stream, which
    decoded to sign-flipped amplitudes. The segment lengths must account
    for the blob exactly.
    """
    if len(blob) < _PLANE_HEAD + _CRC.size:
        raise ValueError("truncated LSP1 blob")
    n, width, mask, dlen = _PLANE_HEADER.unpack_from(blob, len(_PLANE_MAGIC))
    planes = dtype.itemsize
    if 2 * width != planes:
        raise ValueError(f"LSP1 plane width {width} does not match {dtype}")
    if mask >> planes:
        raise ValueError(f"LSP1 deflate mask {mask:#x} names planes "
                         f"beyond {planes}")
    deflate = (mask >> np.arange(planes)) & 1 == 1
    k = int(deflate.sum())
    stored_at = _PLANE_HEAD + dlen
    crc_at = stored_at + (planes - k) * n
    if crc_at + _CRC.size != len(blob):
        raise ValueError("LSP1 segment lengths do not match the blob size")
    view = memoryview(blob)
    (crc,) = _CRC.unpack_from(blob, crc_at)
    if zlib.crc32(view[:crc_at]) != crc:
        raise ValueError("LSP1 crc32 mismatch")
    inflater = zlib.decompressobj()
    try:
        packed = inflater.decompress(view[_PLANE_HEAD:stored_at], k * n + 1)
    except zlib.error as exc:
        raise ValueError(f"LSP1 deflate segment is corrupt: {exc}") from None
    if len(packed) != k * n or not inflater.eof or inflater.unused_data:
        raise ValueError("LSP1 deflate segment does not hold its planes")
    out = np.empty(n, dtype=dtype)
    by_plane = out.view(np.uint8).reshape(n, planes)
    by_plane[:, deflate] = np.frombuffer(packed, np.uint8).reshape(k, n).T
    by_plane[:, ~deflate] = np.frombuffer(
        blob, np.uint8, count=crc_at - stored_at, offset=stored_at
    ).reshape(planes - k, n).T
    return out


def blob_layout(blob: bytes) -> Optional[str]:
    """Sniff which :class:`ZlibCompressor` layout framed ``blob``.

    ``"planes"`` for ``LSP1``, ``"zlib"`` for ``LSL1`` around a zlib
    stream, else None. Adaptive-wrapper and dtype prefixes are looked
    through (see :func:`inner_frame`).
    """
    blob = inner_frame(blob)
    if blob[:4] == _PLANE_MAGIC:
        return "planes"
    # A zlib stream opens with CMF 0x78 (deflate, 32 KiB window) and a
    # FLG byte making the pair a multiple of 31. lzma and bz2 streams
    # never do; a raw (null codec) frame only by chance.
    if blob[:4] == _MAGIC and len(blob) >= 14 and blob[12] == 0x78 \
            and (0x7800 | blob[13]) % 31 == 0:
        return "zlib"
    return None


class LzmaCompressor(_ByteCodecCompressor):
    """LZMA; highest ratio, slowest — the ratio-ceiling reference."""

    name = "lzma"

    def __init__(self, preset: int = 0):
        super().__init__()
        self.preset = int(preset)

    def _encode(self, raw: bytes) -> bytes:
        return lzma.compress(raw, preset=self.preset)

    def _decode(self, blob: bytes) -> bytes:
        return lzma.decompress(blob)


class Bz2Compressor(_ByteCodecCompressor):
    """bzip2; middle ground on ratio/speed."""

    name = "bz2"

    def __init__(self, level: int = 1):
        super().__init__()
        self.level = int(level)

    def _encode(self, raw: bytes) -> bytes:
        return bz2.compress(raw, self.level)

    def _decode(self, blob: bytes) -> bytes:
        return bz2.decompress(blob)


class NullCompressor(_ByteCodecCompressor):
    """Identity codec — isolates chunking overhead from compression cost."""

    name = "null"

    def _encode(self, raw: bytes) -> bytes:
        return raw

    def _decode(self, blob: bytes) -> bytes:
        return blob


# Factories tolerate (and ignore) lossy-only kwargs such as error_bound so
# that sweeps can vary the compressor name against one option set.
register_compressor("zlib", lambda level=1, **_: ZlibCompressor(level=level))
register_compressor("lzma", lambda preset=0, **_: LzmaCompressor(preset=preset))
register_compressor("bz2", lambda level=1, **_: Bz2Compressor(level=level))
register_compressor("null", lambda **_: NullCompressor())
