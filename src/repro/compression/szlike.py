"""SZ-style error-bounded lossy compressor for amplitude chunks.

Pipeline (all stages vectorized; see DESIGN.md for the substitution note):

1. split complex128 into the concatenated real/imag float64 planes
   (keeping each plane contiguous preserves smoothness for the delta stage);
2. error-bounded linear-scaling quantization (``quantizer``);
3. exact integer delta coding of the quantization codes — the reversible,
   vectorized equivalent of SZ's first-order Lorenzo predictor;
4. zigzag mapping and an entropy stage: our canonical Huffman coder for
   small/narrow alphabets, zlib on minimal-width integers otherwise;
5. a lossless *raw fallback* whenever the lossy stream would not actually be
   smaller (SZ's unpredictable-data escape, generalized to whole chunks) or
   the bound is too tight for safe integer quantization.

Guarantee: each real and imaginary component of every round-tripped value
differs from the original by at most the *realized* absolute bound, which is
stored in the blob header (``abs`` mode: the configured bound; ``rel`` mode:
``rel * max|component|`` of that chunk).
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional, Tuple

import numpy as np

from ..memory.bufferpool import scratch_pool
from . import huffman
from .interface import (
    Compressor,
    coerce_amplitudes,
    inner_frame,
    register_compressor,
    split_dtype,
    tag_dtype,
)
from .quantizer import (
    quantize,
    resolve_error_bound,
    unzigzag,
    zigzag,
)

__all__ = ["SZLikeCompressor", "blob_entropy"]

_MAGIC = b"SZL1"
_FLAG_QUANT = 0
_FLAG_RAW = 1

_ENTROPY_ZLIB = 0
_ENTROPY_HUFFMAN = 1

#: With the table-driven decoder (huffman._decode_lut) the entropy stage is
#: vectorized end to end, so Huffman is viable at real chunk sizes — these
#: caps now only guard the O(k log k) code construction and the per-blob
#: symbol table (9 bytes/symbol), not a per-bit Python loop.
_HUFFMAN_MAX_ALPHABET = 1 << 16
_HUFFMAN_MAX_ELEMENTS = 1 << 21

#: strided pre-probe size for entropy-mode selection on 32/64-bit streams:
#: if a sample this large already shows more distinct symbols than the
#: alphabet cap, the full (sorting) ``np.unique`` scan is skipped entirely.
_ALPHABET_PROBE_SAMPLES = 1 << 12


def _minimal_uint(zz: np.ndarray) -> np.ndarray:
    """Downcast zigzag codes to the narrowest dtype that holds the max."""
    mx = int(zz.max()) if zz.size else 0
    if mx < 1 << 8:
        return zz.astype(np.uint8)
    if mx < 1 << 16:
        return zz.astype(np.uint16)
    if mx < 1 << 32:
        return zz.astype(np.uint32)
    return zz.astype(np.uint64)


class SZLikeCompressor(Compressor):
    """Error-bounded lossy compressor (SZ 1-D pipeline analogue)."""

    name = "szlike"

    def __init__(
        self,
        error_bound: float = 1e-6,
        mode: str = "abs",
        entropy: str = "auto",
        zlib_level: int = 1,
    ):
        """Create a compressor.

        Args:
            error_bound: per-component bound (absolute, or relative to the
                chunk's max component magnitude in ``rel`` mode).
            mode: ``"abs"`` or ``"rel"``.
            entropy: ``"zlib"``, ``"huffman"``, or ``"auto"`` (whichever
                payload is smaller, Huffman on ties).
            zlib_level: zlib level for the entropy/backstop stage.
        """
        if mode not in ("abs", "rel"):
            raise ValueError(f"mode must be abs|rel, got {mode!r}")
        if entropy not in ("zlib", "huffman", "auto"):
            raise ValueError(f"entropy must be zlib|huffman|auto, got {entropy!r}")
        if error_bound <= 0:
            raise ValueError("error_bound must be positive")
        self._eb = float(error_bound)
        self._mode = mode
        self._entropy = entropy
        self._level = int(zlib_level)

    @property
    def is_lossy(self) -> bool:
        return True

    @property
    def error_bound(self) -> float:
        return self._eb

    @property
    def mode(self) -> str:
        return self._mode

    # -- compression ----------------------------------------------------------

    def compress(self, data: np.ndarray) -> bytes:
        data = coerce_amplitudes(data)
        return tag_dtype(self._compress_frame(data), data.dtype)

    def _compress_frame(self, data: np.ndarray) -> bytes:
        n = data.shape[0]
        # The concatenated real/imag planes and the bound-check reconstruction
        # are per-chunk scratch — borrow both from the process scratch pool so
        # repeated chunk passes (and codec workers) recycle the allocations.
        with scratch_pool().borrow(2 * n, np.float64) as planes, \
                scratch_pool().borrow(2 * n, np.float64) as recon:
            np.copyto(planes[:n], data.real)
            np.copyto(planes[n:], data.imag)
            try:
                abs_bound = resolve_error_bound(planes, self._eb, self._mode)
                q = quantize(planes, abs_bound)
            except (OverflowError, FloatingPointError):
                return self._raw_blob(data)
            # Verify the bound against the *actual* reconstruction (dequantize
            # is deterministic, so the decoder sees exactly these values).
            # Product rounding can exceed eb by ~|x|*ulp for huge code
            # magnitudes; those chunks escape to the exact raw path (SZ's
            # unpredictable-data rule).
            np.multiply(q.codes, 2.0 * q.abs_bound, out=recon)
            np.subtract(planes, recon, out=recon)
            np.abs(recon, out=recon)
            if n and float(recon.max()) > q.abs_bound:
                return self._raw_blob(data)
            deltas = np.diff(q.codes, prepend=np.int64(0))
        zz = zigzag(deltas)
        payload, entropy_id = self._entropy_encode(zz)
        blob = (
            _MAGIC
            + struct.pack("<BBQd", _FLAG_QUANT, entropy_id, n, q.abs_bound)
            + payload
        )
        if len(blob) >= data.nbytes:
            # Lossy stream failed to beat even uncompressed storage —
            # escape to the lossless fallback (and keep the smaller blob).
            raw = self._raw_blob(data)
            return raw if len(raw) < len(blob) else blob
        return blob

    def _raw_blob(self, data: np.ndarray) -> bytes:
        # Raw bytes stay in the input dtype; the outer dtype tag tells the
        # decoder how to reinterpret them.
        packed = zlib.compress(data.tobytes(), self._level)
        return _MAGIC + struct.pack(
            "<BBQd", _FLAG_RAW, _ENTROPY_ZLIB, data.shape[0], 0.0
        ) + packed

    def _entropy_encode(self, zz: np.ndarray) -> Tuple[bytes, int]:
        if self._entropy == "huffman":
            return huffman.encode(zz.astype(np.int64)), _ENTROPY_HUFFMAN
        narrow = _minimal_uint(zz)
        zpay = self._zlib_payload(narrow)
        if self._entropy == "auto" and 0 < zz.size <= _HUFFMAN_MAX_ELEMENTS:
            hpay = _huffman_within(narrow, len(zpay))
            if hpay is not None:
                return hpay, _ENTROPY_HUFFMAN
        return zpay, _ENTROPY_ZLIB

    def _zlib_payload(self, narrow: np.ndarray) -> bytes:
        width_tag = struct.pack("<B", narrow.dtype.itemsize)
        return width_tag + zlib.compress(narrow.tobytes(), self._level)

    # -- decompression -----------------------------------------------------------

    def decompress(self, blob: bytes) -> np.ndarray:
        dtype, blob = split_dtype(blob)
        if blob[:4] != _MAGIC:
            raise ValueError("not an SZL1 blob")
        flag, entropy_id, n, abs_bound = struct.unpack_from("<BBQd", blob, 4)
        payload = blob[4 + struct.calcsize("<BBQd"):]
        if flag == _FLAG_RAW:
            raw = zlib.decompress(payload)
            return np.frombuffer(raw, dtype=dtype, count=n).copy()
        zz = self._entropy_decode(payload, entropy_id, 2 * n)
        deltas = unzigzag(zz)
        codes = np.cumsum(deltas, dtype=np.int64)
        # Building directly in the target dtype lets the component
        # assignments below do the (single) float64 -> float32 downcast.
        out = np.empty(n, dtype=dtype)
        # Same arithmetic as quantizer.dequantize (codes -> float64, one
        # product), but into a pooled plane buffer and then component-wise
        # into the output, skipping the intermediate complex temporaries.
        with scratch_pool().borrow(2 * n, np.float64) as planes:
            np.multiply(codes, 2.0 * abs_bound, out=planes)
            out.real = planes[:n]
            out.imag = planes[n:]
        return out

    def _entropy_decode(self, payload: bytes, entropy_id: int, count: int) -> np.ndarray:
        if entropy_id == _ENTROPY_HUFFMAN:
            vals = huffman.decode(payload)
            if vals.shape[0] != count:
                raise ValueError("huffman stream length mismatch")
            return vals.view(np.uint64) if vals.dtype == np.int64 else vals
        width = payload[0]
        dtype = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}[width]
        raw = zlib.decompress(payload[1:])
        return np.frombuffer(raw, dtype=dtype, count=count).astype(np.uint64)


def _huffman_within(narrow: np.ndarray, budget: int) -> Optional[bytes]:
    """The Huffman payload of a non-empty zigzag stream if it is at most
    ``budget`` bytes (the zlib payload's length), else ``None``.

    Cheapest step first, and each step only rejects streams whose Huffman
    payload provably exceeds the budget, so the choice and every byte equal
    encoding both and keeping Huffman iff it is no longer:

    1. the alphabet — counted with ``np.bincount`` for 8/16-bit codes
       (``flatnonzero`` yields the same sorted symbols and counts as
       ``np.unique``); wider codes keep the strided probe against the
       alphabet cap before the sorting ``np.unique``. Single-symbol streams
       stay with zlib, whose run-length coding beats Huffman's 1 bit/symbol;
    2. a lower bound: every code length is at least ``max(H, 1)`` bits on
       average (zeroth-order entropy H, and no codeword is shorter than a
       bit), so the framed size is at least
       ``frame_overhead(k) + n * max(H, 1) / 8``;
    3. the exact framed size from the built code's lengths
       (``huffman.encoded_size``) — the gather and the bit packing run only
       for a stream that has already won.
    """
    n = narrow.size
    counts = None
    if narrow.dtype.itemsize <= 2:
        counts = np.bincount(narrow)
        symbols = np.flatnonzero(counts)
        freqs = counts[symbols]
    else:
        stride = max(1, n // _ALPHABET_PROBE_SAMPLES)
        if np.unique(narrow[::stride]).size > _HUFFMAN_MAX_ALPHABET:
            return None
        symbols, ranks, freqs = np.unique(
            narrow, return_inverse=True, return_counts=True)
    k = symbols.size
    if not 2 <= k <= _HUFFMAN_MAX_ALPHABET:
        return None
    p = freqs / n
    h_bits = max(float(-(p * np.log2(p)).sum()), 1.0)
    # The 1e-6-byte slack absorbs float rounding in H: the bound can only
    # be tight for dyadic frequencies, where H (hence the bound) is exact.
    if huffman.frame_overhead(k) + n * h_bits / 8 > budget + 1e-6:
        return None
    code = huffman.HuffmanCode.from_frequencies(symbols, freqs)
    if huffman.encoded_size(freqs, code.lengths) > budget:
        return None
    if counts is not None:
        rank = np.empty(counts.size, dtype=np.intp)
        rank[symbols] = np.arange(k)
        ranks = rank[narrow]
    return huffman.encode_ranks(code, ranks)


def blob_entropy(blob: bytes) -> Optional[str]:
    """Sniff the entropy stage of an SZL1 blob from its header.

    Returns ``"huffman"``, ``"zlib"``, or ``"raw"`` (the lossless escape);
    ``None`` when the blob is not SZL1-framed. Adaptive-compressor wrappers
    (``ADP1`` magic + tag byte) and dtype tags (``DTP1`` + tag byte) are
    looked through, in any nesting order, so the chunk store can attribute
    entropy choices without decompressing anything.
    """
    blob = inner_frame(blob)
    if blob[:4] != _MAGIC or len(blob) < 6:
        return None
    flag, entropy_id = blob[4], blob[5]
    if flag == _FLAG_RAW:
        return "raw"
    return "huffman" if entropy_id == _ENTROPY_HUFFMAN else "zlib"


register_compressor(
    "szlike",
    lambda error_bound=1e-6, mode="abs", entropy="auto", zlib_level=1: SZLikeCompressor(
        error_bound=error_bound, mode=mode, entropy=entropy, zlib_level=zlib_level
    ),
)
