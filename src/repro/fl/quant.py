"""Low-bit quantized uplink transport (DESIGN.md §16).

SPATL's headline metric is communication cost, and salient selection
already cuts *which* tensors travel; this module cuts *how many bits*
each surviving value costs.  It implements QSGD-style stochastic
quantization (Alistarh et al., the unbiased-rounding line of work in
PAPERS.md) as a wire codec that layers under every algorithm's uplink:

- **stochastic int8/int4 codec** — per-tensor or per-block float32
  scales, unbiased rounding (``E[deq(q(x))] == x`` for in-range values)
  drawn from the run's seeded RNG tree, int4 values bit-packed two per
  byte through vectorized uint8 nibble kernels (no Python loops);
- **self-describing wire records** — a quantized tensor travels as one
  ``name + "\\x00q"`` uint8 entry of the ordinary wire format
  (:mod:`repro.fl.wire`), whose record header carries bits / dtype /
  shape / block size, so a receiver needs no side channel to decode and
  :func:`quant_payload_nbytes` sizes the payload exactly
  (``== payload_nbytes(quantize_payload(...)[0])``);
- **density guard** — an entry is quantized only when its record is
  strictly smaller than its dense encoding, so tiny tensors (scalars,
  short biases) and every non-float entry (int32 indices, BN
  ``num_batches_tracked``) pass through bit-exactly;
- **error feedback** — per-client residuals (the same pattern as
  :class:`repro.fl.topk.FedTopK`): what rounding dropped this round is
  added back before quantizing the next, which keeps aggressive bit
  widths convergent.  A ``name.val`` entry whose rows a sibling
  ``name.idx`` names (SPATL's salient filters, top-k's coordinates)
  keeps its residual by row id, so an error goes back into the row it
  came from however the selection moves;
- **dequantize-then-fold** — :meth:`repro.fl.base.FederatedAlgorithm`
  feeds aggregation the *decoded* values (exactly what the wire
  carried), so the ledger's quantized byte counts and the model the
  server folds are two views of one payload.

``bits=32`` is the identity configuration: the wire payload is the
unquantized dense encoding, byte-for-byte (CI pins this golden).
``bits=16`` uses the record framing with an fp16 cast (no scales), so
the original float dtype round-trips exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.obs.metrics import get_registry

__all__ = ["QuantConfig", "QUANT_SUFFIX", "QUANT_WIRE_KEY",
           "stochastic_quantize", "dequantize_values",
           "pack_nibbles", "unpack_nibbles",
           "encode_record", "decode_record", "record_nbytes",
           "quantize_payload", "dequantize_payload", "quant_payload_nbytes",
           "naive_pack_nibbles", "naive_unpack_nibbles"]

#: Wire-entry name suffix marking a quantized record.  ``"\x00"`` cannot
#: appear in any state-dict key produced by the model layer, so suffixed
#: names can never collide with a dense entry.
QUANT_SUFFIX = "\x00q"

#: Reserved key under which a quantized update dict carries its exact
#: wire payload (set once by ``FederatedAlgorithm.quantize_update``, read
#: by ``wire_payload`` at every charge site), so retransmissions and the
#: async runtime's dedup fingerprints reuse one deterministic encoding.
QUANT_WIRE_KEY = "__wire__"

_QMAX = {8: 127, 4: 7}
_BIAS = {8: 128, 4: 8}
_VALID_BITS = (32, 16, 8, 4)

# Record header: [u8 bits][u8 dtype_code][u8 ndim][u8 flags][u32 block]
# then [u32 dims] * ndim, [f32 scales] * nblocks, packed data bytes.
_HEADER = struct.Struct("<BBBBI")


@dataclass(frozen=True)
class QuantConfig:
    """Uplink quantization knobs (``bits=32`` disables the codec).

    ``block`` is the number of values sharing one float32 scale
    (``0`` = one scale per tensor); ``error_feedback`` keeps per-client
    residuals of the rounding error and folds them into the next round's
    payload.
    """

    bits: int = 32
    block: int = 0
    error_feedback: bool = True

    def __post_init__(self):
        if self.bits not in _VALID_BITS:
            raise ValueError(f"bits must be one of {_VALID_BITS}, "
                             f"got {self.bits}")
        if self.block < 0:
            raise ValueError("block must be >= 0 (0 = per-tensor scales)")

    @property
    def active(self) -> bool:
        """Whether the codec changes the wire at all."""
        return self.bits < 32

    @property
    def key(self) -> tuple:
        """Hashable identity for cache keys (BroadcastCache variant)."""
        return ("quant", self.bits, self.block, self.error_feedback)


def _nblocks(n: int, block: int) -> int:
    return 1 if block == 0 else -(-n // block)


# ------------------------------------------------------------------ core
def stochastic_quantize(values: np.ndarray, bits: int, block: int,
                        rng: np.random.Generator
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased low-bit quantization of a flat float array.

    Returns ``(codes, scales)``: ``codes`` is a uint8 array of biased
    levels (``q + 2**(bits-1)`` with ``q in [-qmax, qmax]``), ``scales``
    a float32 array with one entry per block (``block == 0`` → one per
    tensor).  Rounding is stochastic — down with probability equal to
    the fractional distance to the grid point above — so
    ``E[scale * q] == x`` for every in-range value; draws come from
    ``rng``, which callers key by ``(seed, "quant", round, client)`` so
    retransmissions and executor replays reproduce the identical codes.
    """
    qmax = _QMAX[bits]
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = flat.size
    nb = _nblocks(n, block)
    width = n if block == 0 else block
    padded = flat
    if nb * width != n:
        padded = np.zeros(nb * width, dtype=np.float64)
        padded[:n] = flat
    grid = padded.reshape(nb, width)
    absmax = np.abs(grid).max(axis=1)
    scales = (absmax / qmax).astype(np.float32)
    safe = np.where(scales > 0.0, scales, np.float32(1.0)).astype(np.float64)
    y = grid / safe[:, None]
    lo = np.floor(y)
    # One uniform draw per (padded) slot; padding quantizes to exact 0.
    q = lo + (rng.random(y.shape) < (y - lo))
    np.clip(q, -qmax, qmax, out=q)
    codes = (q + _BIAS[bits]).astype(np.uint8).ravel()[:n]
    return codes, scales


def dequantize_values(codes: np.ndarray, scales: np.ndarray, bits: int,
                      block: int) -> np.ndarray:
    """Inverse of :func:`stochastic_quantize` (flat float32 values)."""
    q = codes.astype(np.float32) - np.float32(_BIAS[bits])
    scales = scales.astype(np.float32, copy=False)
    if block == 0:
        return q * scales[0]
    # Whole blocks as one broadcast multiply, the short last block on its
    # own: nothing here is sized by ``block``, which a decoder reads from an
    # untrusted header (a 10-value record may claim a 4-Gi block).
    whole = q.size // block
    out = np.empty_like(q)
    np.multiply(q[:whole * block].reshape(whole, block),
                scales[:whole, None],
                out=out[:whole * block].reshape(whole, block))
    if whole * block != q.size:
        np.multiply(q[whole * block:], scales[whole], out=out[whole * block:])
    return out


# ----------------------------------------------------------- nibble pack
def pack_nibbles(codes: np.ndarray) -> np.ndarray:
    """Pack uint8 values in ``[0, 15]`` two per byte (vectorized).

    Even positions land in the low nibble, odd in the high; an odd-length
    input is padded with a zero nibble that :func:`unpack_nibbles` drops.
    """
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    if codes.size % 2:
        codes = np.concatenate([codes, np.zeros(1, dtype=np.uint8)])
    return (codes[0::2] | (codes[1::2] << np.uint8(4))).astype(np.uint8)


def unpack_nibbles(packed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_nibbles`: the first ``n`` nibble values."""
    packed = np.asarray(packed, dtype=np.uint8)
    out = np.empty(2 * packed.size, dtype=np.uint8)
    out[0::2] = packed & np.uint8(0x0F)
    out[1::2] = packed >> np.uint8(4)
    return out[:n]


def naive_pack_nibbles(codes: np.ndarray) -> np.ndarray:
    """Per-element reference packer (the bench's 10x-slower comparator)."""
    codes = list(np.asarray(codes, dtype=np.uint8))
    if len(codes) % 2:
        codes.append(np.uint8(0))
    out = np.empty(len(codes) // 2, dtype=np.uint8)
    for i in range(out.size):
        out[i] = (int(codes[2 * i]) | (int(codes[2 * i + 1]) << 4)) & 0xFF
    return out


def naive_unpack_nibbles(packed: np.ndarray, n: int) -> np.ndarray:
    """Per-element reference unpacker matching :func:`unpack_nibbles`."""
    out = np.empty(n, dtype=np.uint8)
    for i in range(n):
        byte = int(packed[i // 2])
        out[i] = (byte & 0x0F) if i % 2 == 0 else (byte >> 4)
    return out


# ---------------------------------------------------------- wire records
def _dtype_codes():
    from repro.fl import wire
    return wire._DTYPE_CODE, wire._DTYPES


def record_nbytes(arr: np.ndarray, bits: int, block: int) -> int:
    """Exact byte length of :func:`encode_record`'s output."""
    n = arr.size
    base = _HEADER.size + 4 * arr.ndim
    if bits == 16:
        return base + 2 * n
    data = n if bits == 8 else (n + 1) // 2
    return base + 4 * _nblocks(n, block) + data


def encode_record(arr: np.ndarray, config: QuantConfig,
                  rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Quantize one tensor into a self-describing uint8 record.

    Returns ``(record, dequantized)`` where ``dequantized`` has the
    original dtype and shape and is *exactly* what
    :func:`decode_record` will reconstruct on the receiving side — the
    value aggregation must fold (dequantize-then-fold) and the value
    error feedback subtracts.
    """
    arr = np.ascontiguousarray(arr)
    codes_map, _ = _dtype_codes()
    if arr.dtype not in codes_map:
        raise TypeError(f"unsupported dtype {arr.dtype} for quantization")
    bits, block = config.bits, config.block
    out = bytearray(record_nbytes(arr, bits, block))
    _HEADER.pack_into(out, 0, bits, codes_map[arr.dtype], arr.ndim, 0, block)
    off = _HEADER.size
    if arr.ndim:
        struct.pack_into(f"<{arr.ndim}I", out, off, *arr.shape)
        off += 4 * arr.ndim
    if bits == 16:
        half = arr.astype(np.float16)
        out[off:off + 2 * arr.size] = half.tobytes()
        deq = half.astype(arr.dtype)
        return np.frombuffer(bytes(out), dtype=np.uint8), deq
    codes, scales = stochastic_quantize(arr, bits, block, rng)
    out[off:off + 4 * scales.size] = scales.tobytes()
    off += 4 * scales.size
    packed = codes if bits == 8 else pack_nibbles(codes)
    out[off:off + packed.size] = packed.tobytes()
    deq = dequantize_values(codes, scales, bits, block) \
        .astype(arr.dtype).reshape(arr.shape)
    return np.frombuffer(bytes(out), dtype=np.uint8), deq


def decode_record(raw: np.ndarray, entry: str | None = None) -> np.ndarray:
    """Reconstruct the dequantized tensor from a wire record.

    Accepts the (possibly read-only, zero-copy) uint8 array a wire
    decode produced.  The header is untrusted: whatever it claims —
    bit width, dtype, shape, block — must account for the record's length
    to the byte before anything is sliced or allocated, and every
    violation is a :class:`~repro.fl.wire.PayloadError` naming ``entry``
    (the wire entry the record travelled as), never a mis-sliced tensor.
    """
    from repro.fl.wire import PayloadError

    def bad(message: str) -> PayloadError:
        return PayloadError(message, entry=entry)

    raw = np.asarray(raw)
    if raw.dtype != np.uint8 or raw.ndim != 1:
        raise bad(f"quantized record must be 1-d uint8, got {raw.dtype} "
                  f"of shape {raw.shape}")
    mv = memoryview(np.ascontiguousarray(raw)).cast("B")
    total = mv.nbytes
    if total < _HEADER.size:
        raise bad("quantized record shorter than its header")
    bits, code, ndim, flags, block = _HEADER.unpack_from(mv, 0)
    _, dtypes = _dtype_codes()
    if bits not in (16, 8, 4):
        raise bad(f"unknown quantized bit width {bits}")
    if code >= len(dtypes):
        raise bad(f"unknown dtype code {code} in quantized record")
    dtype = dtypes[code]
    if dtype.kind != "f":
        raise bad(f"quantized record claims non-float dtype {dtype}")
    if flags:
        raise bad(f"unknown flags {flags:#04x} in quantized record")
    off = _HEADER.size
    if total < off + 4 * ndim:
        raise bad("quantized record truncated in its shape")
    shape = struct.unpack_from(f"<{ndim}I", mv, off)
    off += 4 * ndim
    n = 1
    for dim in shape:
        n *= int(dim)
    if bits == 16:
        if total != off + 2 * n:
            raise bad(f"fp16 record of shape {shape} expects {2 * n} data "
                      f"bytes, has {total - off}")
        half = np.frombuffer(mv, dtype=np.float16, count=n, offset=off)
        return half.astype(dtype).reshape(shape)
    nb = _nblocks(n, block)
    data = n if bits == 8 else (n + 1) // 2
    if total != off + 4 * nb + data:
        raise bad(f"int{bits} record of shape {shape}, block {block} expects "
                  f"{nb} scales + {data} code bytes, has {total - off} bytes")
    scales = np.frombuffer(mv, dtype=np.float32, count=nb, offset=off)
    off += 4 * nb
    packed = np.frombuffer(mv, dtype=np.uint8, count=data, offset=off)
    if bits == 4 and n % 2 and packed[-1] >> 4:
        raise bad("int4 record with an odd value count has a non-zero "
                  "padding nibble")
    codes = packed if bits == 8 else unpack_nibbles(packed, n)
    return dequantize_values(codes, scales, bits, block) \
        .astype(dtype).reshape(shape)


# -------------------------------------------------------- payload level
def _entry_overhead(name: str, ndim: int) -> int:
    """Wire bytes of one entry minus its raw data bytes."""
    return 2 + len(name.encode("utf-8")) + 2 + 4 * ndim


def _passthrough(name: str, arr: np.ndarray,
                 config: QuantConfig) -> str | None:
    """Why ``name`` passes through bit-exactly instead of travelling as a
    quantized record, or ``None`` when it is quantized.

    Only float tensors whose record entry is *strictly smaller* than
    their dense entry qualify; everything else passes through:
    ``"not_float"`` — integer indices, bool masks, BN step counters —
    and ``"not_smaller"`` — tiny tensors where the record header would
    outweigh the data (``"inactive"``: the ``bits=32`` identity config,
    which the drivers never hand the codec).  The rule depends only on
    dtype/shape/config, so :func:`quant_payload_nbytes` and
    :func:`quantize_payload` always agree.
    """
    if not config.active:
        return "inactive"
    if arr.dtype.kind != "f":
        return "not_float"
    dense = _entry_overhead(name, arr.ndim) + arr.nbytes
    record = _entry_overhead(name + QUANT_SUFFIX, 1) \
        + record_nbytes(arr, config.bits, config.block)
    return None if record < dense else "not_smaller"


def quantize_payload(payload: dict[str, np.ndarray], config: QuantConfig,
                     rng: np.random.Generator,
                     residuals: dict[str, np.ndarray] | None = None
                     ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Encode an uplink payload; return ``(wire_dict, decoded_dict)``.

    ``wire_dict`` is what crosses the (simulated) network — quantized
    entries as ``name + "\\x00q"`` uint8 records, everything else
    untouched — and ``decoded_dict`` is the receiver's view of it, with
    the original entry names, dtypes, and shapes.  With ``residuals``
    (a per-client dict the caller persists), error feedback adds each
    entry's carried-over rounding error before quantizing and stores the
    new error after.  A dense entry's residual is positional, and one
    whose shape no longer matches is reset rather than misapplied.  A
    ``name.val`` entry beside a ``name.idx`` carries the rows (SPATL's
    filters, top-k's coordinates) that index names, and the selection
    changes between participations, so its residual is held by row id:
    ``residuals[name.idx]`` lists the rows ``residuals[name.val]`` holds,
    a sent row takes its own row's residual, and rows not sent this time
    keep theirs for when they are.  Each entry that passes through is
    counted as ``quant.passthrough{reason=}`` (see :func:`_passthrough`).
    """
    if "\x00" in "".join(payload):
        bad = next(k for k in payload if "\x00" in k)
        raise ValueError(f"payload entry {bad!r} contains NUL, which is "
                         "reserved for quantized-record names")
    wire_dict: dict[str, np.ndarray] = {}
    decoded: dict[str, np.ndarray] = {}
    for name, value in payload.items():
        arr = np.asarray(value)
        reason = _passthrough(name, arr, config)
        if reason is not None:
            get_registry().counter("quant.passthrough", reason=reason).inc()
            wire_dict[name] = arr
            decoded[name] = arr
            continue
        rows = None
        if name.endswith(".val") and name[:-4] + ".idx" in payload:
            rows = np.array(payload[name[:-4] + ".idx"], dtype=np.int64)
        x = arr
        if residuals is not None:
            x = _with_residual(arr, name, rows, residuals)
        record, deq = encode_record(x, config, rng)
        if residuals is not None:
            _keep_residual((x - deq).astype(arr.dtype, copy=False), name,
                           rows, residuals)
        wire_dict[name + QUANT_SUFFIX] = record
        decoded[name] = deq
    return wire_dict, decoded


def _held_rows(name: str, arr: np.ndarray, residuals: dict):
    """``(row ids, residual rows)`` held for a row-keyed ``name.val``, or
    ``None`` when nothing usable is held (rows of another shape or dtype)."""
    ids, held = residuals.get(name[:-4] + ".idx"), residuals.get(name)
    if ids is None or held is None or not len(ids) or len(ids) != len(held) \
            or held.shape[1:] != arr.shape[1:] or held.dtype != arr.dtype:
        return None
    return ids, held


def _with_residual(arr: np.ndarray, name: str, rows, residuals: dict):
    """``arr`` plus its carried-over rounding error (see
    :func:`quantize_payload`)."""
    if rows is None:
        prior = residuals.get(name)
        if prior is not None and prior.shape == arr.shape:
            return arr + prior.astype(arr.dtype, copy=False)
        return arr
    held = _held_rows(name, arr, residuals)
    if held is None:
        return arr
    ids, prior = held
    if np.array_equal(ids, rows):           # the same rows as last time
        return arr + prior
    pos = np.minimum(np.searchsorted(ids, rows), len(ids) - 1)
    hit = ids[pos] == rows
    x = arr.copy()
    x[hit] += prior[pos[hit]]
    return x


def _keep_residual(err: np.ndarray, name: str, rows, residuals: dict):
    """Store this round's rounding error ``err`` (see
    :func:`quantize_payload`): row-keyed entries merge it over the rows
    held, sorted by row id."""
    if rows is None:
        residuals[name] = err
        return
    held = _held_rows(name, err, residuals)
    if held is not None:
        ids, prior = held
        kept = ~np.isin(ids, rows)
        if kept.any():
            rows = np.concatenate([ids[kept], rows])
            err = np.concatenate([prior[kept], err])
    if np.any(rows[1:] < rows[:-1]):
        order = np.argsort(rows, kind="stable")
        rows, err = rows[order], err[order]
    residuals[name[:-4] + ".idx"] = rows
    residuals[name] = err


def dequantize_payload(wire_dict: dict[str, np.ndarray]
                       ) -> dict[str, np.ndarray]:
    """Receiver-side decode of a :func:`quantize_payload` wire dict."""
    out: dict[str, np.ndarray] = {}
    for name, value in wire_dict.items():
        if name.endswith(QUANT_SUFFIX):
            out[name[:-len(QUANT_SUFFIX)]] = decode_record(value, entry=name)
        else:
            out[name] = value
    return out


def quant_payload_nbytes(payload: dict[str, np.ndarray],
                         config: QuantConfig,
                         checksums: bool = False) -> int:
    """Exact wire size of the quantized payload, without encoding it.

    Equals ``payload_nbytes(quantize_payload(payload, ...)[0])`` for any
    RNG — record sizes depend only on dtype/shape/config.
    """
    total = 4
    per_entry = 4 if checksums else 0
    for name, value in payload.items():
        arr = np.asarray(value)
        if _passthrough(name, arr, config) is None:
            total += _entry_overhead(name + QUANT_SUFFIX, 1) \
                + record_nbytes(arr, config.bits, config.block) + per_entry
        else:
            total += _entry_overhead(name, arr.ndim) + arr.nbytes + per_entry
    return total


def make_quant_config(bits: int, block: int = 0,
                      error_feedback: bool = True) -> QuantConfig | None:
    """A :class:`QuantConfig` from CLI-style knobs (``None`` when off)."""
    if bits == 32:
        return None
    return QuantConfig(bits=bits, block=block, error_feedback=error_feedback)
