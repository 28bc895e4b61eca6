"""Fold aggregation: the one place server-side arithmetic is driven from.

A fold is an incremental accumulator: ``add(update, weight)`` commits
one upload, ``finalize(round_idx)`` installs the result into the
algorithm's global state.  Every driver aggregates through the fold its
algorithm's ``make_fold(spill)`` returns (DESIGN.md §13.3):
:class:`StreamingFold`, which streams the parked ``upload_payload`` of
each upload to the algorithm's ``server_step``, or SPATL's running
Eq. 12 / Eq. 11 :class:`SPATLFold`.

With no spill a fold parks references to the update's own arrays (no
codec pass, no disk); with an :class:`UpdateSpill` each record is framed
to disk and streamed back one at a time, so server memory is O(model)
independent of cohort size.  Every server step adds in cohort order per
key / per coordinate, so resident and spilled folds are bitwise equal.

Every ``add`` carries a weight — 1.0 on the synchronous path, the
staleness discount under the async runtime.  IEEE 754 makes
``x * 1.0 == x`` exact, and example counts are integers summed exactly
in float64, so a unit-weight fold is bitwise the unweighted reduction
(DESIGN.md §13.3).
"""

from __future__ import annotations

import functools
import os
import struct
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.aggregation import SalientAccumulator
from repro.core.gradient_control import server_variate_delta
from repro.fl.comm import PayloadError, decode_update, encode_update
from repro.fl.local import weighted_average_states
from repro.fl.wire import deserialize, serialize

_REC_HDR = struct.Struct("<Q")

_DESERIALIZE_VIEW = functools.partial(deserialize, copy=False)


class UpdateSpill:
    """Append-only length-prefixed blob log backing a fold's disk state.

    As a context manager it unlinks its file on exit, whatever the exit.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._file = open(self.path, "w+b")
        self.n_records = 0
        self.nbytes = 0

    @classmethod
    def attach(cls, path: str | os.PathLike, n_records: int,
               nbytes: int) -> "UpdateSpill":
        """Reopen an existing spill at a checkpointed position.

        Truncates to ``nbytes`` so records appended after the snapshot
        are discarded — resume is byte-identical.  A file *shorter* than
        the checkpointed position lost records the fold already counted
        (``truncate`` would zero-extend it and the zeros would decode as
        data), so it is rejected.
        """
        spill = cls.__new__(cls)
        spill.path = os.fspath(path)
        spill.n_records = int(n_records)
        spill.nbytes = int(nbytes)
        spill._file = open(spill.path, "r+b")
        size = os.fstat(spill._file.fileno()).st_size
        if size < spill.nbytes:
            spill._file.close()
            raise PayloadError(
                f"spill {spill.path} is {size} bytes, shorter than the "
                f"checkpointed {spill.nbytes} bytes / {spill.n_records} "
                "records")
        spill._file.truncate(spill.nbytes)
        spill._file.seek(spill.nbytes)
        return spill

    def append(self, blob: bytes) -> None:
        self._file.write(_REC_HDR.pack(len(blob)))
        self._file.write(blob)
        self.n_records += 1
        self.nbytes += _REC_HDR.size + len(blob)

    def __iter__(self) -> Iterator[bytes]:
        """Stream records back; safe to call while the file stays open."""
        self._file.flush()
        fd = self._file.fileno()
        off = 0
        for index in range(self.n_records):
            header = os.pread(fd, _REC_HDR.size, off)
            if len(header) < _REC_HDR.size:
                raise self._torn("header", index, off)
            (blob_len,) = _REC_HDR.unpack(header)
            blob = os.pread(fd, blob_len, off + _REC_HDR.size)
            if len(blob) < blob_len:
                raise self._torn("body", index, off)
            yield blob
            off += _REC_HDR.size + blob_len

    def _torn(self, part: str, index: int, offset: int) -> PayloadError:
        return PayloadError(f"spill {self.path}: record {index} has a "
                            f"truncated {part}", offset=offset)

    def flush(self) -> None:
        self._file.flush()

    def unlink(self) -> None:
        self._file.close()
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    def __enter__(self) -> "UpdateSpill":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()


class StreamingFold:
    """The fold of every algorithm but SPATL: ``add`` parks what the
    uplink carries (dequantized under a quantized transport) and the
    ``(n, weight)`` pair; ``finalize`` streams both to ``server_step``.

    ``snapshot()`` / ``restore()`` capture and reinstall the resident
    state of a *spilled* fold for mid-round checkpointing; the spill file
    is checkpointed separately by :mod:`repro.fl.checkpoint`.
    """

    def __init__(self, algorithm, spill: UpdateSpill | None = None):
        self.algo = algorithm
        self.spill = spill
        self._pairs: list[tuple[float, float]] = []  # (n, weight) per add
        self._resident: list[Any] = []               # parked, spill is None

    @property
    def n_updates(self) -> int:
        return len(self._pairs)

    def _check_weight(self, weight: float) -> float:
        weight = float(weight)
        if weight <= 0.0:
            raise ValueError("aggregation weights must be > 0")
        return weight

    def _check_nonempty(self) -> None:
        if not self.n_updates:   # the server loop skips an empty round
            raise ValueError("aggregate() needs >= 1 surviving update; "
                             "skipped rounds must not reach aggregation")

    def _park(self, record: Any, encode: Callable[[Any], bytes]) -> None:
        """Keep what finalize still needs: by reference, or framed to disk."""
        if self.spill is None:
            self._resident.append(record)
        else:
            self.spill.append(encode(record))

    def _parked(self, decode: Callable[[bytes], Any]) -> Iterator[Any]:
        """The parked records, in ``add`` order (re-iterable)."""
        if self.spill is None:
            return iter(self._resident)
        return (decode(blob) for blob in self.spill)

    def add(self, update: dict, weight: float = 1.0) -> None:
        weight = self._check_weight(weight)
        self._park(self.algo.upload_payload(update), serialize)
        self._pairs.append((float(update["n"]), weight))

    def finalize(self, round_idx: int) -> None:
        self._check_nonempty()
        self.algo.server_step(lambda: self._parked(_DESERIALIZE_VIEW),
                              self._pairs)

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        arrays = {"pairs": np.asarray(self._pairs, dtype=np.float64).reshape(
            (self.n_updates, 2))}
        meta = {"kind": type(self).__name__, "n_updates": self.n_updates}
        return arrays, meta

    def restore(self, arrays: dict[str, np.ndarray],
                meta: dict[str, Any]) -> None:
        if meta["kind"] != type(self).__name__:
            raise ValueError(f"fold kind mismatch: checkpoint has "
                             f"{meta['kind']!r}, algorithm builds "
                             f"{type(self).__name__!r}")
        self._pairs = [(float(n), float(w)) for n, w in arrays["pairs"]]


class SPATLFold(StreamingFold):
    """SPATL's server step: Eq. 12 + dense mean + Eq. 11, written once.

    One :class:`~repro.core.aggregation.SalientAccumulator` per prunable
    layer, built at construction (Eq. 12's diffs are all taken against
    the *pre-round* global).  Eq. 11 variate deltas are reconstructed
    from each upload by
    :func:`~repro.core.gradient_control.server_variate_delta` and summed
    eagerly; ``finalize`` applies ``c += sum(delta c_i) / N`` — precisely
    ``(|S|/N) * mean`` with ``|S|`` = the updates folded, so a dropped
    client leaves ``c_global`` untouched for its share.  Dense tensors and shared-predictor states
    are parked for the weighted mean.  A staleness weight scales the
    upload's Eq. 12 diffs and coverage, its example count, and its
    Eq. 11 delta.
    """

    def __init__(self, algorithm, spill: UpdateSpill | None = None):
        super().__init__(algorithm, spill)
        algo = algorithm
        self._params = dict(algo.global_model.encoder.named_parameters())
        self._layers = {
            layer: SalientAccumulator(self._params[layer + ".weight"].data)
            for layer in algo.prunable}
        self._c_acc: dict[str, np.ndarray] = {}
        if algo.use_gradient_control:
            for name, c_val in algo.c_global.values.items():
                self._c_acc[name] = np.zeros_like(c_val, dtype=np.float64)

    def add(self, update: dict, weight: float = 1.0) -> None:
        weight = self._check_weight(weight)
        algo = self.algo

        # --- Eq. 12: one upload's contribution per prunable layer ------
        for layer, accumulator in self._layers.items():
            accumulator.add(*update["salient"][layer], weight)

        # --- Eq. 11: eager variate-delta accumulation ------------------
        for name, acc in self._c_acc.items():   # empty without variates
            k_eta = update["eff_steps"] * algo.lr
            c_val = algo.c_global.values[name]
            layer = name[:-len(".weight")] if name.endswith(".weight") \
                else None
            before = update["before"][name]
            if layer in update["salient"]:
                idx, rows = update["salient"][layer]
                idx = np.asarray(idx, dtype=np.int64)
                delta = server_variate_delta(c_val, before, rows, k_eta, idx)
                acc[idx] += weight * delta
            elif name in update["dense"]:
                delta = server_variate_delta(c_val, before,
                                             update["dense"][name], k_eta)
                acc += weight * delta

        # --- dense + shared predictor, parked for the finalize stream --
        self._park({"dense": update["dense"],
                    "pred": update["predictor_state"]}, encode_update)
        self._pairs.append((float(update["n"]), weight))

    def finalize(self, round_idx: int) -> None:
        self._check_nonempty()
        algo = self.algo

        # --- Eq. 12: apply covered-coordinate means --------------------
        for layer, accumulator in self._layers.items():
            param = self._params[layer + ".weight"]
            param.data[...] = accumulator.result(
                algo.aggregation_step).astype(param.data.dtype)

        # --- dense tensors (and shared predictor) ----------------------
        weights = [n * w for n, w in self._pairs]
        dense_avg = weighted_average_states(
            (rec["dense"] for rec in self._parked(decode_update)), weights)
        algo.global_model.encoder.load_state_dict(dense_avg, strict=False)
        if not algo.use_transfer:
            pred_avg = weighted_average_states(
                (rec["pred"] for rec in self._parked(decode_update)), weights)
            algo.global_model.load_predictor_state(pred_avg)

        # --- Eq. 11: c += sum(delta c_i) / N ---------------------------
        for name, acc in self._c_acc.items():
            c_val = algo.c_global.values[name]
            algo.c_global.values[name] = (
                c_val + acc / len(algo.clients)).astype(c_val.dtype)

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        arrays, meta = super().snapshot()
        for layer, accumulator in self._layers.items():
            arrays[f"acc.{layer}"] = accumulator.acc
            arrays[f"counts.{layer}"] = accumulator.counts
        for name, acc in self._c_acc.items():
            arrays[f"cacc.{name}"] = acc
        return arrays, meta

    def restore(self, arrays: dict[str, np.ndarray],
                meta: dict[str, Any]) -> None:
        super().restore(arrays, meta)
        for layer, accumulator in self._layers.items():
            accumulator.acc = np.array(arrays[f"acc.{layer}"])
            accumulator.counts = np.array(arrays[f"counts.{layer}"]).astype(
                accumulator.counts.dtype)
        for name in list(self._c_acc):
            self._c_acc[name] = np.array(arrays[f"cacc.{name}"])

