"""The one bench harness: flags, BLAS pin, timing, record, bounds, history.

Each ``bench_<name>.py`` declares a :class:`Bench` — a table of
``(case name, callable)`` rows, its full and ``--smoke`` sizes and the
floors only it knows — and its ``main`` delegates here.  Everything the
benches used to repeat is written once in this file:

- **flags** — ``--smoke``, ``--check``, ``--out`` (plus what a bench adds
  through ``Bench.flags``); every other size is a constant of the bench;
- **BLAS pin** — one thread, set before NumPy loads (below), so records
  are comparable and a pool's workers do not fight serial's threads;
- **timing** — :func:`interleaved`, opt-vs-ref min-of-N, alternating;
- **record** — one shape for every bench (:data:`RECORD_KEYS`); a row is
  a flat dict carrying ``case`` (the table entry that produced it) and
  ``name`` (unique within the case);
- **check** — :meth:`Bench.check`, a pure function of the run's own
  record: :func:`bounds` (a timed row carries ``min_speedup``, a floor
  on its ratio to the reference it is timed against, which load moves on
  both sides; a byte count its ceiling) and the bench's ``floors``.  No
  check reads an older record, from another box or commit;
- **history** — ``BENCH_<name>.json`` is an append-only trajectory.  An
  unreadable history stops the run, a ``--smoke`` record never lands
  beside a full one, and a full run that fails its check lands in
  ``bench_<name>_failed.json`` (cwd, git-ignored) instead.

Benches measure; tier-1 asserts.  A case may :func:`require` an identity
between two states it already holds (that aborts the run, no record is
written), but a case that existed only to assert one belongs in
``tests/``.
"""

from __future__ import annotations

import os
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Before NumPy is imported (bench scripts import this module first; their
# subprocesses inherit the environment): one BLAS thread.  With 2 threads
# conv2d.forward reads 6-8x its recorded time on any commit, and serial
# eats the cores a process pool was given.  When NumPy is already loaded
# (pytest importing a bench) the pin could not take effect, so the
# process's environment is left alone.
if "numpy" not in sys.modules:
    for _var in BLAS_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Iterable  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
# Scripts and the subprocesses they spawn find ``repro`` without relying
# on the caller's PYTHONPATH; scripts find the allocating oracles the
# tests keep (``tests.reference``, ``tests.reference_agg``) too.
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))
if str(REPO) not in sys.path:
    sys.path.append(str(REPO))

SEED = 0
RECORD_KEYS = ("bench", "commit", "timestamp", "smoke", "env",
               "peak_rss_bytes", "size", "rows")


# ---------------------------------------------------------------- timing
def interleaved(fn_opt: Callable, fn_ref: Callable, repeats: int,
                self_timed: bool = False,
                min_speedup: float | None = None) -> dict:
    """Min-of-``repeats`` per side, alternating opt/ref every iteration so
    drift and frequency noise land on both.

    Each call is timed whole, unless ``self_timed``: then both sides
    return the seconds of the part of themselves that counts (a backward
    after an untimed forward) and those are what is compared.  A
    ``min_speedup`` is carried into the row, for :func:`bounds`.
    """
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, fn in enumerate((fn_opt, fn_ref)):
            t0 = time.perf_counter()
            own = fn()
            whole = time.perf_counter() - t0
            best[side] = min(best[side], own if self_timed else whole)
    # 4 significant digits: a ratio may be ~0.005 (the async loop's)
    row = {"opt_ms": round(best[0] * 1e3, 4),
           "ref_ms": round(best[1] * 1e3, 4),
           "speedup": float(f"{best[1] / best[0]:.4g}")}
    if min_speedup is not None:
        row["min_speedup"] = min_speedup
    return row


def require(ok: bool, what: str) -> None:
    """An identity between two states a case already holds.  Broken, it
    aborts the run — with or without ``--check`` — before any record is
    written (``assert`` would vanish under ``-O``)."""
    if not ok:
        raise SystemExit(f"IDENTITY BROKEN: {what}")


# ---------------------------------------------------------------- record
def _commit() -> str | None:
    """``git describe`` of the measured tree: the abbreviated HEAD, with
    ``-dirty`` when tracked files differ from it."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            cwd=REPO, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(bench: str, smoke: bool, size: dict, rows: list[dict]) -> dict:
    """The record of one run, in the one shape every history holds."""
    import numpy

    from repro.obs.metrics import blas_env, observe_peak_rss
    return {
        "bench": bench,
        "commit": _commit(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "smoke": bool(smoke),
        "env": {**blas_env(), "cpus_usable": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__},
        "peak_rss_bytes": observe_peak_rss(),
        "size": size,
        "rows": rows,
    }


def validate(record) -> list[str]:
    """Schema violations of one record (empty: it is well-formed)."""
    if not isinstance(record, dict):
        return [f"record is a {type(record).__name__}, not an object"]
    if set(record) != set(RECORD_KEYS):
        return [f"keys {sorted(record)} != {sorted(RECORD_KEYS)}"]
    errors = []
    for key, kind in (("bench", str), ("commit", (str, type(None))),
                      ("timestamp", str), ("smoke", bool), ("env", dict),
                      ("peak_rss_bytes", (int, type(None))), ("size", dict),
                      ("rows", list)):
        if not isinstance(record[key], kind):
            errors.append(f"{key} is a {type(record[key]).__name__}")
    seen = set()
    for row in record["rows"] if isinstance(record["rows"], list) else ():
        key = (row.get("case"), row.get("name")) \
            if isinstance(row, dict) else None
        if key is None or not all(isinstance(k, str) for k in key):
            errors.append(f"row without string case/name: {row!r}")
        elif key in seen:
            errors.append(f"duplicate row {key[0]}/{key[1]}")
        seen.add(key)
    return errors


def _print_row(row: dict) -> None:
    fields = " ".join(f"{k}={v}" for k, v in row.items()
                      if k not in ("case", "name")
                      and not isinstance(v, (list, dict)))
    print(f"{row['case'] + '/' + row['name']:<36} {fields}", flush=True)


# --------------------------------------------------------------- history
def load_history(path: Path) -> list[dict]:
    """The records ``path`` holds (none when it does not exist).  A file
    that does not parse to a list of records is never treated as an empty
    history — appending to it would overwrite the trajectory it exists to
    keep, or put this schema beside another."""
    path = Path(path)
    if not path.exists():
        return []
    try:
        history = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError) as exc:
        raise SystemExit(f"{path}: unreadable history ({exc}); repair or "
                         "move it, it will not be overwritten")
    if not isinstance(history, list):
        raise SystemExit(f"{path}: holds a {type(history).__name__}, not a "
                         "list of records; it will not be overwritten")
    for i, record in enumerate(history):
        if validate(record):
            raise SystemExit(f"{path}[{i}] is not a record of this schema "
                             f"({validate(record)[0]}); convert or move the "
                             "file, it will not be appended to")
    return history


def last_full(history: list[dict]) -> dict | None:
    """The newest record of a full (non-smoke) run."""
    return next((r for r in reversed(history)
                 if isinstance(r, dict) and r.get("smoke") is False), None)


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to the history at ``path``; earlier entries are
    rewritten as parsed, and the file is replaced in one rename."""
    errors = validate(record)
    if errors:
        raise SystemExit(f"{path}: refusing a malformed record: {errors}")
    history = load_history(path)
    tmp = Path(f"{path}.tmp")
    tmp.write_text(json.dumps(history + [record], indent=2) + "\n")
    os.replace(tmp, path)


def resolve_out(out: str | None, committed: Path, smoke: bool) -> Path:
    """The history this run appends to.

    ``--out`` wins; without it a full run appends to the ``committed``
    history and a ``--smoke`` run to ``bench_<name>_smoke.json`` in the
    cwd (git-ignored; CI uploads it).  A smoke run is a gate, not a
    measurement: aimed at a file holding any full-run record
    (``"smoke": false``) it is refused before any work is done.
    """
    if out is None:
        name = committed.stem.removeprefix("BENCH_")
        out = f"bench_{name}_smoke.json" if smoke else committed
    out = Path(out)
    if smoke and out.exists():
        try:
            existing = json.loads(out.read_text())
        except (json.JSONDecodeError, OSError):
            existing = None              # load_history names it, next
        if last_full(existing if isinstance(existing, list)
                     else [existing]) is not None:
            raise SystemExit(f"{out} holds a full-run record; refusing to "
                             "put a --smoke one beside it (pass another "
                             "--out)")
    return out


# ---------------------------------------------------------------- bounds
def bounds(record: dict) -> list[str]:
    """The bounds the rows carry: ``min_<field>`` / ``max_<field>`` hold
    the row's ``<field>``; a bound whose field is missing fails too."""
    failures = []
    for row in record["rows"]:
        for key, bound in row.items():
            kind, _, field = key.partition("_")
            if kind not in ("min", "max") or not field:
                continue
            value = row.get(field)
            where = f"{row['case']}/{row['name']}: {field} {value}"
            if value is None:
                failures.append(f"{where}, but the row carries {key}")
            elif kind == "min" and value < bound:
                failures.append(f"{where} below its floor {bound}")
            elif kind == "max" and value > bound:
                failures.append(f"{where} above its ceiling {bound}")
    return failures


# ----------------------------------------------------------------- bench
@dataclasses.dataclass(frozen=True)
class Bench:
    """One bench: a table of cases over the shared record and check."""
    name: str
    doc: str
    #: ``(case name, callable)``: the callable takes the run's ``size``
    #: dict and yields row dicts, each with a ``name`` unique in its case.
    cases: tuple[tuple[str, Callable[[dict], Iterable[dict]]], ...]
    full: dict
    smoke: dict
    #: ``floors(record) -> failures``: what only this bench knows, judged
    #: on a record's own ``rows`` / ``smoke`` / ``env``.  Pure, so it reads
    #: a committed record — or tier-1's synthetic one — as it reads a run.
    floors: Callable[[dict], list[str]] = lambda record: []
    #: adds this bench's own flags; parsed values land in ``size``.
    flags: Callable[[argparse.ArgumentParser], None] | None = None

    @property
    def committed(self) -> Path:
        return REPO / f"BENCH_{self.name}.json"

    def check(self, record: dict) -> list[str]:
        """What ``--check`` asks of a record: its rows' bounds and the
        bench's floors, read from the record alone."""
        return bounds(record) + self.floors(record)

    def main(self, argv=None) -> int:
        parser = argparse.ArgumentParser(
            description=self.doc.split("\n")[0])
        parser.add_argument("--smoke", action="store_true",
                            help="CI-sized run; appends to "
                                 f"bench_{self.name}_smoke.json in the cwd")
        parser.add_argument("--check", action="store_true",
                            help="exit non-zero on a broken bound or floor "
                                 "of this run's record")
        parser.add_argument("--out", default=None,
                            help="history to append to (default: "
                                 f"{self.committed.name}, or the smoke file)")
        if self.flags is not None:
            self.flags(parser)
        args = vars(parser.parse_args(argv))
        smoke, check, out = (args.pop(k) for k in ("smoke", "check", "out"))
        out = resolve_out(out, self.committed, smoke)
        load_history(out)                # unreadable: stop before any work

        size = {**(self.smoke if smoke else self.full), **args}
        rows = []
        for case, fn in self.cases:
            for row in fn(size):
                rows.append({"case": case, **row})
                _print_row(rows[-1])
        record = stamp(self.name, smoke, size, rows)
        failures = self.check(record) if check else []
        if failures and out.resolve() == self.committed.resolve():
            # a run that failed its check stays out of the trajectory
            out = Path(f"bench_{self.name}_failed.json")
        append_record(out, record)
        print(f"appended to {out}")
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        return 1 if failures else 0
