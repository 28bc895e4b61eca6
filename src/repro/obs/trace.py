"""Context-managed tracing spans with JSONL and Chrome-trace export.

A :class:`Span` measures the wall time of one ``with`` block and carries
arbitrary key/value attributes (round index, client id, byte counts...).
Spans nest: a :class:`Tracer` keeps a stack so each finished span knows
its depth and parent, which is enough to reconstruct the round timeline
and to render a flame-graph view in ``chrome://tracing`` / Perfetto.

Transfer spans (``download`` / ``upload``) are opened by exactly one
piece of code, :class:`repro.fl.comm.Transport`, the same call that
charges the ``CommLedger`` (DESIGN.md §17), and their ``bytes``
attribute is the exact charged wire size — summing it equals the ledger
totals on every driver.  Tracing adds no work to a transfer: a
``serialize`` / ``deserialize`` pair appears inside one only where the
codec really runs, which is a checksummed transfer under a fault model;
there their ``bytes`` equal the charged size too, and ``entries`` is the
state-dict entry count.  Two markers describe *how* those bytes were
produced without changing the counts: ``cached=True`` on serialize
spans served from the per-round :class:`~repro.fl.wire.BroadcastCache`
(the full blob length is still reported — the simulated network sent
it, only the CPU encode was skipped), and ``zero_copy=True`` on
deserializes that returned read-only views instead of copies.  The codec
functions themselves open no span, so storage framing (spills, stores,
checkpoints, pool plumbing) never appears as traffic.

The process-global default tracer is a :class:`NullTracer` whose
``span()`` returns one shared no-op span — instrumented call sites cost a
method call and an empty ``with`` block when tracing is off, keeping the
default path's overhead unmeasurable (<2% on the tiny FedAvg benchmark)
and its numerics byte-identical.  Install a real tracer with
:func:`set_tracer` or the :func:`tracing` context manager.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, Iterator


class Span:
    """One timed region: name, wall-clock bounds, and attributes.

    Created by :meth:`Tracer.span` and used as a context manager; entering
    stamps the start time, exiting stamps the end and appends the span to
    its tracer's finished list.  Attributes can be attached at creation
    (``tracer.span("upload", client=3)``) or later via :meth:`set` — e.g.
    a byte count known only once the payload is built.
    """

    __slots__ = ("name", "attrs", "t_start", "t_end", "depth", "index",
                 "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.t_start = 0.0
        self.t_end = 0.0
        self.depth = 0
        self.index = -1
        self._tracer = tracer

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on an open or finished span."""
        self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        """Wall-clock seconds between enter and exit (0 while open)."""
        return max(self.t_end - self.t_start, 0.0)

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._exit(self)

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
                f"{self.attrs})")


class _NullSpan:
    """Shared inert span: every method is a no-op.

    A single module-level instance (:data:`NULL_SPAN`) is returned by
    :class:`NullTracer` for *every* call, so the disabled path allocates
    nothing.
    """

    __slots__ = ()
    name = ""
    attrs: dict[str, Any] = {}
    duration = 0.0

    def set(self, **attrs: Any) -> "_NullSpan":
        """Ignore attributes (disabled tracing)."""
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: ``span()`` hands back the shared no-op span."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        """Return the shared inert span (no allocation, no recording)."""
        return NULL_SPAN


class Tracer:
    """Collects finished :class:`Span` records with nesting depth.

    Spans are appended on *exit*; :attr:`spans` is therefore ordered by
    completion time, and each span's ``index`` records creation order so
    exports can re-sort chronologically.  The tracer is single-threaded by
    design (matching the simulator): one open-span stack, no locks.
    """

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._epoch = time.perf_counter()
        self._counter = 0

    def span(self, name: str, **attrs: Any) -> Span:
        """Create an (un-entered) span; use as ``with tracer.span(...)``."""
        return Span(self, name, attrs)

    def _enter(self, span: Span) -> None:
        span.depth = len(self._stack)
        span.index = self._counter
        self._counter += 1
        self._stack.append(span)
        span.t_start = time.perf_counter()

    def _exit(self, span: Span) -> None:
        span.t_end = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:           # exited out of order: unwind
            self._stack.remove(span)
        self.spans.append(span)

    @property
    def depth(self) -> int:
        """Current nesting depth (number of open spans)."""
        return len(self._stack)

    def records(self) -> list[dict[str, Any]]:
        """Finished spans as plain dicts (JSON-able, picklable).

        The format is the JSONL export schema: ``name``, ``start_s`` /
        ``dur_s`` relative to tracer creation, ``depth``, and ``attrs``
        when present.  This is also the wire format worker processes use
        to hand their spans back to the parent (see :meth:`absorb`).
        """
        return self._records()

    def absorb(self, records: list[dict[str, Any]],
               base_depth: int = 0) -> None:
        """Append spans recorded by *another* tracer (typically in a
        worker process) into this timeline.

        Spans are re-anchored so the absorbed group starts at this
        tracer's current elapsed time, and every depth is offset by
        ``base_depth`` — pass the parent's open-span :attr:`depth` so
        worker spans nest under the span that was open when their work
        was dispatched.  Wall-clock *durations* are preserved; absolute
        placement is not meaningful across processes.
        """
        now = time.perf_counter()
        for rec in records:
            span = Span(self, rec["name"], dict(rec.get("attrs", {})))
            span.t_start = now + rec["start_s"]
            span.t_end = span.t_start + rec["dur_s"]
            span.depth = base_depth + rec["depth"]
            span.index = self._counter
            self._counter += 1
            self.spans.append(span)

    # ------------------------------------------------------------ export
    def _records(self) -> list[dict[str, Any]]:
        ordered = sorted(self.spans, key=lambda s: s.index)
        return [{"name": s.name,
                 "start_s": round(s.t_start - self._epoch, 9),
                 "dur_s": round(s.duration, 9),
                 "depth": s.depth,
                 **({"attrs": s.attrs} if s.attrs else {})}
                for s in ordered]

    def to_jsonl(self) -> str:
        """One JSON object per finished span, in creation order."""
        return "\n".join(json.dumps(r) for r in self._records())

    def to_chrome_trace(self) -> dict[str, Any]:
        """Trace-event JSON loadable by ``chrome://tracing`` / Perfetto.

        Each span becomes a complete ("ph": "X") event with microsecond
        timestamps relative to tracer creation; attributes land in
        ``args`` so they show in the inspector pane.
        """
        events = []
        for s in sorted(self.spans, key=lambda s: s.index):
            events.append({
                "name": s.name, "ph": "X", "cat": "repro",
                "ts": round((s.t_start - self._epoch) * 1e6, 3),
                "dur": round(s.duration * 1e6, 3),
                "pid": 0, "tid": 0,
                "args": {k: _jsonable(v) for k, v in s.attrs.items()},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save_jsonl(self, path) -> None:
        """Write :meth:`to_jsonl` output (plus newline) to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_jsonl() + "\n")

    def save_chrome_trace(self, path) -> None:
        """Write :meth:`to_chrome_trace` output to ``path`` as JSON."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)


def _jsonable(value: Any):
    """Coerce an attribute to a JSON-serialisable primitive."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    try:
        return float(value)                 # numpy scalars
    except (TypeError, ValueError):
        return str(value)


_tracer: Tracer | NullTracer = NullTracer()


def get_tracer() -> Tracer | NullTracer:
    """The process-global tracer (a no-op :class:`NullTracer` by default)."""
    return _tracer


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` globally; returns the previous one for restore."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


@contextlib.contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Enable tracing for a block: installs (or creates) a real tracer.

    ::

        with tracing() as tracer:
            algo.run(rounds=2)
        tracer.save_chrome_trace("trace.json")
    """
    tracer = tracer if tracer is not None else Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
