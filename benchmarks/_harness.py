"""What the seven ``bench_*.py`` writers share (ROADMAP: bench hygiene).

So far one rule: where a record may be written.  A ``--smoke`` run is a
CI-sized gate, not a measurement, so it never lands on the committed
``BENCH_<name>.json`` by default and never replaces a full-run record.
"""

from __future__ import annotations

import json
from pathlib import Path


def resolve_out(out: str | None, committed: Path, smoke: bool) -> Path:
    """The file this run writes.

    ``--out`` wins; without it a full run writes the ``committed`` record
    and a ``--smoke`` run writes ``bench_<name>_smoke.json`` in the cwd
    (the name CI passes).  A smoke run aimed at a file holding a full-run
    record (``"smoke": false``) is refused before any work is done; an
    append-only history (a JSON list) has nothing to replace.
    """
    if out is None:
        name = committed.stem.removeprefix("BENCH_")
        out = f"bench_{name}_smoke.json" if smoke else committed
    out = Path(out)
    if smoke and out.exists():
        try:
            existing = json.loads(out.read_text())
        except (json.JSONDecodeError, OSError):
            existing = None
        if isinstance(existing, dict) and existing.get("smoke") is False:
            raise SystemExit(f"{out} holds a full-run record; refusing to "
                             "replace it with a --smoke one (pass another "
                             "--out)")
    return out
