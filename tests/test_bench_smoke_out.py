"""Where ``benchmarks/bench_*.py`` write: a ``--smoke`` run must never
land on (or replace) a committed full-run ``BENCH_<name>.json``.

Pure: each script's ``main`` is stopped where it resolves ``--out``,
right after argument parsing and before any measurement.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent
_BENCHES = ["async", "comm", "compile", "kernels", "parallel", "quant",
            "scale"]


class _Resolved(Exception):
    pass


@pytest.fixture
def resolved_out(monkeypatch):
    """``resolved_out(name, argv)``: the path ``bench_<name>.py`` would
    write for ``argv`` (scripts import ``_harness`` as siblings)."""
    monkeypatch.syspath_prepend(str(_REPO / "benchmarks"))
    import _harness
    real = _harness.resolve_out

    def stop(*args):
        raise _Resolved(real(*args))

    monkeypatch.setattr(_harness, "resolve_out", stop)

    def run(name, argv):
        spec = importlib.util.spec_from_file_location(
            f"bench_{name}", _REPO / "benchmarks" / f"bench_{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        with pytest.raises(_Resolved) as stopped:
            module.main(argv)
        return stopped.value.args[0]

    yield run
    sys.modules.pop("_harness", None)


@pytest.mark.parametrize("name", _BENCHES)
def test_default_out(resolved_out, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    committed = _REPO / f"BENCH_{name}.json"
    assert resolved_out(name, []) == committed
    assert resolved_out(name, ["--smoke"]) == Path(f"bench_{name}_smoke.json")
    assert resolved_out(name, ["--smoke", "--out", "x.json"]) == Path("x.json")


@pytest.mark.parametrize("name", _BENCHES)
def test_committed_records_are_full_runs(name):
    doc = json.loads((_REPO / f"BENCH_{name}.json").read_text())
    if isinstance(doc, dict):            # BENCH_parallel.json is a history
        assert doc["smoke"] is False


def test_smoke_never_replaces_a_full_record(resolved_out, tmp_path):
    full, smoke, history = (tmp_path / n for n in
                            ("full.json", "smoke.json", "history.json"))
    full.write_text(json.dumps({"smoke": False}))
    smoke.write_text(json.dumps({"smoke": True}))
    history.write_text(json.dumps([{"results": []}]))
    with pytest.raises(SystemExit, match="full-run record"):
        resolved_out("comm", ["--smoke", "--out", str(full)])
    assert resolved_out("comm", ["--smoke", "--out", str(smoke)]) == smoke
    assert resolved_out("comm", ["--out", str(full)]) == full
    assert resolved_out("parallel", ["--smoke", "--out", str(history)]) \
        == history
