"""The docs-check CI gate works in both directions (tools/docs_check.py).

Asserts the current tree passes, and that the checks are not vacuous:
they must fail if ``--workers`` disappeared from README.md, if README
mentioned a flag nothing defines, or if a ``DESIGN.md §N`` reference
pointed at a missing section.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "docs_check", REPO_ROOT / "tools" / "docs_check.py")
docs_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(docs_check)


def test_current_tree_passes():
    """Every CLI flag is in README and every DESIGN §N reference resolves."""
    readme = (REPO_ROOT / "README.md").read_text()
    assert docs_check.undocumented_flags(readme) == []
    design = (REPO_ROOT / "DESIGN.md").read_text()
    refs = docs_check.referenced_design_sections()
    assert docs_check.missing_design_sections(design, refs) == {}
    assert "9" in refs, "DESIGN.md §9 should be referenced by the sources"


def test_removing_workers_from_readme_fails():
    """The flag check is live: dropping --workers from README is a failure."""
    readme = (REPO_ROOT / "README.md").read_text()
    stripped = readme.replace("--workers", "")
    assert "--workers" in docs_check.undocumented_flags(stripped)


def test_readme_mentions_only_known_flags():
    """The reverse direction: every --flag README mentions is defined by
    the CLI parser, a benchmark/tool/example script, or the external
    allowlist."""
    readme = (REPO_ROOT / "README.md").read_text()
    known = docs_check.known_flags()
    assert docs_check.unknown_readme_flags(readme, known) == []
    # the allowlist and the scrape both feed the known set
    assert "--benchmark-only" in known          # external (pytest-benchmark)
    assert "--executors" in known               # scraped from bench_parallel
    assert "--workers" in known                 # repro.cli parser
    assert "--executor" not in known            # --workers selects the engine
    assert "--shm" not in known                 # removed with the transport


def test_phantom_readme_flag_fails():
    """The reverse check is live: a flag nothing defines is a failure."""
    readme = (REPO_ROOT / "README.md").read_text()
    doctored = readme + "\nRun with `--does-not-exist` for magic.\n"
    unknown = docs_check.unknown_readme_flags(doctored,
                                              docs_check.known_flags())
    assert unknown == ["--does-not-exist"]


def test_dangling_design_reference_fails():
    """The section check is live: a §99 reference has no matching heading."""
    design = (REPO_ROOT / "DESIGN.md").read_text()
    refs = {"99": {"src/fake.py"}}
    assert docs_check.missing_design_sections(design, refs) == refs


def test_main_exits_zero_on_current_tree(capsys):
    """The CLI entry point agrees with the pure functions."""
    assert docs_check.main() == 0
    assert "docs-check: OK" in capsys.readouterr().out
