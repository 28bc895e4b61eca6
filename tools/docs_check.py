"""CI docs-check: keep user-facing docs in sync with the code.

Five invariants, all cheap and mechanical so they can gate CI:

1. **CLI coverage** — every option flag exposed by ``repro.cli`` must be
   mentioned in README.md.  PRs 1-2 added whole flag groups without
   README coverage; this check makes that class of drift a CI failure.
2. **Flag existence** — the reverse direction: every ``--flag`` README
   mentions must be defined somewhere — the ``repro.cli`` parser or an
   ``add_argument`` in a benchmark/tool/example script.  Renaming or
   deleting a flag without sweeping README is a CI failure.
3. **DESIGN section references** — every ``DESIGN.md §N`` reference in
   the source tree and docs must point at an existing ``## N.`` heading,
   so refactoring DESIGN.md cannot silently strand pointers.
4. **Bench files and claim ids** — every ``benchmarks/<name>.py`` path
   and every claim id (`` `table1.scaffold_2x` ``: an artifact of the
   claims table, a dot, a claim) that README.md, EXPERIMENTS.md or
   DESIGN.md names must exist, so deleting a bench or renaming a claim
   cannot leave the docs pointing at nothing.
5. **CLI commands** — every ``python -m repro.cli <command>`` that
   README.md or EXPERIMENTS.md runs must be a command the parser has, so
   renaming a command cannot strand a doc line.

Run from the repo root (CI does)::

    PYTHONPATH=src python tools/docs_check.py

Exits non-zero listing every violation.  The checking functions are pure
(text in, violations out) so the test suite can assert both directions:
the current tree passes, and removing ``--workers`` from README fails.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Docs/sources scanned for DESIGN.md section references.
_REF_GLOBS = ("src/**/*.py", "benchmarks/**/*.py", "tests/**/*.py",
              "examples/**/*.py", "README.md", "EXPERIMENTS.md")
_SECTION_REF = re.compile(r"DESIGN(?:\.md)?`?\s*§(\d+)")
_SECTION_HEADING = re.compile(r"^## (\d+)\.", re.MULTILINE)

# Scripts (outside ``repro.cli``) whose argparse flags README may
# legitimately mention, scraped from source rather than imported so a
# script with heavyweight imports never has to run to be checked.
_SCRIPT_GLOBS = ("benchmarks/*.py", "tools/*.py", "examples/*.py")
_ADD_ARGUMENT = re.compile(r"add_argument\(\s*\"(--[A-Za-z][\w-]*)\"")
_FLAG_MENTION = re.compile(r"--[A-Za-z][\w-]*")

# Docs whose bench paths and claim ids must resolve, and the claims table
# (scraped, like the scripts' flags: checking it never runs it).
_BENCH_DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")
_BENCH_PATH = re.compile(r"benchmarks/[\w/]+\.py")
_CLAIMS_TABLE = "benchmarks/bench_claims.py"
_CLAIM_ID = re.compile(r"Claim\(\s*\"([a-z0-9_.]+)\"")

# Docs whose ``python -m repro.cli <command>`` lines must name a command.
_CLI_DOCS = ("README.md", "EXPERIMENTS.md")
_CLI_RUN = re.compile(r"python -m repro\.cli\s+([a-z][\w-]*)")


def undocumented_flags(readme_text: str, parser=None) -> list[str]:
    """CLI option strings (``--foo``) that README.md never mentions."""
    if parser is None:
        from repro.cli import build_parser
        parser = build_parser()
    missing = []
    for action in parser._actions:
        for option in action.option_strings:
            if option.startswith("--") and option not in readme_text:
                missing.append(option)
    return sorted(set(missing))


def known_flags(root: Path = REPO_ROOT, parser=None) -> set[str]:
    """Every ``--flag`` README is allowed to mention: the ``repro.cli``
    parser's option strings and ``add_argument`` flags scraped from the
    benchmark/tool/example scripts."""
    if parser is None:
        from repro.cli import build_parser
        parser = build_parser()
    flags = {option for action in parser._actions
             for option in action.option_strings if option.startswith("--")}
    for pattern in _SCRIPT_GLOBS:
        for path in sorted(root.glob(pattern)):
            try:
                flags.update(_ADD_ARGUMENT.findall(path.read_text()))
            except (OSError, UnicodeDecodeError):
                continue
    return flags


def unknown_readme_flags(readme_text: str, known: set[str]) -> list[str]:
    """Flags README mentions that no parser or script defines."""
    return sorted({flag for flag in _FLAG_MENTION.findall(readme_text)
                   if flag not in known})


def referenced_design_sections(root: Path = REPO_ROOT) -> dict[str, set[str]]:
    """Map of DESIGN section number -> files that reference it."""
    refs: dict[str, set[str]] = {}
    for pattern in _REF_GLOBS:
        for path in sorted(root.glob(pattern)):
            try:
                text = path.read_text()
            except (OSError, UnicodeDecodeError):
                continue
            for match in _SECTION_REF.finditer(text):
                refs.setdefault(match.group(1), set()).add(
                    str(path.relative_to(root)))
    return refs


def missing_design_sections(design_text: str,
                            refs: dict[str, set[str]]) -> dict[str, set[str]]:
    """References to DESIGN sections with no matching ``## N.`` heading."""
    present = set(_SECTION_HEADING.findall(design_text))
    return {section: files for section, files in refs.items()
            if section not in present}


def claim_ids(root: Path = REPO_ROOT) -> set[str]:
    """The claim ids the claims table declares."""
    return set(_CLAIM_ID.findall((root / _CLAIMS_TABLE).read_text()))


def stale_bench_refs(text: str, ids: set[str],
                     root: Path = REPO_ROOT) -> list[str]:
    """``benchmarks/*.py`` paths ``text`` names that do not exist, and the
    claim ids it names (backticked, under a known artifact) that ``ids``
    lacks."""
    stale = {path for path in _BENCH_PATH.findall(text)
             if not (root / path).exists()}
    artifacts = sorted({claim.split(".", 1)[0] for claim in ids})
    if artifacts:
        named = re.compile(r"`((?:%s)\.[\w.]*\w)`"
                           % "|".join(map(re.escape, artifacts)))
        stale.update(claim for claim in named.findall(text)
                     if claim not in ids)
    return sorted(stale)


def unknown_cli_commands(text: str, parser=None) -> list[str]:
    """Commands ``text`` runs as ``python -m repro.cli <command>`` that
    the ``repro.cli`` parser does not have."""
    if parser is None:
        from repro.cli import build_parser
        parser = build_parser()
    commands = next(action.choices for action in parser._actions
                    if action.dest == "command")
    return sorted({name for name in _CLI_RUN.findall(text)
                   if name not in commands})


def main() -> int:
    """Run every check against the working tree; print violations."""
    failures = 0

    readme = (REPO_ROOT / "README.md").read_text()
    for flag in undocumented_flags(readme):
        print(f"docs-check: CLI flag {flag} is not documented in README.md")
        failures += 1

    for flag in unknown_readme_flags(readme, known_flags()):
        print(f"docs-check: README.md mentions {flag} but no parser or "
              f"script defines it")
        failures += 1

    design = (REPO_ROOT / "DESIGN.md").read_text()
    for section, files in sorted(
            missing_design_sections(design,
                                    referenced_design_sections()).items()):
        where = ", ".join(sorted(files))
        print(f"docs-check: DESIGN.md §{section} referenced by {where} "
              f"but DESIGN.md has no '## {section}.' heading")
        failures += 1

    ids = claim_ids()
    for doc in _BENCH_DOCS:
        for ref in stale_bench_refs((REPO_ROOT / doc).read_text(), ids):
            print(f"docs-check: {doc} names {ref}, which does not exist")
            failures += 1

    for doc in _CLI_DOCS:
        for name in unknown_cli_commands((REPO_ROOT / doc).read_text()):
            print(f"docs-check: {doc} runs `python -m repro.cli {name}`, "
                  f"a command the parser does not have")
            failures += 1

    if failures:
        print(f"docs-check: {failures} violation(s)")
        return 1
    print("docs-check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
