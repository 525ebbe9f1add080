"""The prose cites files and flags that exist.

A number in README.md or EXPERIMENTS.md is only as good as the file it
points at: every ``*.txt`` / ``*.json`` path cited in backticks must be
in the repository, either as written (from the repo root) or as the tail
of a checked-in path (``BENCH_memory.json`` names
``benchmarks/BENCH_memory.json``).  Likewise every ``--flag`` written
after ``sisg <command>`` must be a flag of that command, so a deleted
flag cannot stay documented.
"""

import argparse
import os
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
CITED = re.compile(r"`([^`\s<>*]+\.(?:txt|json))`")
COMMAND = re.compile(r"\bsisg (?=[a-z])")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def repo_files() -> set[str]:
    """Repo-relative paths of every file outside VCS and build output."""
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"}
    files = set()
    for folder, subdirs, names in os.walk(ROOT):
        subdirs[:] = [d for d in subdirs if d not in skip]
        base = Path(folder).relative_to(ROOT)
        files.update((base / name).as_posix() for name in names)
    return files


@pytest.mark.parametrize("doc", ["README.md", "EXPERIMENTS.md"])
def test_cited_files_exist(doc):
    files = repo_files()
    cited = set(CITED.findall((ROOT / doc).read_text()))
    missing = sorted(
        name
        for name in cited
        if name not in files and not any(f.endswith("/" + name) for f in files)
    )
    assert not missing, f"{doc} cites files that are not in the repository: {missing}"


def command_flags() -> dict[str, set[str]]:
    """``{sub-command: its option strings}`` of the real parser."""
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: {flag for action in parser._actions for flag in action.option_strings}
        for name, parser in subparsers.choices.items()
    }


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
def test_documented_flags_exist(doc):
    """On each line, the flags after ``sisg <command>`` (up to the next
    ``sisg``) belong to that command."""
    flags = command_flags()
    unknown = []
    for number, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
        for part in COMMAND.split(line)[1:]:
            command = part.split()[0].strip("`.,;:)")
            if command in flags:
                unknown.extend(
                    f"{doc}:{number}: sisg {command} {flag}"
                    for flag in FLAG.findall(part)
                    if flag not in flags[command]
                )
    assert not unknown, f"documented flags the CLI does not have: {unknown}"
