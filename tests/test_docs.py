"""The prose cites files that exist.

A number in README.md or EXPERIMENTS.md is only as good as the file it
points at: every ``*.txt`` / ``*.json`` path cited in backticks must be
in the repository, either as written (from the repo root) or as the tail
of a checked-in path (``BENCH_memory.json`` names
``benchmarks/BENCH_memory.json``).
"""

import os
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CITED = re.compile(r"`([^`\s<>*]+\.(?:txt|json))`")


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
