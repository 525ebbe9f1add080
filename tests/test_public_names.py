"""Every public name resolves.

A name left in a package's ``__all__`` after its definition is deleted,
or an example that still imports a deleted name, fails nothing else in
tier-1: no test star-imports, and no example runs here.  This walks each
``repro`` package's ``__all__`` and each ``from repro… import`` in
``examples/*.py`` (parsed, never executed) and resolves every name.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _packages() -> list[str]:
    return sorted(
        ".".join(init.parent.relative_to(SRC).parts)
        for init in (SRC / "repro").rglob("__init__.py")
    )


def _example_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` per imported repro name; ``name`` is ``None``
    for a plain ``import repro.x``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module == "repro" or module.startswith("repro."):
                found.extend((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None)
                for alias in node.names
                if alias.name == "repro" or alias.name.startswith("repro.")
            )
    return found


def _resolves(module_name: str, name: str | None) -> bool:
    module = importlib.import_module(module_name)
    return name is None or hasattr(module, name)


@pytest.mark.parametrize("package", _packages())
def test_package_all_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names undefined: {missing}"


@pytest.mark.parametrize(
    "example", sorted((ROOT / "examples").glob("*.py")), ids=lambda p: p.name
)
def test_example_imports_resolve(example):
    imports = _example_imports(example)
    assert imports, f"{example.name} imports nothing from repro"
    missing = [
        f"{module}.{name}" if name else module
        for module, name in imports
        if not _resolves(module, name)
    ]
    assert not missing, f"{example.name} imports undefined names: {missing}"
