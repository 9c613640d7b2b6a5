"""Every name a package module imports is used in that module."""

import ast
import pathlib

import pytest

SOURCES = sorted(
    path
    for path in (pathlib.Path(__file__).parent.parent / "src" / "delaycond").glob("*.py")
    if path.name != "__init__.py"  # the package's re-exports
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no other line reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_sources_are_found():
    assert {"spectral.py", "runner.py", "dynamics.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nfrom .delay_map import derive_seed, draw_stream\n\ndraw_stream(os.sep)\n"
    assert unused_imports(source) == ["derive_seed (line 2)"]
