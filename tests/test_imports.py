"""Every name a package module imports is used in that module, every public
name a package module defines is read by some module or exported, and every
private one is read by some module."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "delaycond"
SOURCES = sorted(
    path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"  # the package's re-exports
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


def names_read(tree: ast.Module) -> set[str]:
    """The names that ``tree`` loads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }


def unread_public_names(modules: dict[str, str], exports: str) -> list[str]:
    """Public top-level functions and classes of ``modules`` (name: source) that no
    module reads and ``exports`` (the package ``__init__``) does not import."""
    read = {
        alias.name
        for node in ast.walk(ast.parse(exports))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    defined = []
    for module, source in modules.items():
        tree = ast.parse(source)
        read |= names_read(tree)
        defined += [
            (module, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        ]
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_every_public_name_is_read_or_exported():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    exports = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unread_public_names(modules, exports) == []


def test_an_unread_public_name_is_found():
    modules = {
        "a": "def used():\n    pass\n\n\ndef unused():\n    used()\n\n\ndef _private():\n    pass\n",
        "b": "class Exported:\n    pass\n\n\nclass Orphan:\n    pass\n",
    }
    exports = "from .b import Exported\n"
    assert unread_public_names(modules, exports) == ["a.unused", "b.Orphan"]


def unread_private_names(modules: dict[str, str]) -> list[str]:
    """Private top-level functions, classes and constants of ``modules`` (name: source)
    that no module reads."""
    read, defined = set(), []
    for module, source in modules.items():
        tree = ast.parse(source)
        read |= names_read(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [
                    name.id
                    for name in ast.walk(node)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                ]
            else:
                names = []
            defined += [
                (module, name)
                for name in names
                if name.startswith("_") and not name.startswith("__")  # not a dunder
            ]
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_every_private_name_is_read():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_private_names(modules) == []


def test_an_unread_private_name_is_found():
    modules = {
        "a": "_LIMIT = 3\n_SPARE: int = 4\n_LOW, _HIGH = 1, 2\n\n\ndef _helper():\n"
        "    return _LIMIT + _LOW\n",
        "b": "from .a import _helper\n\n\nclass _Orphan:\n    pass\n\n\ndef _dead():\n"
        "    _helper()\n\n\n__version__ = '1'\n",
    }
    assert unread_private_names(modules) == ["a._HIGH", "a._SPARE", "b._Orphan", "b._dead"]
