"""Every Python file of the project parses as Python 3.10, the oldest version
``pyproject.toml`` allows, whichever interpreter runs the suite."""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
OLDEST = (3, 10)
SOURCES = sorted(
    path
    for folder in ("src", "tests", "perfbench", "scripts")
    for path in (ROOT / folder).rglob("*.py")
)


def test_the_sources_are_found():
    names = {path.relative_to(ROOT).as_posix() for path in SOURCES}
    assert {"src/delaycond/spectral.py", "tests/test_syntax.py", "perfbench/run.py"} <= names
    assert "scripts/run_shift_experiment.py" in names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_every_source_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_newer_syntax_is_caught():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    if sys.version_info >= (3, 11):
        ast.parse(source)  # valid syntax on the running interpreter
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=OLDEST)
