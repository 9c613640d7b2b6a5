"""Every Python or config file the CI workflow names exists in the repository.

The workflow is read as plain text, with no YAML parser: CI installs none.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def named_paths(text: str) -> list[str]:
    """The ``*.py`` and ``*.cfg`` paths ``text`` names, in order, each once.

    A path has a directory; a bare file name, as in a comment on "run.py",
    names no place in the repository.
    """
    found = re.findall(r"[\w.-]+(?:/[\w.-]+)+\.(?:py|cfg)\b", text)
    return list(dict.fromkeys(found))


def missing_paths(text: str, root: pathlib.Path) -> list[str]:
    """The paths of ``named_paths(text)`` with no file under ``root``."""
    return [path for path in named_paths(text) if not (root / path).is_file()]


def test_the_workflow_names_only_existing_files():
    text = WORKFLOW.read_text(encoding="utf-8")
    assert {"perfbench/run.py", "tests/test_end_to_end.py"} <= set(named_paths(text))
    assert missing_paths(text, ROOT) == []


def test_a_missing_file_is_found():
    text = (
        "run: python3 perfbench/run.py --seed 0  # run.py exits 0\n"
        "run: python -m delaycond.cli scaling --config scripts/configs/gone.cfg\n"
        "# includes tests/test_renamed.py\n"
    )
    assert named_paths(text) == [
        "perfbench/run.py", "scripts/configs/gone.cfg", "tests/test_renamed.py"
    ]
    assert missing_paths(text, ROOT) == ["scripts/configs/gone.cfg", "tests/test_renamed.py"]
