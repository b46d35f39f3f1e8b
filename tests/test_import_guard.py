"""The CLI and the example scripts use only the public su11sim API."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FRONT_ENDS = [ROOT / "src" / "su11sim" / "cli.py", *sorted((ROOT / "scripts").glob("*.py"))]


def private_imports(path: Path) -> list[str]:
    """Underscore-prefixed names a file imports from su11sim (dunders excepted)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "su11sim":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{'.' * node.level}{module}.{name}")
    return found


@pytest.mark.parametrize("path", FRONT_ENDS, ids=lambda p: p.name)
def test_no_private_su11sim_imports(path):
    assert private_imports(path) == []


def test_guard_sees_relative_and_absolute_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from ._version import __version__\n"
        "from .measurement import make_model, _CHUNK\n"
        "from su11sim.posterior import _private\n"
        "from numpy import _core\n"
    )
    assert private_imports(probe) == [".measurement._CHUNK", "su11sim.posterior._private"]
