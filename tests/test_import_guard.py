"""The CLI and the example scripts use only the public su11sim API, the
package exports what they and the README examples import, and no more, and
every package module uses each name it imports."""
import ast
import inspect
import re
from pathlib import Path

import pytest

import su11sim
from su11sim.errors import SU11Error

ROOT = Path(__file__).resolve().parents[1]
CLI = ROOT / "src" / "su11sim" / "cli.py"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
FRONT_ENDS = [CLI, *SCRIPTS]


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


def imported_names(source: str, package_only: bool) -> set[str]:
    """Names a source imports from su11sim itself (package_only) or from any
    su11sim module, relative imports included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if package_only:
            ours = node.level == 0 and module == "su11sim"
        else:
            ours = node.level > 0 or module.split(".")[0] == "su11sim"
        if ours:
            found.update(alias.name for alias in node.names)
    return found


def readme_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)


def test_front_ends_import_only_exported_names():
    assert readme_blocks()
    sources = [p.read_text() for p in SCRIPTS] + readme_blocks()
    used = set().union(*(imported_names(src, package_only=True) for src in sources))
    assert used - set(su11sim.__all__) == set()


def test_every_export_resolves_and_nothing_else_is_exported():
    assert len(su11sim.__all__) == len(set(su11sim.__all__))
    for name in su11sim.__all__:
        assert hasattr(su11sim, name), name
    public = {
        name
        for name, value in vars(su11sim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(su11sim.__all__) - {"__version__"}


def test_every_export_has_a_caller():
    sources = [CLI.read_text(), *(p.read_text() for p in SCRIPTS), *readme_blocks()]
    used = set().union(*(imported_names(src, package_only=False) for src in sources))
    errors = {
        name
        for name in su11sim.__all__
        if inspect.isclass(getattr(su11sim, name)) and issubclass(getattr(su11sim, name), SU11Error)
    }
    assert set(su11sim.__all__) - used - errors - {"__version__"} == set()


MODULES = sorted((ROOT / "src" / "su11sim").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never uses, bar those on `# noqa: F401`
    lines. A use is a name read anywhere, in a quoted annotation or in
    __all__."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
            or "# noqa: F401" in lines[node.lineno - 1]
        ):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            quoted = ast.parse(annotation.value)
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_guard_sees_stale_names():
    probe = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import chain, product\n"
        "from .measurement import OutcomeLaw, sample  # noqa: F401\n"
        "from .posterior import PhaseGrid, Posterior\n"
        "from .tmsq import OpaParams\n"
        "__all__ = ['PhaseGrid']\n"
        "def f(p: 'OpaParams') -> int:\n"
        "    return len(list(product(p)))\n"
    )
    assert unused_imports(probe) == ["Posterior", "chain", "os"]


def scipy_imports(path: Path) -> list[tuple[str, str, str]]:
    """(file, enclosing function or "<module>", name) for each scipy import."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [f"{child.module}.{alias.name}" for alias in child.names]
            found.extend((path.name, scope, n) for n in names if n.split(".")[0] == "scipy")
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_no_module_imports_scipy():
    # SciPy is no runtime dependency: the tests alone use it, as an oracle
    assert [hit for path in MODULES for hit in scipy_imports(path)] == []


def test_scipy_import_guard_sees_module_and_function_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import scipy\n"
        "from numpy import log\n"
        "if True:\n"
        "    from scipy.special import gammaln\n"
        "def f():\n"
        "    import scipy.stats as st\n"
        "    return st\n"
    )
    assert scipy_imports(probe) == [
        ("probe.py", "<module>", "scipy"),
        ("probe.py", "<module>", "scipy.special.gammaln"),
        ("probe.py", "f", "scipy.stats"),
    ]


_ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(path: Path) -> list[tuple[str, int, str]]:
    """(file, line, name) for each read of os.environ or os.getenv, written
    os.<name> or imported with from os import <name>."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in _ENV_READERS
        ):
            found.append((path.name, node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "os":
            found.extend(
                (path.name, node.lineno, f"os.{a.name}") for a in node.names if a.name in _ENV_READERS
            )
    return found


def test_no_module_reads_the_environment():
    # settings come in through argv or the library API alone; the one read is
    # cli's refusal of the retired SU11_SEED, so no second route comes back
    hits = [hit for path in MODULES for hit in environment_reads(path)]
    assert [(name, what) for name, _, what in hits] == [("cli.py", "os.environ")]
    assert '"SU11_SEED" in os.environ' in CLI.read_text().splitlines()[hits[0][1] - 1]


def test_environment_guard_sees_attribute_and_imported_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\n"
        "from os import getenv, path\n"
        "seed = os.environ.get('SEED')\n"
        "def f():\n"
        "    return os.getenv('X'), os.path.join('a')\n"
    )
    assert environment_reads(probe) == [
        ("probe.py", 2, "os.getenv"),
        ("probe.py", 3, "os.environ"),
        ("probe.py", 5, "os.getenv"),
    ]
