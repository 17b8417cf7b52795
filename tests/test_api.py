import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import skewbidisc
from skewbidisc.colligation import Resolvent


PACKAGE = Path(skewbidisc.__file__).parent

# The only private names one package module imports from another.
SHARED_PRIVATES = {
    ("synthesis", "domains", "_as_stack"),
    ("synthesis", "domains", "_check_size"),
    ("synthesis", "domains", "_quad_roots_stack"),
    ("catalog", "domains", "_denominator_moduli"),
}


def _relative_imports(path: Path):
    """(module, name) for each ``from .module import name`` in a package file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from ((node.module, alias.name) for alias in node.names)


def test_every_exported_name_resolves():
    assert [name for name in skewbidisc.__all__ if not hasattr(skewbidisc, name)] == []
    assert len(set(skewbidisc.__all__)) == len(skewbidisc.__all__)


def test_all_is_every_name_init_imports_from_a_submodule():
    exported = set(skewbidisc.__all__)
    assert not [n for n in exported if n.startswith("_") or inspect.ismodule(getattr(skewbidisc, n))]
    assert {name for _, name in _relative_imports(PACKAGE / "__init__.py")} == exported


def _private_attribute_reads(source: str):
    """(module, name) for each ``module._name`` read, where ``from . import module`` bound module."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            yield node.value.id, node.attr


def test_no_module_imports_another_modules_private_names():
    reach = set()
    for path in sorted(PACKAGE.glob("*.py")):
        reach |= {(path.stem, m, name) for m, name in _relative_imports(path) if m and name.startswith("_")}
        reach |= {(path.stem, m, name) for m, name in _private_attribute_reads(path.read_text())}
    assert reach == SHARED_PRIVATES


def test_private_attribute_reads_of_package_modules_are_seen():
    source = (
        "from . import linalg as la, domains\n"
        "import numpy as np\n"
        "a = la._as_matrix(np._NoValue)\n"
        "b = domains.point_stack\n"
        "c = self._cache\n"
    )
    assert list(_private_attribute_reads(source)) == [("la", "_as_matrix")]


def test_every_module_uses_what_it_imports():
    # No linter runs on this package, so an import a deletion leaves behind is caught here.
    # The package's __init__ imports to re-export; a line marked `# noqa: F401` is exempt.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == []


def _unit_interval_tests(tree: ast.AST, scope: tuple[str, ...] = ()):
    """The dotted scope of each chained ``0 < x < 1`` or ``1 > x > 0`` under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Compare) and len(node.ops) == 2:
            ends = [e.value if isinstance(e, ast.Constant) else None for e in (node.left, node.comparators[-1])]
            if (all(isinstance(op, ast.Lt) for op in node.ops) and ends == [0, 1]) or (
                all(isinstance(op, ast.Gt) for op in node.ops) and ends == [1, 0]
            ):
                yield ".".join(scope)
        named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
        yield from _unit_interval_tests(node, scope + (node.name,) if named else scope)


def test_only_check_r_tests_the_unit_interval():
    # domains.check_r owns 0 < r < 1; the same test anywhere else is a second owner.
    found = [
        f"{path.stem}.{scope}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _unit_interval_tests(ast.parse(path.read_text()))
    ]
    assert found == ["domains.check_r"]


def test_unit_interval_tests_are_seen_in_every_form():
    source = (
        "class C:\n"
        "    def f(self):\n"
        "        return 0.0 < self.r < 1.0 and 0 < x <= 1\n"
        "def g(r):\n"
        "    if not 1 > r > 0:\n"
        "        pass\n"
        "h = 0 < y < 1\n"
    )
    assert list(_unit_interval_tests(ast.parse(source))) == ["C.f", "g", ""]


def _package_dataclasses():
    """Every dataclass defined in a package module."""
    for info in pkgutil.iter_modules(skewbidisc.__path__):
        module = importlib.import_module(f"skewbidisc.{info.name}")
        for _, cls in inspect.getmembers(module, dataclasses.is_dataclass):
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield cls


def test_every_U_R_pair_is_a_resolvent_and_no_dim_is_a_field():
    # dim is read off U or the split; PolyVectorMap keeps its own, as the zero
    # polynomial has no coefficient to read it from.
    fields = {cls: {f.name for f in dataclasses.fields(cls)} for cls in _package_dataclasses()}
    names = {c.__name__ for c in fields}
    assert {"Resolvent", "KernelContext", "GrModel", "SynthesizedModel"} <= names
    pairs = [c for c, names in fields.items() if {"U", "R"} <= names]
    assert [c.__name__ for c in pairs if not issubclass(c, Resolvent)] == []
    assert [c.__name__ for c, names in fields.items() if "dim" in names] == ["PolyVectorMap"]


def _names_read(path: Path) -> set[str]:
    """Every name a Python file reads, as a bare name or as an attribute."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def test_every_public_function_is_used_or_documented():
    # A public top-level function that no package module or test reads, and that the
    # README does not name, is a dead helper.  The package's __init__ only re-exports.
    tests = Path(__file__).resolve().parent
    readme = (tests.parent / "README.md").read_text()
    read = set()
    for path in [*PACKAGE.glob("*.py"), *tests.glob("*.py")]:
        if path.name != "__init__.py":
            read |= _names_read(path)
    public = [
        (path.name, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert len(public) > 50
    dead = [(f, name) for f, name in public if name not in read and not re.search(rf"\b{name}\b", readme)]
    assert dead == []


def test_import_loads_only_the_standard_library_and_numpy():
    # Interpreter start plus this import is the whole set-up of a campaign, so it stays lean.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import skewbidisc\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = run.stdout.split()
    assert "skewbidisc" in loaded
    allowed = set(sys.stdlib_module_names) | {"numpy", "skewbidisc"}
    assert sorted({name.split(".")[0] for name in loaded} - allowed) == []
    assert "skewbidisc.cli" not in loaded and "skewbidisc.jsonio" not in loaded
