import ast
import inspect
from pathlib import Path

import skewbidisc


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


def test_no_module_imports_another_modules_private_names():
    reach = {
        (path.stem, module, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for module, name in _relative_imports(path)
        if module and name.startswith("_")
    }
    assert reach == SHARED_PRIVATES


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
