import ast
from pathlib import Path

import skewbidisc


def test_every_exported_name_resolves():
    assert [name for name in skewbidisc.__all__ if not hasattr(skewbidisc, name)] == []
    assert len(set(skewbidisc.__all__)) == len(skewbidisc.__all__)


def test_every_module_uses_what_it_imports():
    # No linter runs on this package, so an import a deletion leaves behind is caught here.
    # The package's __init__ imports to re-export; a line marked `# noqa: F401` is exempt.
    unused = []
    for path in sorted(Path(skewbidisc.__file__).parent.glob("*.py")):
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
