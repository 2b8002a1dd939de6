"""The package's public names, and its modules' imports."""

import ast
from pathlib import Path

import atlc


def test_public_names_resolve_and_do_not_repeat():
    assert len(set(atlc.__all__)) == len(atlc.__all__)
    assert [name for name in atlc.__all__ if not hasattr(atlc, name)] == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name listed in a literal
    ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_caught():
    source = "import os\nfrom a import b, c as d\n__all__ = ['b']\n"
    assert unused_imports(source) == ["line 1: os", "line 2: d"]


def test_no_module_imports_a_name_it_never_uses():
    package = Path(atlc.__file__).resolve().parent
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
