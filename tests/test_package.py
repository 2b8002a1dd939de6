"""The package's public names, and the imports and private names of its
modules and of the test modules; no test reads a private name of the QP
solver it checks, and one package module lays out the controller's QP."""

import ast
from pathlib import Path

import atlc

# each directory's modules are checked against the reads within it
DIRECTORIES = (Path(atlc.__file__).resolve().parent, Path(__file__).resolve().parent)


def sources_in(directory: Path) -> dict[str, str]:
    """The source of each module of ``directory``, by file name."""
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(directory.glob("*.py"))}


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
    """In the package and in the tests."""
    for directory in DIRECTORIES:
        found = {name: unused_imports(source)
                 for name, source in sources_in(directory).items()}
        assert {name: names for name, names in found.items() if names} == {}, directory.name


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (one leading underscore) and UPPER_CASE
    constants that no module of ``sources`` (file name -> source) reads, as
    a name or an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{module} line {node.lineno}: {name}" for name in names
                     if (name.startswith("_") and not name.startswith("__")
                         or name.isupper()) and name not in read]
    return sorted(dead)


def test_dead_private_names_are_caught():
    sources = {
        "a.py": "_used = 1\n_dead = 2\n__all__ = []\ndef _helper():\n    return _used\n",
        "b.py": "import a\n_TABLE: dict = {}\nclass _Unread:\n    pass\nx = a._helper()\n",
        "c.py": "import a\nLIMIT = 1e-9\nSTEP: float = 2.0\nSCALE = 3\ny = SCALE * a.STEP\n",
    }
    assert dead_private_names(sources) == [
        "a.py line 2: _dead", "b.py line 2: _TABLE", "b.py line 3: _Unread",
        "c.py line 2: LIMIT"]


def test_every_private_name_is_read_in_the_package():
    """And every private name of the tests is read in the tests."""
    for directory in DIRECTORIES:
        assert dead_private_names(sources_in(directory)) == [], directory.name


def private_qp_names(source: str) -> list[str]:
    """Private names (one leading underscore) that a module imports from
    ``atlc.qp``, or reads as attributes of a module it imported as it."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "atlc.qp"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "atlc.qp":
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and ast.unparse(node.value) in aliases | {"atlc.qp"}):
            found.append(f"line {node.lineno}: {node.attr}")
    return sorted(found)


def test_private_qp_names_are_caught():
    source = ("from atlc.qp import FEAS_TOL, _solve\nimport atlc.qp\n"
              "x = atlc.qp._check\ny = atlc.qp.solve_qp\n")
    assert private_qp_names(source) == ["line 1: _solve", "line 3: _check"]


def test_no_test_reads_a_private_name_of_the_qp_solver():
    """The references and checks in the tests (the enumeration, the KKT
    residual, the tolerance check) carry their own box faces and row norms,
    so they share no normalisation with the solver they check."""
    found = {name: private_qp_names(source)
             for name, source in sources_in(DIRECTORIES[1]).items()}
    assert {name: names for name, names in found.items() if names} == {}


# the modules that may lay out the controller QP: the builder and the solver
QP_LAYOUT_OWNERS = ("constraints.py", "qp.py")


def qp_layout_reads(source: str) -> list[str]:
    """Where a module constructs a ``QpInstance`` (a call of the class, by
    its name, an alias or an attribute) or reads ``qp_cost_and_box`` (an
    import, a name or an attribute)."""
    tree = ast.parse(source)
    classes = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.name == "QpInstance"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in classes
                or isinstance(node.func, ast.Attribute) and node.func.attr == "QpInstance"):
            found.append(f"line {node.lineno}: QpInstance(...)")
        elif isinstance(node, ast.ImportFrom) and any(
                alias.name == "qp_cost_and_box" for alias in node.names) or (
                isinstance(node, ast.Name) and node.id == "qp_cost_and_box") or (
                isinstance(node, ast.Attribute) and node.attr == "qp_cost_and_box"):
            found.append(f"line {node.lineno}: qp_cost_and_box")
    return sorted(found)


def test_qp_layout_reads_are_caught():
    source = ("from .qp import QpInstance as Q, solve_qp\nfrom . import constraints\n"
              "from .constraints import qp_cost_and_box\nx = Q(1)\n"
              "y = constraints.qp_cost_and_box(2)\nz = atlc.qp.QpInstance(3)\n"
              "solve_qp(x)\n")
    assert qp_layout_reads(source) == [
        "line 3: qp_cost_and_box", "line 4: QpInstance(...)",
        "line 5: qp_cost_and_box", "line 6: QpInstance(...)"]


def test_only_the_builder_lays_out_the_controller_qp():
    """No package module but the builder's and the solver's constructs a
    ``QpInstance`` or reads ``qp_cost_and_box``, so
    ``atlc.constraints.build_qp_stack`` is the one layout of the controller's
    QP that every kind solves."""
    found = {name: qp_layout_reads(source)
             for name, source in sources_in(DIRECTORIES[0]).items()
             if name not in QP_LAYOUT_OWNERS}
    assert {name: reads for name, reads in found.items() if reads} == {}
