"""Every public module-level function of the package, and every public
method and property of its classes, has a caller outside the tests.

The package, the studies and perfbench are parsed, and a function or
member counts as called when it is read anywhere but inside its own
body: a function as a bare name or as an attribute of its own module
read by name (`duality.assemble_density`), a member as an attribute of
anything.  So a method that shares a function's name (`DualField.integrate`)
does not count as a call of the function.  A function only tests
reach belongs in test code, as `reference_solves.py` and
`reference_energies.py` hold theirs; a member only tests read is written
in terms of the members that remain.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "monge1d"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
TREES = {path: ast.parse(path.read_text(), filename=str(path))
         for folder in ("src", "studies", "perfbench")
         for path in sorted((ROOT / folder).rglob("*.py"))}


def _public(body):
    return [node for node in body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _public_functions():
    for path, tree in TREES.items():
        if path.parent == PACKAGE:
            for node in _public(tree.body):
                yield path, node


def _public_members():
    """(path, class, member) for the public methods and properties of the
    package's module-level classes."""
    for path, tree in TREES.items():
        if path.parent == PACKAGE:
            for cls in tree.body:
                if isinstance(cls, ast.ClassDef):
                    for node in _public(cls.body):
                        yield path, cls, node


def _calls(tree):
    """Names read in a tree as bare names, and `module.name` for the names
    read as attributes of a package module read by name."""
    return Counter(node.id if isinstance(node, ast.Name) else f"{node.value.id}.{node.attr}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in MODULES)


def _attribute_reads(tree):
    """Names read in a tree as attributes."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute))


def test_every_public_function_has_a_caller():
    functions = list(_public_functions())
    assert {"assemble_density", "duality_gap", "normalize_density"} <= {
        node.name for _, node in functions}
    calls = sum((_calls(tree) for tree in TREES.values()), Counter())
    uncalled = [f"{path.stem}.{node.name}" for path, node in functions
                if all(calls[name] == _calls(node)[name]
                       for name in (node.name, f"{path.stem}.{node.name}"))]
    assert not uncalled, f"called by no module under src/, studies/ or perfbench/: {uncalled}"


def test_every_public_member_has_a_reader():
    members = list(_public_members())
    assert {("DualField", "fields_at"), ("DensitySolution", "support_nodes"),
            ("TentDensity", "center")} <= {(cls.name, node.name)
                                           for _, cls, node in members}
    reads = sum((_attribute_reads(tree) for tree in TREES.values()), Counter())
    unread = [f"{path.stem}.{cls.name}.{node.name}" for path, cls, node in members
              if reads[node.name] == _attribute_reads(node)[node.name]]
    assert not unread, f"read by no module under src/, studies/ or perfbench/: {unread}"
