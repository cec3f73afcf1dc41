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
in terms of the members that remain.  Every default of a public
function, method or dataclass field is set by some call there, by
keyword or by position: a default nothing sets is a constant.
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


def _defaults(function, skip=0):
    """(name, positional index or None) for each parameter of a function
    that has a default; `skip` drops leading positions (a method's self)."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
            + [(a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def _field_defaults(cls):
    """(name, positional index) for each field of a dataclass with a default."""
    fields = [node for node in cls.body if isinstance(node, ast.AnnAssign)]
    return [(node.target.id, i) for i, node in enumerate(fields) if node.value is not None]


def _options():
    """(where, called name, parameter, positional index or None) for every
    default of a public package function, method or dataclass."""
    for path, tree in TREES.items():
        if path.parent != PACKAGE:
            continue
        for node in _public(tree.body):
            for p in _defaults(node):
                yield (f"{path.stem}.{node.name}", node.name, *p)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in _public(cls.body):
                    for p in _defaults(node, skip=1):
                        yield (f"{path.stem}.{cls.name}.{node.name}", node.name, *p)
                if any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list):
                    for p in _field_defaults(cls):
                        yield (f"{path.stem}.{cls.name}", cls.name, *p)


def _passed(name, parameter, index):
    """Whether some call of `name` passes `parameter` by keyword, or by
    position when it has a positional `index`."""
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None)):
                if (any(k.arg == parameter for k in node.keywords)
                        or index is not None and len(node.args) > index):
                    return True
    return False


def test_every_default_is_passed_somewhere():
    # A default no caller overrides is a constant, not an option.
    options = list(_options())
    assert {("oracles.OracleRun", "OracleRun", "epsilon", 3),
            ("sweep.epsilon_sweep", "epsilon_sweep", "grid_n", 2)} <= set(options)
    unset = [f"{where}({parameter})" for where, name, parameter, index in options
             if not _passed(name, parameter, index)]
    assert not unset, f"set by no call under src/, studies/ or perfbench/: {unset}"
