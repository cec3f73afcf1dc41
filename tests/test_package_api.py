"""Every public function of the package, and every public method,
property and `__call__` of its classes, runs under the package's real
traffic.

The traffic is what the package is for, run in this process: each
script under `studies/`; perfbench's own operations on seed 1 (four cold
solves, four analyses, and the five CLI commands through `cli.main` on
the canonical config with an LP oracle fixture); and one `validate` of a
config whose target overlaps the source, the documented exit 2.  It
runs once per session (`conftest.real_traffic`), and `test_studies.py`
reads each study's run from the same record.  A profile hook records
the code of every Python call while that traffic runs, and only then,
so no call from test code counts.  A definition is
reached when its own code ran, keyed by file and first line: a method
that shares another's name does not count for it, and a function called
through a reference (`cli._COMMANDS`, a name bound by `from ... import`)
does.  A function only tests reach belongs in test code, as
`reference_solves.py` and `reference_energies.py` hold theirs; a member
only tests read is written in terms of the members that remain.
A dataclass field is read, not run, so no call records it; a static
check holds the fields instead.  Every field of a public dataclass of
the package is read by attribute name somewhere under `src/`, `studies/`
or `perfbench/`, or written whole into an artifact: the classes
`dataclasses.asdict` serializes, and the `SweepRow` fields that name a
`sweep.csv` column.  The check matches names, not classes, so a field
that shares its name with an attribute read elsewhere, as
`_ZeroSolve.mass_residual` would cover a `mass_residual` field of
another class, escapes it.

Every default of a function or method of the package, private and nested
ones too, and of a public dataclass's field, is set by some call under
`src/`, `studies/` or `perfbench/`, by keyword or by position: a default
nothing sets is a constant.  A class's `__init__` is called through the
class's name.

Each private kernel of the solve is named by its home test modules alone
(`KERNEL_HOMES`); every other test reads what the package delivers, so a
refactor of a kernel rewrites its home and no other test.
"""

import ast
import functools
import importlib
import inspect
import os
import re
from pathlib import Path

from monge1d import sweep

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "monge1d"
TREES = {path: ast.parse(path.read_text(), filename=str(path))
         for folder in ("src", "studies", "perfbench")
         for path in sorted((ROOT / folder).rglob("*.py"))}


# Each private kernel the tests may name: its home modules under `tests/`,
# and why a test there needs the kernel itself.  Elsewhere a test reads the
# solution: the zeros from `depth_zeros`, the mass residual from
# `mass - 1`, Newton steps from the count of adaptive passes (one per step
# plus the start's), and values in y through the solution's call, `cdf`
# and `quantile`.
KERNEL_HOMES = {
    "_solve_zeros": (("test_duality.py",),
                     "the coupled solve's contracts, steps and planted records"),
    "_zero_residuals": (("test_duality.py",),
                        "the solve's residuals, Jacobian and pass count"),
    "_tabulated_start": (("test_duality.py",), "the solve's start and its scaling law"),
    "_expansion_step": (("test_duality.py",), "the start's series in eps"),
    "_y": (("test_duality.py",), "the one map from depth to y"),
    "_depth": (("test_duality.py",), "the map's inverse, exact at both ends"),
    "_depth_grid": (("test_duality.py",), "the table's depths, read in full against the clip"),
    "_row_pass": (("test_energy.py", "reference_solves.py"),
                  "the row pass's sums, geometry and reuse; the nested reference "
                  "solves integrate through it"),
    "_solve_panels": (("test_numerics.py", "reference_inversion.py"),
                      "the profile inverse's sweeps; the compacting reference loop"),
    "_horner": (("test_numerics.py", "reference_inversion.py"),
                "the sweep counter and the reference loop's Taylor sums"),
    "_invert_stress_sq": (("test_inversion.py", "reference_quadrature.py",
                           "reference_solves.py", "test_energy.py"),
                          "the 40-digit oracle; the references' inverted nodes; the row "
                          "pass inverts no node"),
    "_invert_stress_sq_one": (("test_inversion.py", "test_energy.py"),
                              "the float form against the array form; the row pass's "
                              "geometry inverts each branch end once"),
}


# Serialized whole by `dataclasses.asdict` in `cli`: `energy.json` holds an
# EnergyReport with its ConstraintResiduals, `report.json` a
# ConvergenceReport.
SERIALIZED = {"EnergyReport", "ConstraintResiduals", "ConvergenceReport"}


def _public(body):
    return [node for node in body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _is_dataclass(cls):
    return any(ast.unparse(d).startswith("dataclass") for d in cls.decorator_list)


def _definitions():
    """{(file, first line): name} for every public module-level function
    of the package and every public method, property and `__call__` of
    its module-level classes.  A decorated def starts at its first
    decorator, as its code object does."""
    out = {}
    for path, tree in TREES.items():
        if path.parent != PACKAGE:
            continue
        defs = [(node.name, node) for node in _public(tree.body)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defs += [(f"{cls.name}.{node.name}", node) for node in cls.body
                         if isinstance(node, ast.FunctionDef)
                         and (not node.name.startswith("_") or node.name == "__call__")]
        for name, node in defs:
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out[(str(path), first)] = f"{path.stem}.{name}"
    return out


def test_definition_keys_are_their_code_objects():
    # The reach test matches the profile hook's (co_filename,
    # co_firstlineno) against these keys, so each key must be the code
    # object's own: a decorated def starts at its first decorator.  A
    # property runs its getter, a cached property its `func`.
    properties = cached = 0
    for (file, line), name in _definitions().items():
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"monge1d.{module}")
        for attr in attrs:
            obj = inspect.getattr_static(obj, attr)
        if isinstance(obj, property):
            properties, obj = properties + 1, obj.fget
        elif isinstance(obj, functools.cached_property):
            cached, obj = cached + 1, obj.func
        code = inspect.unwrap(getattr(obj, "__func__", obj)).__code__
        assert (os.path.realpath(code.co_filename), code.co_firstlineno) == (
            os.path.realpath(file), line), name
    assert properties and cached


def test_every_public_definition_runs_under_real_traffic(real_traffic):
    definitions = _definitions()
    assert {"duality.assemble_density", "duality.DualField.theta_y",
            "duality.DensitySolution.quantile", "duality.DensitySolution.integrate",
            "problem.ValidationReport.message"} <= set(definitions.values())
    assert real_traffic.code == 2
    assert all(o.failed == 0 for o in real_traffic.outcomes), [
        o.label for o in real_traffic.outcomes]
    ran = {(os.path.realpath(file), line) for file, line in real_traffic.ran}
    unreached = sorted(name for (file, line), name in definitions.items()
                       if (os.path.realpath(file), line) not in ran)
    assert not unreached, ("run by none of the studies, perfbench's operations "
                           f"or the CLI: {unreached}")


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
    default of a package function or method, private and nested ones
    included, and of a public dataclass's field.  A method skips its self,
    and its class's `__init__` is called by the class's name."""
    def walk(body, where, cls=None):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{where}.{node.name}", node)
                if not node.name.startswith("_") and _is_dataclass(node):
                    for p in _field_defaults(node):
                        yield (f"{where}.{node.name}", node.name, *p)
            elif isinstance(node, ast.FunctionDef):
                name = cls.name if cls and node.name == "__init__" else node.name
                for p in _defaults(node, skip=int(cls is not None)):
                    yield (f"{where}.{node.name}", name, *p)
                yield from walk(node.body, f"{where}.{node.name}")

    for path, tree in TREES.items():
        if path.parent == PACKAGE:
            yield from walk(tree.body, path.stem)


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
            ("duality.assemble_density", "assemble_density", "grid_n", 2),
            ("duality.DensitySolution.integrate", "integrate", "levels", 1),
            ("duality._row_pass.branch", "branch", "graded", 5),
            ("numerics.MonotoneProfile.__init__", "MonotoneProfile", "singular", 3)} <= set(options)
    unset = [f"{where}({parameter})" for where, name, parameter, index in options
             if not _passed(name, parameter, index)]
    assert not unset, f"set by no call under src/, studies/ or perfbench/: {unset}"


def test_every_dataclass_field_is_read_somewhere():
    # A field nothing reads or writes out is a record only tests look at.
    read = {node.attr for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = [(cls.name, node.target.id)
              for path, tree in TREES.items() if path.parent == PACKAGE
              for cls in tree.body if isinstance(cls, ast.ClassDef)
              and not cls.name.startswith("_") and _is_dataclass(cls)
              for node in cls.body if isinstance(node, ast.AnnAssign)]
    assert {("DensitySolution", "profile"), ("DensitySolution", "depth_zeros"),
            ("DualField", "zeros"), ("DualField", "orientation"),
            ("SweepRow", "mass_err"), ("EnergyReport", "full_target_offset")} <= set(fields)
    unread = [f"{cls}.{name}" for cls, name in fields
              if name not in read and cls not in SERIALIZED
              and not (cls == "SweepRow" and name in sweep._CSV_COLUMNS)]
    assert not unread, f"read by nothing under src/, studies/ or perfbench/: {unread}"


def test_private_kernels_are_named_in_their_homes_alone():
    # A name counts as a whole word, as `grep -w` reads it: `sol._depth`
    # names `_depth`, `_depth_grid` does not.  Every home still names its
    # kernel, so no entry outlives its reason.
    named = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path.name != Path(__file__).name:
            words = set(re.findall(r"\w+", path.read_text()))
            for name in KERNEL_HOMES.keys() & words:
                named.setdefault(name, set()).add(path.name)
    strays = {name: sorted(files - set(KERNEL_HOMES[name][0]))
              for name, files in named.items() if files - set(KERNEL_HOMES[name][0])}
    assert not strays, f"private kernels named outside their home: {strays}"
    assert {name: set(homes) for name, (homes, _) in KERNEL_HOMES.items()} == named
