"""Per-layer tracing of the monge1d package from outside the program.

`Tracer.installed()` replaces every public function of the traced modules
(and every copy of it that another module imported with `from .x import`,
or stored in a module-level dict such as the CLI's command table) by a
wrapper that records a span per call, and restores the originals on exit.
No file under the package is edited; tracing only rebinds names.

Spans nest through a stack.  A span's self time is its duration minus the
durations of the spans it directly caused.  The integrands handed to
`numerics.integrate` and `numerics.cumulative` are wrapped too: each
callback is one Gauss-Kronrod panel batch, its array size is the number of
integrand nodes, and its own time (minus any traced calls it makes) is
`integrand_s`.  Integrand time stays inside the quadrature's self time, so
`integrate.self_s - integrate.integrand_s` is the adaptive bookkeeping.
The evaluations of the residual passed to the two root solvers are counted
as `evals`.

Statistics are flat sums keyed `<module>.<function>.<quantity>`.  Counts do
not depend on the machine and repeat exactly for a deterministic workload.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("numerics", "duality", "energy", "transport", "oracles", "sweep",
          "cli", "problem")

# Methods traced in addition to module-level functions: (module, class, name).
_METHODS = (("numerics", "MonotoneProfile", "invert_many"),)

# Functions whose first argument is an integrand or residual callback.
_INTEGRAND_TAKERS = {"numerics.integrate", "numerics.cumulative"}
_RESIDUAL_TAKERS = {"numerics.solve_root", "numerics.refine_to_residual"}


class Tracer:
    """Span stack and summed statistics for one traced stretch of work."""

    def __init__(self):
        self.stats = defaultdict(float)
        self._child_time = []   # one accumulator per open span

    def _enter(self):
        self._child_time.append(0.0)
        return time.perf_counter()

    def _leave(self, start):
        duration = time.perf_counter() - start
        children = self._child_time.pop()
        return duration, children

    def _call(self, name, fn, args, kwargs):
        if name in _INTEGRAND_TAKERS:
            args = (self._integrand(name, args[0]),) + args[1:]
        elif name in _RESIDUAL_TAKERS:
            args = (self._residual(name, args[0]),) + args[1:]
        start = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration, children = self._leave(start)
            self.stats[name + ".calls"] += 1
            self.stats[name + ".self_s"] += duration - children
            if self._child_time:
                self._child_time[-1] += duration

    def _integrand(self, name, f):
        def counted(y):
            start = self._enter()
            try:
                return f(y)
            finally:
                duration, children = self._leave(start)
                self.stats[name + ".batches"] += 1
                self.stats[name + ".points"] += np.size(y)
                self.stats[name + ".integrand_s"] += duration - children
                # Transparent: only traced calls made by the integrand
                # count as children of the quadrature span.
                self._child_time[-1] += children
        return counted

    def _residual(self, name, f):
        def counted(x):
            self.stats[name + ".evals"] += 1
            return f(x)
        return counted

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer of the imported monge1d package while open."""
        modules = _modules()
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in _public_functions(modules)}
        restore = []
        for layer, cls_name, attr in _METHODS:
            cls = getattr(modules[layer], cls_name)
            original = vars(cls)[attr]
            restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{layer}.{attr}", original))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            restore.append((obj, key, value))
                            obj[key] = wrappers[id(value)]
        try:
            yield self
        finally:
            for target, key, original in reversed(restore):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)


def _modules():
    return {layer: importlib.import_module(f"monge1d.{layer}")
            for layer in LAYERS}


def _public_functions(modules):
    """(name, function) for each public function a layer defines."""
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                yield f"{layer}.{attr}", obj


def traced_names():
    """Names of every function `Tracer.installed` wraps, for self-checks."""
    return ([f"{layer}.{attr}" for layer, _, attr in _METHODS]
            + [name for name, _ in _public_functions(_modules())])
