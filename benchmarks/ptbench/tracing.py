"""Per-layer tracing of ptlab from outside the package.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper at every module of the ``ptlab`` package that holds the
original, whether defined there or imported with ``from .x import name``.
Calls made inside the package therefore pass through the wrappers too.
``Tracer.restore`` puts every original back.

Each wrapper records calls, inclusive and self time (inclusive time minus the
time of nested wrapped calls) and exceptions. A few layers also record what
they returned: the ambiguity flag of a spectrum report, whether a core was
found, whether a conversion met its target, and the megabytes of the
matrices handed to the two SVD nullspace kernels, computed from their shapes.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

TRACED_MODULES = ("numerics", "involutions", "symmetry", "spectra", "metric", "convert",
                  "catalog2x2", "counting", "cli")

# Functions whose inclusive duration is also kept per matrix size n.
SIZED = {"metric.solve_metric_space", "convert.transpose_matrix"}
# Bytes per element of the matrix each SVD kernel works on (it converts its argument).
SVD_ITEMSIZE = {"numerics.rank_and_nullspace": 8, "numerics.nullspace_complex": 16}


@dataclass
class Stats:
    calls: int = 0
    exceptions: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    input_bytes: int = 0
    outcomes: int = 0  # calls whose result counted as a success (see _record_result)
    sized_ms: dict = field(default_factory=lambda: defaultdict(list))


def public_functions(module) -> dict:
    """Public functions defined in ``module`` itself, by name."""
    prefix = module.__name__.rsplit(".", 1)[-1]
    return {f"{prefix}.{name}": obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__}


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "ptlab" or name.startswith("ptlab."))]


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stats)
        self._stack = []
        self._patches = []

    # ------------------------------------------------------------ install / restore

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        labels = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"ptlab.{short}")
            for label, fn in public_functions(module).items():
                labels[fn] = label
        wrappers = {fn: self._wrap(fn, label) for fn, label in labels.items()}
        for module in package_modules():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    self._patches.append((module, name, obj))

    def restore(self):
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn, label):
        stats = self.stats[label]
        stack = self._stack
        clock = time.perf_counter
        sized = label in SIZED
        itemsize = SVD_ITEMSIZE.get(label)

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.exceptions += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            if sized and args:
                stats.sized_ms[np.shape(args[0])[0]].append(1e3 * elapsed)
            if itemsize and args:
                stats.input_bytes += int(np.prod(np.shape(args[0]))) * itemsize
            _record_result(label, stats, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper


def _record_result(label, stats, result):
    if label == "spectra.classify_spectrum":
        stats.outcomes += bool(result.ambiguous)
    elif label == "symmetry.find_gen_pt_operator":
        stats.outcomes += result is not None
    elif label in ("convert.pt_to_pseudo", "convert.pseudo_to_pt", "convert.gen_pt_to_pseudo"):
        stats.outcomes += bool(result.target_kind_satisfied)


def unpatched() -> bool:
    """True when no ptlab module holds a tracing wrapper."""
    return not any(hasattr(obj, "__wrapped__") and getattr(obj, "__module__", "") == __name__
                   for module in package_modules() for obj in vars(module).values())
