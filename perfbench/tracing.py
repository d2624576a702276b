"""Spans around calls into versal's public functions, recorded from outside.

:func:`install` replaces each function named in :data:`TRACED` with a wrapper
in every ``versal`` module that holds a reference to it (including names that
other modules imported, such as ``linearization.min_norm_least_squares``), so
the package itself is not edited.  Spans stay in memory as tuples; a span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# bytes of one complex128 entry; linalg coerces every argument to complex128
_ENTRY_BYTES = 16


def _input_bytes(args, result, exc):
    # computed from argument sizes, not measured traffic
    return sum(_ENTRY_BYTES * a.size for a in args if isinstance(a, np.ndarray))


def _sweeps(args, result, exc):
    if exc is not None:
        return max(len(getattr(exc, "residual_trace", ())) - 1, 0)
    return result.iterations


def _file_bytes(args, result, exc):
    return os.path.getsize(args[0]) if exc is None else 0


# traced function -> (name of its extra count, unit, how to compute it)
TRACED = {
    "linalg.eigenvalues": None,
    "linalg.numerical_rank": ("input_bytes", "bytes_computed", _input_bytes),
    "linalg.solve_linear": ("input_bytes", "bytes_computed", _input_bytes),
    "linalg.min_norm_least_squares": ("input_bytes", "bytes_computed", _input_bytes),
    "jordan.recover_structure": None,
    "jordan.build_jcf": None,
    "deformation.arnold_pattern": None,
    "deformation.alternate_pattern": None,
    "deformation.instantiate": None,
    "deformation.reduce_single_block": None,
    "codimension.orbit_codim_oracle": None,
    "closure.perturbation_experiment": None,
    "closure.transport_perturbation": None,
    "closure.closure_necessary": None,
    "linearization.recover": ("sweeps", "count", _sweeps),
    "linearization.companion": None,
    "linearization.split": None,
    "files.load_document": ("bytes", "bytes", _file_bytes),
    "files.save_document": ("bytes", "bytes", _file_bytes),
}


class Tracer:
    """In-memory span recorder.

    Each span is ``(id, parent_id, op, name, start_ns, end_ns, failed,
    extra)``; ``op`` is the operation the caller set in :attr:`op`, so spans
    of one operation share it.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._next_id = 0
        self._patched = []

    def wrap(self, name, func, extra=None):
        from versal.errors import VersalError

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result = exc = None
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
                return result
            except VersalError as error:
                exc = error
                raise
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                count = extra(args, result, exc) if extra else None
                self.spans.append((span_id, parent, self.op, name, start, end,
                                   exc is not None, count))
        return wrapper

    def absorb(self, spans):
        """Append spans another process recorded, renumbered, under :attr:`op`."""
        base = self._next_id
        for span_id, parent, _, name, start, end, failed, extra in spans:
            self.spans.append((base + span_id, None if parent is None else base + parent,
                               self.op, name, start, end, failed, extra))
        self._next_id = base + len(spans)

    def install(self):
        """Wrap every function in :data:`TRACED` wherever versal refers to it."""
        for module in ("versal", "versal.cli", "versal.files"):
            importlib.import_module(module)
        modules = [m for key, m in sys.modules.items()
                   if key == "versal" or key.startswith("versal.")]
        for name, spec in TRACED.items():
            module_name, func_name = name.split(".")
            original = getattr(sys.modules["versal." + module_name], func_name)
            wrapped = self.wrap(name, original, spec[2] if spec else None)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        """Put the original functions back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def load_spans(path):
    with open(path, encoding="utf-8") as src:
        return [tuple(json.loads(line)) for line in src]


def layer_totals(spans):
    """Per traced function: calls, failed calls, self time (ns) and extra count."""
    child_ns = Counter()
    for span_id, parent, _, _, start, end, _, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    totals = {name: {"calls": 0, "failed": 0, "self_ns": 0, "extra": 0}
              for name in TRACED}
    for span_id, _, _, name, start, end, failed, extra in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["failed"] += int(failed)
        entry["self_ns"] += end - start - child_ns[span_id]
        entry["extra"] += extra or 0
    return totals
