"""Outside-in layer trace: spans recorded by wrapping svlie's functions.

Nothing in the program is edited.  Each traced function is replaced, in
every module that binds it (svlie's own modules and the benchmark's), by
a wrapper that records one span per call: label, start, end, parent span
and op index.  Spans stay in memory in flat arrays and are reduced to
calls, total time and self time when the pass ends.  A function that a
later version of svlie deletes or renames is reported as absent.

``bracket_basis`` is deliberately not wrapped: it is called about a
million times per pass.  worker.py reads its ``cache_info()`` at the start
and end of the pass instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from types import ModuleType
from typing import Callable

# (label, module, attribute path).  Labels are the metric prefixes.
TRACED = (
    ("cohomology.solve_h1", "svlie.cohomology", "solve_h1"),
    ("cohomology.assemble", "svlie.cohomology", "assemble"),
    ("cohomology.inner_vectors", "svlie.cohomology", "inner_vectors"),
    ("cohomology.verify_invariants_are_central", "svlie.cohomology", "verify_invariants_are_central"),
    ("cohomology.verify_skew_image_lemma", "svlie.cohomology", "verify_skew_image_lemma"),
    ("linalg.RowEchelon.insert", "svlie.linalg", "RowEchelon.insert"),
    ("linalg.RowEchelon.kernel_basis", "svlie.linalg", "RowEchelon.kernel_basis"),
    ("algebra.center_in_window", "svlie.algebra", "center_in_window"),
    ("algebra.check_jacobi", "svlie.algebra", "check_jacobi"),
    ("algebra.bracket", "svlie.algebra", "bracket"),
    ("derivations.catalog_basis", "svlie.derivations", "catalog_basis"),
    ("derivations.tensorized_algebra_family", "svlie.derivations", "tensorized_algebra_family"),
    ("derivations.is_derivation", "svlie.derivations", "is_derivation"),
    ("tensors.check_cojacobi_identity", "svlie.tensors", "check_cojacobi_identity"),
    ("tensors.check_mybe", "svlie.tensors", "check_mybe"),
    ("tensors.diag_action", "svlie.tensors", "diag_action"),
    ("literals.parse_element", "svlie.literals", "parse_element"),
    ("literals.parse_tensor2", "svlie.literals", "parse_tensor2"),
)


def _n_cols(args: tuple, kwargs: dict) -> int:
    return kwargs["n_cols"] if "n_cols" in kwargs else args[1]


# Counters read off a traced call: label -> (counter, value(args, kwargs, result)).
# A counter whose value cannot be read from a later version's signature or
# result type is reported as absent.
COUNTERS: dict[str, tuple[tuple[str, Callable], ...]] = {
    "cohomology.solve_h1": (("certified", lambda a, k, r: int(bool(r.certified))),),
    "cohomology.assemble": (
        ("rows", lambda a, k, r: len(r.rows)),
        ("unknowns", lambda a, k, r: r.n_unknowns),
    ),
    "linalg.RowEchelon.insert": (("dependent", lambda a, k, r: int(r is None)),),
    "linalg.RowEchelon.kernel_basis": (("columns", lambda a, k, r: _n_cols(a, k)),),
}


def _resolve(module: str, path: str):
    """(owner, attribute name, function) or None when it does not exist."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, parts[-1], None)
    if not callable(fn):
        return None
    return owner, parts[-1], fn


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.absent: set[str] = set()
        self.counters: dict[str, int] = {}
        self.absent_counters: set[str] = set()
        self.op = -1
        # one entry per span
        self._label = array("i")
        self._parent = array("l")
        self._op = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def install(self, extra_modules: tuple[ModuleType, ...] = ()) -> None:
        """Wrap every function in TRACED, in every module that binds it."""
        for label, module, path in TRACED:
            found = _resolve(module, path)
            if found is None:
                self.absent.add(label)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(fn, label, COUNTERS.get(label, ()))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            modules = [
                m
                for name, m in list(sys.modules.items())
                if name == "svlie" or name.startswith("svlie.")
            ] + list(extra_modules)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapper)

    def _wrap(self, fn: Callable, label: str, counters: tuple) -> Callable:
        idx = len(self.labels)
        self.labels.append(label)
        for counter, _ in counters:
            self.counters[f"{label}.{counter}"] = 0
        lab, parent, op, start, end = self._label, self._parent, self._op, self._start, self._end
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(lab)
            lab.append(idx)
            parent.append(stack[-1])
            op.append(tracer.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            for counter, read in counters:
                key = f"{label}.{counter}"
                try:
                    tracer.counters[key] += read(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    tracer.absent_counters.add(key)
            return result

        return wrapper

    def summary(self, op_factor: list[float], default_factor: float) -> dict:
        """Per label: calls, and total and self seconds both raw and
        rescaled by the drift factor of the op each span ran in."""
        n = len(self._label)
        child = array("d", bytes(8 * n))
        parent, start, end = self._parent, self._start, self._end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        fields = ("calls", "total_s", "self_s", "total_raw_s", "self_raw_s")
        layers = [dict.fromkeys(fields, 0) for _ in self.labels]
        for i in range(n):
            entry = layers[self._label[i]]
            o = self._op[i]
            f = op_factor[o] if 0 <= o < len(op_factor) else default_factor
            d = end[i] - start[i]
            entry["calls"] += 1
            entry["total_raw_s"] += d
            entry["self_raw_s"] += d - child[i]
            entry["total_s"] += d * f
            entry["self_s"] += (d - child[i]) * f
        return {
            "spans": n,
            "layers": dict(zip(self.labels, layers)),
            "counters": dict(self.counters),
            "absent": sorted(self.absent | self.absent_counters),
        }

