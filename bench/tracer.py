"""Spans and counters around the public functions of the weylcalc layers.

The tracer lives entirely in the benchmark: it replaces each listed
function by a wrapper in every ``weylcalc`` module that holds a reference
to it, so calls between layers and a function's own recursion are seen.
Timed functions record a span (name, start, end, parent) in memory; hot
element operations only bump a counter.  ``summarize`` turns the spans
into calls, total and self times per function.
"""

from __future__ import annotations

import json
import os
import sys
import time

# (module, function) pairs that get a span.
TIMED = (
    ("rootdata", "build_root_datum"),
    ("finiteweyl", "enumerate_w0"),
    ("affweyl", "eta_decomposition"),
    ("oracle", "cayley_ball"),
    ("oracle", "brute_min_length"),
    ("classes", "length_ball"),
    ("classes", "enumerate_straight_classes"),
    ("classes", "reduce_to_min"),
    ("classes", "approx_closure"),
    ("classes", "ux_decompose"),
    ("classes", "p_alcove_test"),
    ("dims", "dim_X_flag"),
    ("dims", "virtual_dimension"),
    ("dims", "save_cache"),
    ("dims", "load_cache"),
    ("cli", "emit_table"),
)

# (metric prefix, module, class, attribute) of element operations that are
# counted, not timed.
COUNTED = (
    ("affweyl.mul", "affweyl", "AffineWeylElt", "__mul__"),
    ("affweyl.length", "affweyl", "AffineWeylElt", "length"),
    ("finiteweyl.mul", "finiteweyl", "FiniteWeylElt", "__mul__"),
)

# A dim_X_flag call that opens none of these is answered from its memo.
RECURSION_WORK = frozenset({"dims.dim_X_flag", "classes.ux_decompose"})

# Work counts read from a traced function's return value: metric stat and
# how to count it.
SIZES = {
    "oracle.cayley_ball": ("nodes", lambda ball: len(ball.elements)),
    "classes.length_ball": ("elements", len),
    "classes.approx_closure": ("nodes", len),
    "dims.load_cache": ("entries", int),
    "dims.save_cache": ("bytes", os.path.getsize),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.stack = []
        self.counts = {}  # metric prefix -> calls of a counted operation
        self.sizes = {}  # "<function>.<stat>" -> summed work count of its results
        self.raised = {}  # function name -> exceptions raised, by type name
        self.absent = []
        self._undo = []

    def install(self, package="weylcalc"):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == package or name.startswith(package + ".")
        }
        for mod_name, fn_name in TIMED:
            mod = modules.get(f"{package}.{mod_name}")
            orig = getattr(mod, fn_name, None)
            if orig is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._timed(f"{mod_name}.{fn_name}", orig)
            for other in modules.values():
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        self._undo.append((other, attr, value))
                        setattr(other, attr, wrapper)
        for prefix, mod_name, cls_name, attr in COUNTED:
            cls = getattr(modules.get(f"{package}.{mod_name}"), cls_name, None)
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                self.absent.append(prefix)
                continue
            self.counts[prefix] = 0
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._counted(prefix, orig))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _counted(self, prefix, orig):
        counts = self.counts

        if isinstance(orig, property):
            fget = orig.fget

            def getter(obj):
                counts[prefix] += 1
                return fget(obj)

            return property(getter, orig.fset, orig.fdel, orig.__doc__)

        def method(*args, **kwargs):
            counts[prefix] += 1
            return orig(*args, **kwargs)

        return method

    def _timed(self, name, orig):
        index = len(self.names)
        self.names.append(name)
        spans, stack, sizes, raised = self.spans, self.stack, self.sizes, self.raised
        clock = time.perf_counter
        stat, size_of = SIZES.get(name, (None, None))

        def wrapper(*args, **kwargs):
            record = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                by_kind = raised.setdefault(name, {})
                by_kind[type(exc).__name__] = by_kind.get(type(exc).__name__, 0) + 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if size_of is not None:
                key = f"{name}.{stat}"
                sizes[key] = sizes.get(key, 0) + size_of(result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))

    def summary(self):
        return {
            "functions": summarize(self.names, self.spans, RECURSION_WORK),
            "counts": dict(self.counts),
            "sizes": dict(self.sizes),
            "raised": self.raised,
            "absent": list(self.absent),
        }


def summarize(names, spans, work_children=()):
    """Per function: calls, total_s (outermost spans only, so recursion is
    not counted twice), self_s (duration minus the time covered by direct
    children), max_depth (nesting inside spans of the same name, counting
    itself) and hits (calls that opened no child span named in
    work_children)."""
    child_time = [0.0] * len(spans)
    opened_work = [False] * len(spans)
    for index, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if names[index] in work_children:
                opened_work[parent] = True
    out = {}
    for i, (index, start, end, parent) in enumerate(spans):
        name = names[index]
        depth = 1
        while parent >= 0:
            if spans[parent][0] == index:
                depth += 1
            parent = spans[parent][3]
        entry = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_depth": 0, "hits": 0}
        )
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        if depth == 1:
            entry["total_s"] += end - start
        entry["max_depth"] = max(entry["max_depth"], depth)
        if not opened_work[i]:
            entry["hits"] += 1
    return out
