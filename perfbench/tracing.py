"""Spans around the public calls into each ``tgrs`` module, and gf probes.

The tracer wraps functions where each module imports them (``rank`` as bound
in ``classify`` and ``linalg``, ``classify`` as bound in ``lcdgen`` and
``cli``, ...) and the methods and constructors listed below on their class.
Spans are kept in memory as ``[name, start, end, parent]``, with ``parent``
the index of the enclosing span or -1, and written out when the pass ends.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import timeit

# span name -> (module, attribute) of a module-level function.
FUNCTIONS = {
    "cli": ("tgrs.cli", "main"),
    "lcdgen.search_eta": ("tgrs.lcdgen", "search_eta"),
    "lcdgen.build": ("tgrs.lcdgen", "build_class1", "build_class2"),
    "classify.classify": ("tgrs.classify", "classify"),
    "classify.is_mds_phi": ("tgrs.classify", "is_mds_phi"),
    "classify.is_mds_minors": ("tgrs.classify", "is_mds_minors"),
    "classify.is_amds": ("tgrs.classify", "is_amds"),
    "classify.hull_dimension": ("tgrs.classify", "hull_dimension"),
    "classify.min_distance": ("tgrs.classify", "min_distance"),
    "codes.generator_matrix": ("tgrs.codes", "generator_matrix"),
    "codes.parity_check_matrix": ("tgrs.codes", "parity_check_matrix"),
    "linalg.rank": ("tgrs.linalg", "rank"),
    "linalg.det": ("tgrs.linalg", "det"),
}

# span name -> (module, class, attribute) of a method or constructor.
METHODS = {
    "classify.phi_workspace": ("tgrs.classify", "PhiWorkspace", "__init__"),
    "symm.context": ("tgrs.symm", "SymContext", "__init__"),
    "linalg.submatrix": ("tgrs.linalg", "MatGF", "submatrix"),
    "poly.from_roots": ("tgrs.poly", "Poly", "from_roots"),
}

SPAN_NAMES = tuple(FUNCTIONS) + tuple(METHODS)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every original."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                open_spans.pop()
                span[2] = clock()
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "tgrs" or name.startswith("tgrs.")]
        for span, (module, *attrs) in FUNCTIONS.items():
            for attr in attrs:
                original = getattr(sys.modules[module], attr)
                wrapped = self._wrap(span, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)
        for span, (module, cls, attr) in METHODS.items():
            klass = getattr(sys.modules[module], cls)
            raw = klass.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(klass, attr, classmethod(self._wrap(span, raw.__func__)))
            else:
                self._set(klass, attr, self._wrap(span, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls and self seconds per span name; names that never fired read 0."""
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_s[i]
    return out


def gf_probes(tgrs, number: int = 5000, repeat: int = 7) -> dict[str, float]:
    """Median nanoseconds per field operation, by ``timeit``."""
    f31, f37 = tgrs.Field(31), tgrs.Field(37)
    f16 = tgrs.Field(2, 4, [1, 1, 0, 0, 1])  # x^4 + x + 1
    cases = {
        "gf.prime_mul_ns": ("a * b", {"a": f37.element(17), "b": f37.element(29)}),
        "gf.ext_mul_ns": ("a * b", {"a": f16.from_index(11), "b": f16.from_index(6)}),
        "gf.ext_inv_ns": ("a.inverse()", {"a": f16.from_index(11)}),
        "gf.element_ns": ("f.element(v)", {"f": f31, "v": 23}),
    }
    out = {}
    for name, (stmt, env) in cases.items():
        times = timeit.Timer(stmt, globals=env).repeat(repeat=repeat, number=number)
        out[name] = statistics.median(times) / number * 1e9
    return out
