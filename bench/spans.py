"""Per-layer tracing of liedeform from outside the package.

``install`` wraps the public functions of each module and the public
methods of ``ExactMatrix`` and ``LieAlgebra``.  A wrapped function is
rebound under every name in every ``liedeform`` module namespace that holds
it, so calls made through ``from .x import f`` are traced too.  Each call
records a span (name, parent span, start, end); a layer's self time is its
span duration minus the time covered by its child spans.  Counters are
updated after a call returns, inside a span of their own, so their cost
lands in the tracing overhead and not in any layer's self time.

A name that does not exist at the commit under test is reported as absent,
so the benchmark keeps running when a later change deletes a helper.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from fractions import Fraction

FUNCTIONS = {
    "cohomology": (
        "differential",
        "apply_differential",
        "cohomology_dim",
        "is_coboundary",
        "class_eq",
        "span_in_cohomology",
        "is_cocycle",
    ),
    "deform": (
        "defect",
        "strict_extendability",
        "specialize",
        "search_isomorphism",
        "verify_isomorphism",
    ),
    "catalog": ("reproduce",),
    "cli": ("main",),
}

# (module, class, span prefix) -> methods
METHODS = {
    ("exact", "ExactMatrix", "exact"): ("rank", "nullspace", "solve", "inverse"),
    ("liealg", "LieAlgebra", "liealg.LieAlgebra"): (
        "jacobi_violations",
        "series",
        "center",
        "change_basis",
    ),
}

COUNTER_SPAN = "trace.counters"
PROBE_SPAN = "trace.probes"


class Tracer:
    """Span recorder.  ``clock`` is injectable so tests can drive time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)

    def wrap(self, name: str, fn, on_return=None):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if on_return is not None:
                counter = self._open(COUNTER_SPAN)
                try:
                    on_return(self, args, kwargs, result)
                except Exception:  # a counter must never fail the job it observes
                    self.counts["trace.counter_errors"] += 1
                finally:
                    self._close(counter)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, self.clock(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[3] = self.clock()
        self._stack.pop()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds) over all finished spans."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0 and end is not None:
                covered[parent] += end - start
        out: dict[str, list] = {}
        for (name, _, start, end), child in zip(self.spans, covered):
            if end is None:
                continue
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - child
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}


# -- counters ------------------------------------------------------------------


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    return 0


def _max_bits(rows) -> int:
    return max((_bits(x) for row in rows for x in row), default=0)


def _elim_counter(op: str):
    """cells and nnz of the eliminated matrix; largest bit length seen."""

    def count(tracer, args, kwargs, result):
        m = args[0]
        rows = m.rows()
        tracer.counts["exact.elim.cells"] += m.nrows * m.ncols
        tracer.counts["exact.elim.nnz"] += sum(1 for row in rows for x in row if x)
        bits = _max_bits(rows)
        if op == "solve":
            bits = max(bits, _max_bits([result or (), args[1]]))
        elif op == "nullspace":
            bits = max(bits, _max_bits(result))
        elif op == "inverse":
            bits = max(bits, _max_bits(result.rows()))
        tracer.maxima["exact.elim.maxbits"] = max(tracer.maxima["exact.elim.maxbits"], bits)

    return count


def _differential_counter(tracer, args, kwargs, result):
    algebra, q = args[0], args[1] if len(args) > 1 else kwargs["q"]
    tracer.counts["cohomology.differential.cells"] += result.nrows * result.ncols
    tracer.counts["cohomology.differential.nnz"] += sum(
        1 for row in result.rows() for x in row if x
    )
    tracer.distinct["cohomology.differential.distinct"].add((algebra, q))


def search_space(n: int, bound_size: int, search_class: str) -> int:
    """Candidates the isomorphism search class holds (computed, not measured)."""
    if search_class == "diagonal_signs":
        return 2**n
    monomials = math.factorial(n) * bound_size**n
    if search_class == "monomial":
        return monomials
    return monomials * (1 + n * (n - 1) * bound_size)


def _search_counter(signature):
    def count(tracer, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        tracer.counts["deform.search_isomorphism.hits"] += result is not None
        tracer.counts["deform.search_isomorphism.space"] += search_space(
            a["A"].dim, len(a["bound"]), a["search_class"]
        )

    return count


# -- installation ----------------------------------------------------------------


def _rebind(original, wrapped) -> None:
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "liedeform" or modname.startswith("liedeform.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _hook(span: str, fn):
    """The counter updated after each call of a span, if any."""
    if span == "cohomology.differential":
        return _differential_counter
    if span == "deform.search_isomorphism":
        return _search_counter(inspect.signature(fn))
    if span.startswith("exact."):
        return _elim_counter(span.split(".")[1])
    return None


def _module(name: str):
    try:
        return importlib.import_module(f"liedeform.{name}")
    except ImportError:
        return None


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced name; return the names absent at this commit."""
    absent = []
    for modname, names in FUNCTIONS.items():
        mod = _module(modname)
        for name in names:
            span = f"{modname}.{name}"
            fn = getattr(mod, name, None)
            if callable(fn):
                _rebind(fn, tracer.wrap(span, fn, _hook(span, fn)))
            else:
                absent.append(span)

    for (modname, clsname, prefix), names in METHODS.items():
        cls = getattr(_module(modname), clsname, None)
        for name in names:
            span = f"{prefix}.{name}"
            fn = vars(cls).get(name) if cls is not None else None
            if callable(fn):
                setattr(cls, name, tracer.wrap(span, fn, _hook(span, fn)))
            else:
                absent.append(span)

    jsonio = _module("jsonio")
    public = {
        name: fn
        for name, fn in (vars(jsonio).items() if jsonio is not None else ())
        if inspect.isfunction(fn) and fn.__module__ == "liedeform.jsonio" and name[0] != "_"
    }
    for suffix in ("from_dict", "to_dict"):
        span = f"jsonio.{suffix}"
        matching = [fn for name, fn in public.items() if name.endswith(f"_{suffix}")]
        for fn in matching:
            _rebind(fn, tracer.wrap(span, fn))
        if not matching:
            absent.append(span)
    return absent


def summary(tracer: Tracer) -> dict:
    """Plain-data totals of one traced job: self times, calls and counters."""
    return {
        "self": {name: [calls, s] for name, (calls, s) in tracer.self_times().items()},
        "counts": dict(tracer.counts),
        "maxima": dict(tracer.maxima),
        "distinct": {k: len(v) for k, v in tracer.distinct.items()},
    }
