"""Span recorder for the traced run, installed from outside the library.

Each public function of a `thetagauss` module is replaced, for the
duration of the traced run, by a wrapper that records a span (name,
parent, start, end) around the call.  The wrapper is installed wherever
callers look the function up: in its defining module, in every module
that imported it by name, and in the package namespace.  The public
methods of `DiscreteGaussian` are wrapped on the class.  Spans are kept
in memory and aggregated and written out when the run ends.

A few per-term helpers are left unwrapped: they are called once per
multi-index or per recursion term, so a wrapper would cost more than the
work it measures and would swamp the self time of their callers.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

MODULES = ("engine", "multiindex", "distribution", "fitting", "sampler", "geometry", "cli")

UNWRAPPED = {
    "engine.as_siegel",
    "multiindex.exponents",
    "multiindex.order",
    "multiindex.mi_binomial",
    "multiindex.sub_indices",
}

CLASS_METHODS = {"distribution": ("DiscreteGaussian",)}

# Work counts attached to a span when it ends, from the call's result:
# points enumerated, multi-indices evaluated, Newton steps.
_WORK = {
    "engine.lattice_points": lambda result: len(result),
    "engine.theta_du_many": lambda result: len(result),
    "engine.theta_du": lambda result: 1,
    "fitting.fit": lambda result: result.iterations,
}


class Recorder:
    """Spans of the current process, one flat list, parents by index.

    A span is [name, parent, op, start_ns, end_ns, work]; parent is -1 for
    an operation's root span, op is the operation the span belongs to.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self.lattice_keys: set[tuple[int, float]] = set()
        # enumerations that missed the engine's lattice cache in traced
        # rounds; None when the engine has no such cache
        self.lattice_misses: int | None = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work = _WORK.get(name)
        keys = self.lattice_keys if name == "engine.lattice_points" else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, clock(), 0, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(result)
            if keys is not None:
                keys.add((int(args[0]), float(args[1])))
            return result

        return wrapper

    def operation(self, fn):
        """Wrap one benchmark operation: a root span under a new op id."""
        inner = self.wrap("op", fn)

        def run(*args, **kwargs):
            self.op += 1
            return inner(*args, **kwargs)

        return run

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _lattice_misses(package) -> int | None:
    """Misses so far of the engine's lattice-point cache (an lru_cache),
    or None if the engine has none."""
    info = getattr(getattr(package.engine, "_lattice_points_cached", None), "cache_info", None)
    return None if info is None else info().misses


class Installed:
    """Context manager that installs the wrappers and restores the
    originals on exit, and adds the lattice-cache misses in between to
    the recorder."""

    def __init__(self, package, rec: Recorder):
        self.package, self.rec = package, rec
        self._undo: list[tuple[object, str, object]] = []
        self._misses: int | None = None

    def __enter__(self):
        self._misses = _lattice_misses(self.package)
        mods = {m: getattr(self.package, m) for m in MODULES}
        wrappers = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrappers[id(obj)] = (obj, self.rec.wrap(name, obj))
            for cls_name in CLASS_METHODS.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                        self._set(cls, attr, self.rec.wrap(f"{short}.{cls_name}.{attr}", obj))
        # rebind every name, in every module, that refers to a wrapped function
        for mod in [self.package, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        return self.rec

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        if self._misses is None or self.rec.lattice_misses is None:
            self.rec.lattice_misses = None
        else:
            self.rec.lattice_misses += _lattice_misses(self.package) - self._misses
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False


def _ancestor(spans, i: int, names) -> bool:
    p = spans[i][1]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][1]
    return False


def summarize(spans: list[list], ops: int) -> dict:
    """Per-layer figures, each divided by the number of operations.

    Self time is a span's duration minus the durations of its direct
    children; calls in one thread nest, so the children never overlap.
    """
    child_ns = defaultdict(int)
    for name, parent, _op, start, end, _work in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, _parent, _op, start, end, _work) in enumerate(spans):
        self_ms[name] += (end - start - child_ns[i]) / 1e6
        calls[name] += 1
    # points enumerated below each span, for monomial_terms
    points_below = defaultdict(int)
    points = support = moment_evals = zero_theta_calls = 0
    for i, (name, parent, _op, _s, _e, work) in enumerate(spans):
        if name == "engine.lattice_points":
            points += work
            points_below[parent] += work
            # the support draw samples from; the enumerations of the theta
            # that normalises the tail bound lie deeper, under theta
            if parent >= 0 and spans[parent][0] == "sampler.draw":
                support += work
        elif name == "engine.theta_du_many" and _ancestor(spans, i, ("fitting.fit",)):
            moment_evals += 1
        if name in ("engine.theta", "engine.theta_du_many") and _ancestor(
            spans, i, ("geometry.find_theta_zero",)
        ):
            zero_theta_calls += 1
    monomials = sum(
        work * points_below[i]
        for i, (name, _p, _o, _s, _e, work) in enumerate(spans)
        if name in ("engine.theta_du_many", "engine.theta_du")
    )
    iterations = sum(s[5] for s in spans if s[0] == "fitting.fit")
    return {
        "calls": {k: v / ops for k, v in calls.items()},
        "self_ms": {k: v / ops for k, v in self_ms.items()},
        "points_summed": points / ops,
        "monomial_terms": monomials / ops,
        "support_points": support / ops,
        "moment_evals": moment_evals / ops,
        "newton_iterations": iterations / ops,
        "zero_theta_calls": zero_theta_calls / ops,
    }
