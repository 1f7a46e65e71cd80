"""Spans around postlie's public boundary functions, recorded from outside.

``Tracer.install()`` replaces each target function with a wrapper in every
``postlie`` module namespace that binds it (``from .liealg import builtin``
makes a second binding in ``flows``), and ``uninstall()`` puts the
originals back.  A span is ``(name, start, end, parent, job)``; spans stay
in memory until the run writes them out.  Hot inner helpers (``bracket``,
``BilinearProduct.apply``, ``_normalize_terms``) are deliberately not
wrapped: their calls take microseconds and a wrapper would dominate them.
"""

from __future__ import annotations

import functools
import sys
import weakref
from collections import defaultdict
from time import perf_counter

from postlie import cli, enveloping, flows, liealg, magnus, products, rmatrix


def _chi_name(args, kwargs):
    method = kwargs.get("method", args[4] if len(args) > 4 else "star")
    return "magnus.chi_%s" % method


# (owner, attribute, span name); a callable name is computed per call.
TARGETS = (
    (liealg, "new_lie_algebra", "liealg.new_lie_algebra"),
    (liealg, "builtin", "liealg.builtin"),
    (rmatrix, "is_rmatrix", "rmatrix.is_rmatrix"),
    (rmatrix, "splitting_r", "rmatrix.splitting_r"),
    (products, "from_rmatrix", "products.from_rmatrix"),
    (magnus, "postlie_magnus", _chi_name),
    (enveloping, "star_mul", "enveloping.star_mul"),
    (enveloping, "env_mul", "enveloping.env_mul"),
    (enveloping, "coproduct", "enveloping.coproduct"),
    (enveloping, "antipode", "enveloping.antipode"),
    (enveloping, "star_antipode", "enveloping.star_antipode"),
    (enveloping, "tensor_mul", "enveloping.tensor_mul"),
    (enveloping, "tensor_star_mul", "enveloping.tensor_star_mul"),
    (flows, "toda_problem", "flows.toda_problem"),
    (flows, "factorized_solution", "flows.factorized_solution"),
    (flows.FlowProblem, "chi_coefficients", "flows.chi_coefficients"),
    (cli, "main", "cli.main"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self.algebras = weakref.WeakSet()  # every algebra built while traced
        self.gauges = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        record_algebra = name == "liealg.new_lie_algebra"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.job)
            if record_algebra:
                self.algebras.add(result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "postlie" or n.startswith("postlie.")]
        for owner, attr, name in TARGETS:
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            homes = [owner] if isinstance(owner, type) else modules
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is orig:
                        setattr(home, key, wrapper)
                        self._patched.append((home, key, orig))

    def uninstall(self):
        for home, key, orig in reversed(self._patched):
            setattr(home, key, orig)
        self._patched.clear()

    def self_times(self):
        """{span name: (total self seconds, calls)} over all recorded spans;
        self time is the span's duration minus its children's durations."""
        child = [0.0] * len(self.spans)
        for label, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for (label, start, end, _, _), c in zip(self.spans, child):
            out[label][0] += end - start - c
            out[label][1] += 1
        return {k: tuple(v) for k, v in out.items()}

    def record_gauges(self):
        """Live state after a job: lifted-product contexts still reachable
        through ``enveloping._lift_contexts``, their memo entries, and the
        PBW cache entries of every algebra built under tracing that is
        still alive."""
        contexts = [c for table in list(enveloping._lift_contexts.values())
                    for c in table.values()]
        self.gauges.append({
            "enveloping.lift_contexts_alive": len(contexts),
            "enveloping.lift_memo_entries": sum(len(c._memo) for c in contexts),
            "enveloping.pbw_cache_entries": sum(
                len(L._pbw_cache) for L in list(self.algebras)),
        })
