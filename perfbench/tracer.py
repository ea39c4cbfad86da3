"""Out-of-tree tracing of monoidorder's public functions.

The program is not edited.  :meth:`Tracer.install` replaces each target
function by a wrapper: the module attribute, every ``monoidorder.*`` (and
benchmark) module namespace that imported the same object, and the class
attribute for methods.  Wrappers append spans (name, start, end, parent)
to flat arrays in memory; :meth:`Tracer.uninstall` puts the originals
back, and the spans are aggregated and written once at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array

# (module, attribute path, span name).  Span names double as the prefixes of
# the per-layer metrics; the double-description conversion behind every
# RationalCone representation change is reported as RationalCone.build.
TARGETS = [
    ("exactmath", "bounded_nonneg_combination", "exactmath.bounded_nonneg_combination"),
    ("exactmath", "solve_nonneg_rational", "exactmath.solve_nonneg_rational"),
    ("exactmath", "lp_feasible", "exactmath.lp_feasible"),
    ("exactmath", "cone_from_inequalities", "exactmath.RationalCone.build"),
    ("exactmath", "smith_normal_form", "exactmath.smith_normal_form"),
    ("exactmath", "hermite_normal_form", "exactmath.hermite_normal_form"),
    ("monoids", "LatticeMonoid.contains", "monoids.contains"),
    ("monoids", "leq", "monoids.leq"),
    ("monoids", "approx", "monoids.approx"),
    ("monoids", "enumerate_biadditive_ops", "monoids.enumerate_biadditive_ops"),
    ("formallyreal", "SturmChain.__init__", "formallyreal.SturmChain"),
    ("formallyreal", "sturm_root_count", "formallyreal.sturm_root_count"),
    ("formallyreal", "squarefree_decomposition", "formallyreal.squarefree_decomposition"),
    ("formallyreal", "isolate_real_roots", "formallyreal.isolate_real_roots"),
    ("formallyreal", "refine_interval", "formallyreal.refine_interval"),
    ("formallyreal", "is_sos_membership", "formallyreal.is_sos_membership"),
    ("formallyreal", "theorem_skew_hypothesis", "formallyreal.theorem_skew_hypothesis"),
    ("functionals", "verify_theorem_main", "functionals.verify_theorem_main"),
    ("functionals", "positive_functionals", "functionals.positive_functionals"),
    ("functionals", "normalize_multiplicative", "functionals.normalize_multiplicative"),
    ("localizability", "is_localizable", "localizability.is_localizable"),
    ("localizability", "is_weakly_localizable", "localizability.is_weakly_localizable"),
    ("localizability", "is_strongly_localizable", "localizability.is_strongly_localizable"),
    ("localizability", "order_unit_fast_path", "localizability.order_unit_fast_path"),
    ("grothendieck", "nabla", "grothendieck.nabla"),
    ("grothendieck", "pi12", "grothendieck.pi12"),
    ("grothendieck", "grothendieck", "grothendieck.grothendieck"),
    ("latticeorder", "is_extended_f_ring", "latticeorder.is_extended_f_ring"),
    ("latticeorder", "fring_strong_localizability", "latticeorder.fring_strong_localizability"),
    ("instancefile", "load_instance", "instancefile.load_instance"),
    ("reports", "render_report", "reports.render_report"),
]

ROOT_SPAN = "bench.verdict"


def _contains_key(args, kwargs):
    monoid, x = args[0], args[1]
    return (id(monoid), tuple(int(v) for v in x))


def _chain_key(args, kwargs):
    return args[1].coefficients


# Spans whose distinct arguments are counted, for the reuse ratios.  The
# contains key holds id(monoid), so the tracer keeps those monoids alive.
KEYED = {"monoids.contains": _contains_key, "formallyreal.SturmChain": _chain_key}
KEEPS_FIRST_ARG = {"monoids.contains"}


class Tracer:
    def __init__(self, extra_namespaces=()):
        self.names = [ROOT_SPAN] + [name for _, _, name in TARGETS]
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.distinct = {name: set() for name in KEYED}
        self._keep = {}  # objects whose id() is part of a key stay alive
        self._stack = [-1]
        self._extra = list(extra_namespaces)
        self._patched = []

    # -- spans -----------------------------------------------------------

    def span(self, name: str, fn, key=None):
        nid = self._name_id[name]
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        seen = self.distinct.get(name)
        keep = self._keep if name in KEEPS_FIRST_ARG else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            if key is not None:
                seen.add(key(args, kwargs))
                if keep is not None:
                    keep[id(args[0])] = args[0]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
        return traced

    def root(self, fn):
        """Wrap one verdict in the root span every layer span nests in."""
        return self.span(ROOT_SPAN, fn)

    # -- installing wrappers from outside --------------------------------

    def install(self):
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "monoidorder" or n.startswith("monoidorder.")]
        namespaces += self._extra
        for modname, path, name in TARGETS:
            module = importlib.import_module(f"monoidorder.{modname}")
            owner, _, attr = path.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = holder.__dict__[attr]
            wrapper = self.span(name, original, KEYED.get(name))
            self._set(holder, attr, original, wrapper)
            if not owner:
                for ns in namespaces:
                    for other, value in list(vars(ns).items()):
                        if value is original and ns is not holder:
                            self._set(ns, other, original, wrapper)

    def _set(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._patched.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- aggregation -----------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write(self, path: str):
        """All spans, one JSON array per line: id, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([i, self.names[self.name_of[i]],
                                     round(self.start[i], 9), round(self.end[i], 9),
                                     self.parent[i]]) + "\n")


def per_layer(tracer: Tracer, outcomes, overhead: float) -> dict:
    """The per-layer metrics of one traced pass, as {name: {value, unit}}.

    ``.calls`` and the ratios are exact counts; ``.self_s`` is wall time.
    A layer the workload never enters reports zero.
    """
    summary = tracer.summary()
    out = {}
    for name in tracer.names:
        row = summary[name]
        count = "builds" if name == "formallyreal.SturmChain" else "calls"
        out[f"{name}.{count}"] = (row["calls"], "count")
        out[f"{name}.self_s"] = (row["self_s"], "s")

    def ratio(num, den):
        return num / den if den else 0.0

    out["monoids.contains.distinct_ratio"] = (
        ratio(len(tracer.distinct["monoids.contains"]), summary["monoids.contains"]["calls"]),
        "ratio")
    out["formallyreal.chains_per_poly"] = (
        ratio(summary["formallyreal.SturmChain"]["calls"],
              len(tracer.distinct["formallyreal.SturmChain"])), "ratio")
    out["formallyreal.membership_per_theorem"] = (
        ratio(summary["formallyreal.is_sos_membership"]["calls"],
              summary["formallyreal.theorem_skew_hypothesis"]["calls"]), "ratio")
    out["bench.timeouts"] = (sum(o.status == "timeout" for o in outcomes), "count")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}
