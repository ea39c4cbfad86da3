"""The four seeded workloads.

Each workload turns ``(seed, pass index)`` into a list of plain-data
specs, builds program inputs from them through the public API, runs one
verdict per spec, and checks it against :mod:`oracles`.  ``flip`` returns
a deliberately wrong copy of an answer, which the checker must reject.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INSTANCES = os.path.join(ROOT, "instances")
GOLDENS = os.path.join(ROOT, "src", "monoidorder", "goldens")

REPRODUCE_IDS = ("intro-free-monoid", "open-cone-approx", "matrix-not-localizable",
                 "almost-fring", "rational-function-category")


def _rng(seed: int, index: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{index}")


def _combination(rng, gens, cmax):
    coeffs = [rng.randint(0, cmax) for _ in gens]
    return tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(len(gens[0])))


def _read_generators(name):
    """The [generators] rows of a shipped lattice instance file."""
    rows, inside = [], False
    with open(os.path.join(INSTANCES, name), encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#")[0].strip()
            if line.startswith("["):
                inside = line == "[generators]"
            elif inside and line:
                rows.append(tuple(int(t) for t in line.split()))
    return rows


class Workload:
    name = ""
    limit_s = 0.0          # per-query time limit, enforced with setitimer
    pass_s = 1.0           # nominal seconds per pass; sets the pass count, see README
    min_passes = 1         # enough samples for 10 beyond the tail percentile
    api = ()               # monoidorder modules the workload imports

    def make_pass(self, seed, index):
        raise NotImplementedError

    def build(self, specs):
        """Program inputs for one pass, one per spec, built lazily so that a
        pass never holds more than the current verdict's objects alive."""
        return iter(specs)

    def run(self, item):
        raise NotImplementedError

    def check(self, spec, output):
        raise NotImplementedError

    def flip(self, spec, output):
        raise NotImplementedError

    def failed_without_verdict(self, output) -> bool:
        return False


# ---------------------------------------------------------------------------
# cli-corpus: every subcommand over the shipped instances, in-process


def _inst(name):
    return os.path.join(INSTANCES, name)


# (argv, documented exit code).  Codes follow the README table: 0 answered,
# 1 refuted, 2 refused (a hypothesis fails), 3 input error.
FIXED_COMMANDS = [
    (["grothendieck", _inst(n)], 0) for n in (
        "cyclic-3.mon", "finite-flag.mon", "free-monoid-2.mon", "free-monoid-3.mon",
        "half-open-half-plane.mon", "line-group.mon", "matrix-2x2.mon", "slanted-cone.mon")
] + [
    (["grothendieck", _inst("almost-fring.mon")], 3),
    (["extremals", _inst("slanted-cone.mon"), "--elements", "1,0; 1,2"], 0),
    (["extremals", _inst("line-group.mon"), "--elements", "1; -1"], 0),
    (["extremals", _inst("free-monoid-2.mon"), "--elements", "1,0; 0,1"], 0),
    (["extremals", _inst("free-monoid-3.mon"), "--elements", "1,0,0; 0,1,1"], 0),
    (["extremals", _inst("half-open-half-plane.mon"), "--elements", "1,0; 1,1"], 0),
    (["extremals", _inst("matrix-2x2.mon"), "--elements", "1,0,0,0; 0,1,0,0"], 0),
    (["extremals", _inst("cyclic-3.mon"), "--elements", "a; b"], 0),
    (["localizable", _inst("matrix-2x2.mon"), "0,1,1,0"], 1),
    (["localizable", _inst("matrix-2x2.mon"), "1,0,0,1"], 0),
    (["localizable", _inst("matrix-2x2.mon"), "--weak"], 1),
    (["localizable", _inst("free-monoid-3.mon"), "--weak"], 0),
    (["localizable", _inst("free-monoid-3.mon"), "--strong"], 0),
    (["localizable", _inst("free-monoid-2.mon"), "1,1"], 0),
    (["localizable", _inst("free-monoid-2.mon")], 3),
    (["localizable", _inst("cyclic-3.mon"), "--weak"], 0),
    (["localizable", _inst("finite-flag.mon"), "--weak"], 0),
    (["localizable", _inst("half-open-half-plane.mon"), "--weak"], 0),
    (["verify", _inst("free-monoid-3.mon"), "--main"], 0),
    (["verify", _inst("free-monoid-2.mon"), "--main"], 0),
    (["verify", _inst("cyclic-3.mon"), "--main"], 0),
    (["verify", _inst("matrix-2x2.mon"), "--main"], 2),
    (["verify", _inst("fring-weighted-2.mon"), "--fring"], 0),
    (["verify", _inst("fring-elementwise-3.mon"), "--fring"], 0),
    (["verify", _inst("almost-fring.mon"), "--fring"], 2),
    (["verify", _inst("free-monoid-2.mon"), "--fring"], 3),
    (["verify", _inst("free-monoid-3.mon"), "--orderunit", "--element", "1,1,1"], 0),
    (["verify", _inst("half-open-half-plane.mon"), "--orderunit", "--element", "1,0"], 0),
    (["verify", _inst("free-monoid-3.mon"), "--weak-strong"], 0),
    (["verify", _inst("matrix-2x2.mon"), "--weak-strong"], 0),
    (["verify", _inst("finite-flag.mon"), "--weak-strong"], 2),
    (["sos", "x"], 1),
    (["sos", "--categorize", "Q(x)"], 0),
] + [(["reproduce", rid], 0) for rid in REPRODUCE_IDS]

LATTICE_ORDER_INSTANCES = ("free-monoid-2.mon", "free-monoid-3.mon", "matrix-2x2.mon",
                           "slanted-cone.mon", "line-group.mon")
FINITE_NAMES = {"cyclic-3.mon": ("z", "a", "b"), "finite-flag.mon": ("o", "t")}


def _expression(name):
    with open(os.path.join(INSTANCES, name), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("expression:"):
                return line.split(":", 1)[1].strip()
    raise ValueError(f"{name} has no expression header")


def _vec_text(v):
    return ",".join(str(x) for x in v)


class CliCorpus(Workload):
    """The interactive user: broad and shallow, no dominant kernel."""

    name = "cli-corpus"
    limit_s = 60.0
    pass_s = 2.5
    api = ("monoidorder.cli", "monoidorder.instancefile", "monoidorder.formallyreal")

    def __init__(self):
        self._gens = {n: _read_generators(n) for n in LATTICE_ORDER_INSTANCES}
        self._rays = {n: oracles.dual_extreme_rays(g, len(g[0])) for n, g in self._gens.items()}
        self._goldens = {}
        for rid in REPRODUCE_IDS:
            with open(os.path.join(GOLDENS, f"{rid}.json"), "rb") as fh:
                self._goldens[rid] = fh.read()
        self._expr = _expression("rational-function.mon")

    def make_pass(self, seed, index):
        """Fixed commands plus seeded order queries, in a seeded order."""
        rng = _rng(seed, index, self.name)
        specs = [{"argv": argv, "code": code} for argv, code in FIXED_COMMANDS]
        for name in LATTICE_ORDER_INSTANCES:
            gens = self._gens[name]
            a, b = _combination(rng, gens, 2), _combination(rng, gens, 2)
            specs.append({"argv": ["order", _inst(name), _vec_text(a), _vec_text(b)],
                          "code": 0, "order": (name, a, b)})
        xs = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2))
        pts = [(rng.choice(xs), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
               for _ in range(2)]
        specs.append({"argv": ["order", _inst("half-open-half-plane.mon"),
                               _vec_text(pts[0]), _vec_text(pts[1])],
                      "code": 0, "order": ("half-open-half-plane.mon", pts[0], pts[1])})
        for name, names in FINITE_NAMES.items():
            specs.append({"argv": ["order", _inst(name), rng.choice(names), rng.choice(names)],
                          "code": 0})
        specs.append({"argv": ["sos", self._expr], "code": 0})
        specs.append({"argv": ["sos", self._expr, "--theorem"], "code": 0})
        rng.shuffle(specs)
        return specs

    def build(self, specs):
        """Commands parse their own files; parsing every shipped instance
        here is the set-up a user's first query needs."""
        from monoidorder.formallyreal import parse_rational_function
        from monoidorder.instancefile import load_instance
        for name in sorted(os.listdir(INSTANCES)):
            load_instance(_inst(name))
        parse_rational_function(self._expr)
        return iter(specs)

    def run(self, spec):
        from monoidorder import cli
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(spec["argv"]))
            except SystemExit as exc:
                code = exc.code
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def failed_without_verdict(self, output):
        return output["code"] == 4 or "Traceback" in output["stderr"]

    def check(self, spec, output):
        if output["code"] != spec["code"]:
            return f"exit {output['code']} != documented {spec['code']}"
        if output["code"] == 3:
            return None if output["stdout"] == "" else "input error wrote a report"
        try:
            doc = json.loads(output["stdout"])
        except ValueError:
            return "stdout is not JSON"
        argv = spec["argv"]
        if doc.get("command") != argv[0] and argv[0] != "reproduce":
            return f"report command {doc.get('command')!r} != {argv[0]!r}"
        if argv[0] == "reproduce":
            return oracles.check_golden(output["stdout"], self._goldens[argv[1]])
        if "order" in spec:
            name, a, b = spec["order"]
            if name == "half-open-half-plane.mon":
                want = oracles.half_plane_answer
            else:
                def want(x, y, rel, rays=self._rays[name]):
                    return oracles.order_answer(rays, x, y, rel)
            got = (doc["leq_ab"], doc["leq_ba"], doc["approx"])
            if got != (want(a, b, "leq"), want(b, a, "leq"), want(a, b, "approx")):
                return f"order verdict {got} disagrees with the cone oracle"
        return None

    def flip(self, spec, output):
        flipped = dict(output)
        if spec["argv"][0] == "reproduce":
            flipped["stdout"] = output["stdout"].replace("true", "false", 1)
        else:
            flipped["code"] = {0: 1, 1: 0, 2: 0, 3: 0}[output["code"]]
        return flipped


# ---------------------------------------------------------------------------
# theorem-corpus: verify_theorem_main on the certified corpus


def _corpus_specs():
    """The operations of tests/conftest.weakly_localizable_ops, as data."""
    specs = []
    for cap in (1, 2):
        for coords in (1, 2):
            specs.append(("saturating", coords, cap))
    specs += [("cyclic", k) for k in (2, 3, 5, 7)]
    specs += [("flag-meet",), ("flag-zero",)]
    specs += [("elementwise", d) for d in (1, 2, 3, 4)]
    specs += [("diagonal", 2, (2, 3)), ("diagonal", 3, (1, 2, 1)), ("diagonal", 3, (5, 1, 4))]
    specs += [("zero-op", 2), ("zero-op", 3), ("saturating", 3, 1)]
    return specs


class TheoremCorpus(Workload):
    """Heavy, repetitive membership: contains is called on few distinct points."""

    name = "theorem-corpus"
    limit_s = 120.0
    pass_s = 13.0
    min_passes = 2
    api = ("monoidorder.monoids", "monoidorder.functionals")
    # Two-dimensional random products sit between the median and the tail
    # rank, three-dimensional ones above the tail rank (see README).  With
    # weights from 1, a three-dimensional product such as (1, 1, 1) is
    # cheaper than the corpus's (1, 2, 1) and the tail sample would move
    # with the seed.
    random_dims = (2, 2, 3, 3)
    random_weights = (2, 5)

    def make_pass(self, seed, index):
        rng = _rng(seed, index, self.name)
        specs = _corpus_specs()
        specs += [("diagonal", d, tuple(rng.randint(*self.random_weights) for _ in range(d)))
                  for d in self.random_dims]
        specs.append(("matrix",))
        rng.shuffle(specs)
        return specs

    def build(self, specs):
        from monoidorder import monoids as mo
        for spec in specs:
            kind = spec[0]
            if kind == "saturating":
                op = mo.saturating_product_op(mo.truncated_free_monoid(spec[1], cap=spec[2]))
            elif kind == "cyclic":
                op = mo.cyclic_product_op(spec[1])
            elif kind in ("flag-meet", "flag-zero"):
                flag = mo.FiniteMonoid([[0, 1], [1, 1]], names=["o", "t"])
                table = [[0, 0], [0, 1]] if kind == "flag-meet" else [[0, 0], [0, 0]]
                op = mo.BiadditiveOp(flag, table=table)
            elif kind == "elementwise":
                op = mo.elementwise_product_op(mo.free_monoid(spec[1]))
            elif kind == "diagonal":
                op = mo.BiadditiveOp(mo.free_monoid(spec[1]),
                                     tensor=mo.diagonal_tensor(spec[1], list(spec[2])))
            elif kind == "zero-op":
                d = spec[1]
                zero = tuple(tuple(tuple(0 for _ in range(d)) for _ in range(d))
                             for _ in range(d))
                op = mo.BiadditiveOp(mo.free_monoid(d), tensor=zero)
            else:
                op = mo.matrix_product_op()
            yield op

    def run(self, op):
        from monoidorder import functionals
        return functionals.verify_theorem_main(op)

    def check(self, spec, out):
        """Weakly localizable corpus operations are certified and pass; the
        matrix product is not weakly localizable, so it runs in observation
        mode and fails exact commutativity (E11*E12 != E12*E11)."""
        matrix = spec[0] == "matrix"
        want = ("observation", False) if matrix else ("certified", True)
        if (out["mode"], out["ok"]) != want:
            return f"mode/ok {(out['mode'], out['ok'])} != {want}"
        n = out["pool_size"]
        comm, assoc = out["commutativity"], out["associativity"]
        if (comm["checked"], assoc["checked"]) != (n * n, n ** 3):
            return "sweep sizes do not match the pool"
        if assoc["exact_equality_failures"] != 0:
            return "an associative product failed exact associativity"
        if (comm["exact_equality_failures"] > 0) != matrix:
            return "exact commutativity failures disagree with the product"
        if not matrix and (comm["failures"] or assoc["failures"]):
            return "damped failures on a certified operation"
        return None

    def flip(self, spec, out):
        return dict(out, ok=not out["ok"])


# ---------------------------------------------------------------------------
# order-fresh: leq/approx on fresh random lattice monoids


class OrderFresh(Workload):
    """Same membership layer as theorem-corpus, with almost no reuse."""

    name = "order-fresh"
    limit_s = 2.0
    pass_s = 1.0
    api = ("monoidorder.monoids",)
    monoids_per_pass = 500
    queries_per_monoid = 2

    def __init__(self):
        self._rays = (None, None)  # the last monoid's oracle; its queries are adjacent

    def make_pass(self, seed, index):
        rng = _rng(seed, index, self.name)
        specs = []
        for i in range(self.monoids_per_pass):
            # every (dimension, generator count) shape equally often
            dim, n = (2, 3)[i % 2], (3, 4, 5)[i // 2 % 3]
            while True:
                gens = tuple(tuple(rng.randint(-1, 1) for _ in range(dim)) for _ in range(n))
                if all(any(g) for g in gens) and oracles.rank(gens) == dim:
                    break
            for _ in range(self.queries_per_monoid):
                specs.append({"monoid": i, "dim": dim, "gens": gens,
                              "a": _combination(rng, gens, 2), "b": _combination(rng, gens, 2),
                              "relation": rng.choice(("leq", "approx"))})
        return specs

    def build(self, specs):
        from monoidorder.monoids import LatticeMonoid
        current, m = None, None
        for spec in specs:  # the queries on one monoid are adjacent
            if spec["monoid"] != current:
                current, m = spec["monoid"], LatticeMonoid(spec["dim"], spec["gens"])
            yield m, spec

    def run(self, item):
        from monoidorder import monoids
        m, spec = item
        fn = monoids.leq if spec["relation"] == "leq" else monoids.approx
        return fn(m, spec["a"], spec["b"])

    def check(self, spec, out):
        gens = spec["gens"]
        if self._rays[0] != gens:
            self._rays = (gens, oracles.dual_extreme_rays(gens, spec["dim"]))
        want = oracles.order_answer(self._rays[1], spec["a"], spec["b"], spec["relation"])
        return None if out == want else f"{spec['relation']} gave {out}, oracle {want}"

    def flip(self, spec, out):
        return not out


# ---------------------------------------------------------------------------
# sos-shift: least refuted shift of planted rational functions


def _poly_text(coeffs):
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if i == 0 else (f"x^{i}" if mag == 1 else f"{mag}*x^{i}")
        terms.append(("-" if c < 0 else "+") + body)
    text = "".join(terms) or "0"
    return text[1:] if text[0] == "+" else text


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class SosShift(Workload):
    """f = p^2/(q^2+1) + s with p(b/a) = 0, so the least refuted shift is s+1."""

    name = "sos-shift"
    limit_s = 60.0
    pass_s = 2.1
    api = ("monoidorder.formallyreal",)
    # One item per shape.  High-degree items (degree of the cofactor r in
    # p = (a x - b) r, degree of q, planted shift s) weigh on the Sturm
    # machinery: f has degree 2 * max(deg p, deg q) <= 12.  Low-degree items
    # p = x - b with a large s weigh on the linear k-scan.  The seed moves
    # coefficients and roots; shapes and shifts are fixed, since the scan
    # costs s + 1 memberships and would otherwise dominate the spread.
    high_shapes = ((2, 1, 3), (3, 2, 2), (4, 3, 1), (5, 2, 2), (2, 3, 4), (3, 1, 3))
    low_shifts = (120, 160, 200, 240)

    def make_pass(self, seed, index):
        rng = _rng(seed, index, self.name)
        specs = []
        for rdeg, qdeg, shift in self.high_shapes:
            a, b = rng.randint(1, 3), rng.randint(-4, 4)
            r = [rng.randint(-3, 3) for _ in range(rdeg)] + [rng.choice((-2, -1, 1, 2))]
            q = [rng.randint(-3, 3) for _ in range(qdeg)] + [rng.choice((-2, -1, 1, 2))]
            specs.append({"p": _poly_mul([-b, a], r), "q": q, "s": shift})
        for shift in self.low_shifts:
            specs.append({"p": [-rng.randint(-5, 5), 1], "q": [0], "s": shift})
        rng.shuffle(specs)
        for spec in specs:
            p, q = _poly_text(spec["p"]), _poly_text(spec["q"])
            spec["text"] = (f"({p})^2+{spec['s']}" if spec["q"] == [0]
                            else f"({p})^2/(({q})^2+1)+{spec['s']}")
        return specs

    def build(self, specs):
        from monoidorder.formallyreal import parse_rational_function
        return (parse_rational_function(spec["text"]) for spec in specs)

    def run(self, f):
        from monoidorder import formallyreal
        return formallyreal.theorem_skew_hypothesis(f)

    def check(self, spec, out):
        return oracles.check_shift(spec["p"], spec["q"], spec["s"], out)

    def flip(self, spec, out):
        return dict(out, k=out["k"] + 1)


WORKLOADS = {w.name: w for w in (CliCorpus, TheoremCorpus, OrderFresh, SosShift)}
