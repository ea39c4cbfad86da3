"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every criterion prints exactly one line of the form

    ACCEPTANCE NN: PASS — <label>: <detail>
    ACCEPTANCE NN: FAIL — <label>: <error>

to the real stdout (bypassing pytest capture), so the lines are always
visible in the saved test log.  All comparisons are exact — rational
arithmetic with tolerance zero; the only numeric thresholds are the two
wall-clock budgets, which are part of the contract.
"""

import functools
import itertools
import sys
import time
from fractions import Fraction

import pytest

from monoidorder.cli import default_golden_path, reproduce_document
from monoidorder.core import vdot
from monoidorder.formallyreal import (RationalFunction, RationalPolynomial,
                                      is_sos_membership,
                                      parse_rational_function,
                                      sturm_root_count,
                                      theorem_skew_hypothesis)
from monoidorder.functionals import (normalize_multiplicative,
                                     positive_functionals, span_of_elements,
                                     span_with_products, verify_theorem_main,
                                     weak_implies_strong_audit)
from monoidorder.grothendieck import nabla
from monoidorder.latticeorder import (almost_fring_counterexample,
                                      almost_fring_tensor,
                                      fring_strong_localizability,
                                      is_extended_f_ring)
from monoidorder.localizability import (is_left_localizable,
                                        is_weakly_localizable)
from monoidorder.monoids import (BiadditiveOp, LatticeMonoid,
                                 approx, diagonal_tensor,
                                 enumerate_biadditive_ops, free_monoid,
                                 half_open_half_plane,
                                 half_plane_product_tensor, leq,
                                 matrix_product_op, orthant,
                                 saturating_product_op, truncated_free_monoid)
from monoidorder.reports import render_report

from conftest import (cone_corpus, finite_corpus, lattice_corpus, rational_rank,
                      seeded, weakly_localizable_ops)

# every criterion runs with the Smith form and the simplex made unreachable
pytestmark = pytest.mark.usefixtures("no_smith_form", "no_simplex")


def criterion(num: int, label: str):
    """Wrap a test so it emits exactly one pass/fail line."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {num:02d}: FAIL — {label}: {exc}",
                      file=sys.__stdout__, flush=True)
                raise
            print(f"ACCEPTANCE {num:02d}: PASS — {label}: {detail}",
                  file=sys.__stdout__, flush=True)
        return wrapper
    return decorate


# --------------------------------------------------------------------------
# 1. uniqueness of the unital biadditive operation on truncated powers
# --------------------------------------------------------------------------

@criterion(1, "unital operation on truncated powers is unique and elementwise")
def test_criterion_01_intro_uniqueness():
    budget_s = 60.0
    start = time.monotonic()
    sizes = []
    for coords in (1, 2, 3):
        m = truncated_free_monoid(coords, cap=2)
        unit = m.sum_elements(m.generators())
        ops = enumerate_biadditive_ops(m, unital=unit)
        expected = saturating_product_op(m)
        assert len(ops) == 1, f"{coords} coordinates: {len(ops)} operations"
        assert ops[0].table == expected.table, \
            f"{coords} coordinates: operation is not the elementwise product"
        sizes.append(m.n)
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"took {elapsed:.1f}s (budget {budget_s:.0f}s)"
    return (f"carriers of sizes {sizes} each admit exactly one unital "
            f"operation, the saturating elementwise product, "
            f"in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. half-open half-plane: damped equivalence is first-coordinate equality
# --------------------------------------------------------------------------

@criterion(2, "open-cone damped equivalence matches first-coordinate equality")
def test_criterion_02_open_cone_example():
    doc = reproduce_document("open-cone-approx")
    assert doc["pair_count"] == 50, f"expected 50 pairs, got {doc['pair_count']}"
    disagreements = [p for p in doc["pairs"] if not p["agree"]]
    assert not disagreements, f"{len(disagreements)} disagreeing pairs"
    assert doc["ok"] is True
    # Byte stability: two renders agree with each other and with the golden.
    first = render_report(doc, "json")
    second = render_report(reproduce_document("open-cone-approx"), "json")
    assert first.encode() == second.encode(), "report is not byte-stable"
    golden = default_golden_path("open-cone-approx").read_text(
        encoding="utf-8")
    assert first == golden, "report differs from the packaged golden file"
    return "50/50 sampled pairs agree exactly; report is byte-stable"


# --------------------------------------------------------------------------
# 3. 2x2 matrix product: not weakly localizable, witnesses re-validated
# --------------------------------------------------------------------------

@criterion(3, "matrix product refuted with re-validated witnesses")
def test_criterion_03_matrix_example():
    op = matrix_product_op()
    m = op.carrier
    weak = is_weakly_localizable(op)
    assert weak.verdict == "no", f"weak verdict {weak.verdict!r}"
    swap = (0, 1, 1, 0)
    above = [(0, 1, 1, 0), (1, 1, 1, 0), (0, 1, 1, 1), (1, 1, 1, 1),
             (0, 2, 2, 0)]
    for s in above:
        assert leq(m, swap, s), f"{s} does not dominate the swap matrix"
        verdict = is_left_localizable(op, s)
        assert verdict.verdict == "no", f"{s} unexpectedly localizable"
        x, y = verdict.witness
        damp_x = tuple(p + v for p, v in zip(op.mu(s, x), x))
        damp_y = tuple(p + v for p, v in zip(op.mu(s, y), y))
        assert leq(m, damp_x, damp_y), f"witness for {s}: damped leq fails"
        assert not leq(m, x, y), f"witness for {s}: raw leq holds"
    return ("weak localizability refuted; all 5 matrices above the swap "
            "are non-localizable with independently re-validated witnesses")


# --------------------------------------------------------------------------
# 4. order/equivalence transfer to the reduced difference groups
# --------------------------------------------------------------------------

def _lattice_samples(m, rng, count, coeff_max=3):
    zero = tuple(0 for _ in range(m.dim))
    els = {zero}
    gens = [tuple(g) for g in m.generators]
    for _ in range(count * 20):
        if len(els) >= count:
            break
        coeffs = [rng.randrange(coeff_max + 1) for _ in gens]
        els.add(tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                      for i in range(m.dim)))
    return sorted(els)


def _cone_samples(m, rng, count):
    zero = tuple(Fraction(0) for _ in range(m.dim))
    els = {zero}
    for _ in range(count * 100):
        if len(els) >= count:
            break
        v = tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                  for _ in range(m.dim))
        if m.contains(v):
            els.add(v)
    return sorted(els)


@criterion(4, "canonical order/equivalence transfer to both reductions")
def test_criterion_04_reduction_crosschecks():
    discrepancies = 0
    exhaustive_pairs = 0
    for label, m in finite_corpus():
        assert m.n <= 6, f"{label}: carrier too large for exhaustive sweep"
        red1, red2 = nabla(m, 1), nabla(m, 2)
        for a in range(m.n):
            for b in range(m.n):
                exhaustive_pairs += 1
                if leq(m, a, b) != red1.leq(red1.iota(a), red1.iota(b)):
                    discrepancies += 1
                if approx(m, a, b) != red2.eq(red2.iota(a), red2.iota(b)):
                    discrepancies += 1
    sampled_pairs = 0
    polyhedral = ([(lbl, m, "lattice") for lbl, m in lattice_corpus()]
                  + [(lbl, m, "cone") for lbl, m in cone_corpus()])
    for idx, (label, m, kind) in enumerate(polyhedral):
        rng = seeded(400 + idx)
        els = (_lattice_samples(m, rng, 24) if kind == "lattice"
               else _cone_samples(m, rng, 24))
        red1, red2 = nabla(m, 1), nabla(m, 2)
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(200)]
        for a, b in pairs:
            sampled_pairs += 1
            if leq(m, a, b) != red1.leq(red1.iota(a), red1.iota(b)):
                discrepancies += 1
            if approx(m, a, b) != red2.eq(red2.iota(a), red2.iota(b)):
                discrepancies += 1
    assert discrepancies == 0, f"{discrepancies} transfer discrepancies"
    return (f"{exhaustive_pairs} exhaustive finite pairs and "
            f"{sampled_pairs} sampled polyhedral pairs transfer with "
            f"zero discrepancies")


# --------------------------------------------------------------------------
# 5. the multiplicative identity at extremal functionals (tolerance 0)
# --------------------------------------------------------------------------

def _support_preserving_ops(rng):
    """Elementwise products with random positive weights keep supports."""
    ops = [("free-2", BiadditiveOp(free_monoid(2),
                                   tensor=diagonal_tensor(2, [1, 1])))]
    for dim in (2, 3):
        for _ in range(2):
            weights = [rng.randint(1, 5) for _ in range(dim)]
            ops.append((f"random-{dim}-{weights}",
                        BiadditiveOp(free_monoid(dim),
                                     tensor=diagonal_tensor(dim, weights))))
    return ops


@criterion(5, "extremal functionals satisfy the multiplicative identity")
def test_criterion_05_extremal_identity():
    rng = seeded(500)
    identities = 0
    normalized = 0
    for label, op in _support_preserving_ops(rng):
        dim = op.carrier.dim
        units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
        pool = units + [tuple(1 for _ in range(dim))]
        h = span_with_products(op, pool)
        phis = positive_functionals(h)
        assert phis, f"{label}: no extremal functionals found"
        for phi in phis:
            for s in pool:
                phi_s = phi.value_on_element(s)
                phi_ss = phi.value_on_element(op.mu(s, s))
                if phi_s <= 0 or phi_ss <= 0:
                    continue
                for f in pool:
                    for fp in pool:
                        lhs = phi_s * phi.value_on_element(op.mu(f, fp))
                        rhs = (phi.value_on_element(op.mu(f, s))
                               * phi.value_on_element(fp))
                        assert lhs == rhs, \
                            f"{label}: identity fails at {s}, {f}, {fp}"
                        identities += 1
                res = normalize_multiplicative(op, pool, phi)
                assert res.ok and res.status == "multiplicative", \
                    f"{label}: normalization not multiplicative"
                psi = res.psi
                for f in pool:
                    for fp in pool:
                        assert (psi.value_on_element(op.mu(f, fp))
                                == psi.value_on_element(f)
                                * psi.value_on_element(fp)), \
                            f"{label}: psi not multiplicative at {f}, {fp}"
                normalized += 1
    # The finite saturating product exercises the non-lattice branch.
    m = truncated_free_monoid(1, cap=3)
    op = saturating_product_op(m)
    pool = [0, 1, 2]
    h = span_with_products(op, pool)
    for phi in positive_functionals(h):
        for s in pool:
            if (phi.value_on_element(s) <= 0
                    or phi.value_on_element(op.mu(s, s)) <= 0):
                continue
            for f in pool:
                for fp in pool:
                    lhs = (phi.value_on_element(s)
                           * phi.value_on_element(op.mu(f, fp)))
                    rhs = (phi.value_on_element(op.mu(f, s))
                           * phi.value_on_element(fp))
                    assert lhs == rhs, "finite branch: identity fails"
                    identities += 1
    assert identities > 0 and normalized > 0
    return (f"{identities} exact instances of the identity and "
            f"{normalized} exactly multiplicative normalizations, "
            f"tolerance 0")


# --------------------------------------------------------------------------
# 6. main theorem regression over the weakly-localizable corpus
# --------------------------------------------------------------------------

@criterion(6, "damped commutativity/associativity on the certified corpus")
def test_criterion_06_theorem_regression():
    budget_s = 300.0
    start = time.monotonic()
    corpus = list(weakly_localizable_ops())
    corpus.append(("half-plane", BiadditiveOp(
        half_open_half_plane(), tensor=half_plane_product_tensor())))
    assert len(corpus) >= 20, f"corpus has only {len(corpus)} instances"
    checked_pairs = 0
    checked_triples = 0
    for label, op in corpus:
        result = verify_theorem_main(op)
        assert result["mode"] == "certified", \
            f"{label}: expected a certified run, got {result['mode']!r}"
        assert result["commutativity"]["failures"] == [], \
            f"{label}: damped commutativity failed"
        assert result["associativity"]["failures"] == [], \
            f"{label}: damped associativity failed"
        assert result["ok"] is True, f"{label}: theorem check not ok"
        checked_pairs += result["commutativity"]["checked"]
        checked_triples += result["associativity"]["checked"]
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"took {elapsed:.1f}s (budget {budget_s:.0f}s)"
    return (f"{len(corpus)} certified instances, {checked_pairs} pairs and "
            f"{checked_triples} triples, zero damped failures "
            f"in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 7. f-ring suite and the almost-f-ring counterexample
# --------------------------------------------------------------------------

@criterion(7, "f-ring candidates confirmed; almost-f-ring counterexample")
def test_criterion_07_fring_suite():
    candidates = [
        ("diag-1", BiadditiveOp(orthant(1, "integer"),
                                tensor=diagonal_tensor(1, [2]))),
        ("diag-2", BiadditiveOp(orthant(2, "integer"),
                                tensor=diagonal_tensor(2, [1, 3]))),
        ("diag-2q", BiadditiveOp(orthant(2, "rational"),
                                 tensor=diagonal_tensor(2, [2, 1]))),
        ("diag-3", BiadditiveOp(orthant(3, "integer"),
                                tensor=diagonal_tensor(3, [1, 2, 1]))),
    ]
    confirmed = 0
    for label, cand in candidates:
        cert = is_extended_f_ring(cand)
        assert cert["verdict"] == "yes", f"{label}: not certified as f-ring"
        result = fring_strong_localizability(cand)
        assert result["status"] == "confirmed", f"{label}: {result['status']}"
        assert result["strong"]["confirmed"] == "structural", \
            f"{label}: strong localizability {result['strong']['confirmed']}, not structural"
        assert result["exact_commutativity"] is True, \
            f"{label}: commutativity not exact on the theorem's pool"
        assert result["exact_associativity"] is True, \
            f"{label}: associativity not exact on the theorem's pool"
        assert result["ok"] is True
        confirmed += 1
    almost = almost_fring_counterexample()
    assert almost["ok"] is True, "almost-f-ring reproduction not ok"
    assert almost["commutative"]["failures"] == []
    assert almost["disjoint_products_vanish"]["failures"] == []
    wit = almost["non_associative_witness"]
    cand = BiadditiveOp(orthant(3, "rational"), tensor=almost_fring_tensor())
    a, b, c = (tuple(wit[k]) for k in ("a", "b", "c"))
    left = cand.mu(cand.mu(a, b), c)
    right = cand.mu(a, cand.mu(b, c))
    assert left != right, "witness triple is associative after all"
    assert tuple(left) == tuple(Fraction(v) for v in wit["left"])
    assert tuple(right) == tuple(Fraction(v) for v in wit["right"])
    return (f"{confirmed} f-ring candidates confirmed structurally and exact; "
            f"almost-f-ring witness {list(a)},{list(b)},{list(c)} "
            f"re-validated with commutativity and annihilation intact")


# --------------------------------------------------------------------------
# 8. least refuted shift and exact real-root counting
# --------------------------------------------------------------------------

def _poly(*coeffs) -> RationalPolynomial:
    return RationalPolynomial(list(reversed([Fraction(c) for c in coeffs])))


def _random_function_with_shift(rng):
    """A sum of squares plus a known natural shift, total degree <= 6."""
    num_deg = rng.randint(0, 2)
    g = _poly(*([rng.randint(-2, 2) for _ in range(num_deg)] + [rng.randint(1, 3)]))
    use_denominator = rng.random() < 0.5
    if use_denominator:
        h = _poly(1, 0, rng.randint(1, 3))  # x^2 + positive: no real roots
        base = RationalFunction(g * g, h)
    else:
        base = RationalFunction(g * g, _poly(1))
    shift = rng.randint(0, 3)
    f = base + RationalFunction(_poly(shift), _poly(1))
    return f, shift


@criterion(8, "least refuted shift is minimal; root counts are exact")
def test_criterion_08_formally_real():
    report = theorem_skew_hypothesis(parse_rational_function("x^2"))
    assert report["k"] == 1, f"x^2: least shift {report['k']} != 1"
    witness = Fraction(report["witness"])
    value = Fraction(report["witness_value"])
    assert value < 0, f"x^2: witness value {value} not negative"
    fn = parse_rational_function("x^2")
    shifted = fn - RationalFunction(_poly(1), _poly(1))
    assert shifted.evaluate(witness) == value, "x^2: witness does not recompute"

    rng = seeded(800)
    minimal = 0
    for _ in range(20):
        f, shift = _random_function_with_shift(rng)
        result = theorem_skew_hypothesis(f)
        k = result["k"]
        refuted = f - RationalFunction(_poly(k), _poly(1))
        membership = is_sos_membership(refuted)
        assert membership["member"] is False, "refuted shift is a member"
        w = Fraction(membership["witness"])
        assert refuted.evaluate(w) < 0, "witness not exactly negative"
        if k > 1:
            previous = f - RationalFunction(_poly(k - 1), _poly(1))
            assert is_sos_membership(previous)["member"] is True, \
                "shift is not minimal"
        assert k >= shift + 1, "shift smaller than the planted square offset"
        minimal += 1

    rng = seeded(801)
    matched = 0
    for _ in range(100):
        roots = sorted(set(Fraction(rng.randint(-4, 4),
                                    rng.choice((1, 1, 2)))
                           for _ in range(rng.randint(0, 3))))
        p = _poly(rng.randint(1, 2))
        for r in roots:
            p = p * _poly(1, -r)
        for _ in range(rng.randint(0, 1)):
            # x^2 + cx + d with c^2 < 4d: strictly negative discriminant.
            p = p * _poly(1, rng.randint(-2, 2), rng.randint(2, 4))
        lo = Fraction(rng.randint(-6, -5))
        hi = Fraction(rng.randint(5, 6))
        expected = sum(1 for r in roots if lo < r <= hi)
        got = sturm_root_count(p, lo, hi)
        assert got == expected, \
            f"root count {got} != {expected} for known factorization"
        matched += 1
    return (f"x^2 needs shift 1 with an exactly negative witness; "
            f"{minimal}/20 random functions minimal; "
            f"{matched}/100 root counts match the factorization oracle")


# --------------------------------------------------------------------------
# 9. weak-implies-strong audit across the corpus
# --------------------------------------------------------------------------

@criterion(9, "weak-implies-strong confirmed where it applies, vacuous on "
              "the matrix product")
def test_criterion_09_audit():
    confirmed = []
    for label, op in weakly_localizable_ops():
        if not isinstance(op.carrier, LatticeMonoid):
            continue
        audit = weak_implies_strong_audit(op)
        assert audit["status"] == "confirmed", \
            f"{label}: audit status {audit['status']!r}"
        assert audit["ok"] is True
        confirmed.append(label)
    assert confirmed, "no archimedean directed instances in the corpus"
    audit = weak_implies_strong_audit(matrix_product_op())
    assert audit["status"] == "vacuous", \
        f"matrix audit status {audit['status']!r}"
    assert "not weakly localizable" in audit["reason"], \
        "vacuous audit does not say why"
    return (f"confirmed on {len(confirmed)} archimedean directed instances; "
            f"vacuous on the matrix product and the report says so")


# --------------------------------------------------------------------------
# 10. polyhedral fast paths against double-description oracles
# --------------------------------------------------------------------------

def _primitive(vec):
    from math import gcd
    g = 0
    for v in vec:
        g = gcd(g, abs(int(v)))
    return tuple(int(v) // g for v in vec) if g else tuple(int(v) for v in vec)


def _dual_extreme_rays(gens, dim):
    """Extreme rays of the dual cone, by direct tight-set geometry.

    Valid for full-dimensional primal cones in dimension <= 3: every
    extreme dual ray is tight on dim-1 independent generators, so it is a
    signed perpendicular (dim 2) or cross product (dim 3).
    """
    candidates = set()
    if dim == 1:
        candidates = {(1,), (-1,)}
    elif dim == 2:
        for g in gens:
            candidates.add((g[1], -g[0]))
            candidates.add((-g[1], g[0]))
    else:
        for g1, g2 in itertools.combinations(gens, 2):
            cx = (g1[1] * g2[2] - g1[2] * g2[1],
                  g1[2] * g2[0] - g1[0] * g2[2],
                  g1[0] * g2[1] - g1[1] * g2[0])
            candidates.add(cx)
            candidates.add(tuple(-c for c in cx))
    rays = set()
    for c in candidates:
        if not any(c):
            continue
        if all(vdot(c, g) >= 0 for g in gens):
            tight = [g for g in gens if vdot(c, g) == 0]
            if rational_rank(tight) == dim - 1:
                rays.add(_primitive(c))
    return rays


def _dual_extreme_sweep(rays, rank, box=8):
    """Box sweep for extreme rays of the dual cone, in span coordinates."""
    found = set()
    for c in itertools.product(range(-box, box + 1), repeat=rank):
        if not any(c):
            continue
        if any(vdot(c, r) < 0 for r in rays):
            continue
        tight = [r for r in rays if vdot(c, r) == 0]
        if rational_rank(tight) == rank - 1:
            found.add(_primitive(c))
    return found


_CONE_ORACLES = {
    "half-open-half-plane": (
        lambda y: not any(y) or y[0] > 0,       # member of the open cone
        lambda y: y[0] == 0),                   # mutual closed membership
    "open-quadrant": (
        lambda y: not any(y) or all(v > 0 for v in y),
        lambda y: not any(y)),
    "closed-quadrant": (
        lambda y: all(v >= 0 for v in y),
        lambda y: not any(y)),
}


@criterion(10, "polyhedral fast paths agree with double-description oracles")
def test_criterion_10_oracle_equivalence():
    compared = 0
    lattices = [(lbl, m) for lbl, m in lattice_corpus() if m.dim <= 3]
    assert lattices, "no low-dimensional lattice instances"
    for idx, (label, m) in enumerate(lattices):
        gens = [tuple(g) for g in m.generators]
        assert rational_rank(gens) == m.dim, \
            f"{label}: oracle needs a full-dimensional cone"
        duals = _dual_extreme_rays(gens, m.dim)

        def member(y, duals=duals):
            return all(vdot(c, y) >= 0 for c in duals)

        rng = seeded(1000 + idx)
        els = [e for e in _lattice_samples(m, rng, 40, coeff_max=2)
               if all(-5 <= x <= 5 for x in e)]
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(60)]
        for a, b in pairs:
            diff = tuple(bb - aa for aa, bb in zip(a, b))
            neg = tuple(-d for d in diff)
            assert leq(m, a, b) == member(diff), \
                f"{label}: leq mismatch at {a}, {b}"
            assert leq(m, b, a) == member(neg), \
                f"{label}: reverse leq mismatch at {a}, {b}"
            assert approx(m, a, b) == (member(diff) and member(neg)), \
                f"{label}: approx mismatch at {a}, {b}"
            compared += 3
        # Extremal-ray fast path against the bounded covector sweep.
        h = span_of_elements(m, gens)
        desc = h.describe()
        rays = [tuple(r) for r in desc["positive_rays"]]
        if rational_rank(rays) == desc["rank"]:
            want = _dual_extreme_sweep(rays, desc["rank"])
            got = {_primitive(tuple(Fraction(c)
                                    for c in p.describe()["coefficients"]))
                   for p in positive_functionals(h)}
            assert all(max(abs(v) for v in cov) <= 7 for cov in got), \
                f"{label}: sweep box too small for returned covectors"
            assert got == want, f"{label}: extremal rays {got} != {want}"
            compared += 1
    for idx, (label, m) in enumerate(cone_corpus()):
        member, mutual = _CONE_ORACLES[label]
        rng = seeded(1100 + idx)
        els = _cone_samples(m, rng, 30)
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(60)]
        for a, b in pairs:
            diff = tuple(bb - aa for aa, bb in zip(a, b))
            assert leq(m, a, b) == member(diff), \
                f"{label}: leq mismatch at {a}, {b}"
            assert approx(m, a, b) == mutual(diff), \
                f"{label}: approx mismatch at {a}, {b}"
            compared += 2
    return (f"{compared} fast-path decisions match the independent "
            f"double-description oracles exactly")
