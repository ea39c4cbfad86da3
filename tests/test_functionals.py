"""Positive functionals on spanned subgroups and theorem-level verdicts."""

import itertools
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional, Sequence

import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from monoidorder import localizability
from monoidorder.core import InputError, InternalCheckError, vcombine, vdot, vneg, vsub
from monoidorder.exactmath import RationalCone, int_adjugate
from monoidorder.functionals import (AdditiveFunctional, NormalizationResult,
                                     OrderedSubgroup, _certify_decomposition,
                                     _largest_element, normalize_multiplicative,
                                     positive_functionals,
                                     span_of_elements, span_with_products,
                                     verify_theorem_main,
                                     weak_implies_strong_audit)
from monoidorder.instancefile import load_instance
from monoidorder.latticeorder import almost_fring_tensor
from monoidorder.localizability import is_left_localizable, is_weakly_localizable
from monoidorder.monoids import (BiadditiveOp, FiniteMonoid, LatticeMonoid,
                                 OpenConeMonoid, approx, cyclic_product_op,
                                 elementwise_product_op, enumerate_biadditive_ops,
                                 free_monoid,
                                 half_open_half_plane,
                                 saturating_product_op, truncated_free_monoid)
from monoidorder.monoids import matrix_product_op as matrix_monoid_product_op

from conftest import (calls_of, instance_path, monogenic_table, opposite_op,
                      oracle_int_det, product_table, rational_rank, seeded,
                      weakly_localizable_ops)


def elementwise_op(dim, weights=None):
    m = free_monoid(dim)
    t = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        t[i][i][i] = 1 if weights is None else weights[i]
    return BiadditiveOp(m, tensor=t)


def matrix_product_op():
    m = free_monoid(4)
    t = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                t[2 * i + j][2 * j + k][2 * i + k] += 1
    return BiadditiveOp(m, tensor=t)


def half_plane_op():
    hp = half_open_half_plane()
    t = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    t[0][0][0] = 1
    t[0][1][1] = 1
    return BiadditiveOp(hp, tensor=t)


def _primitive(vec):
    g = 0
    for v in vec:
        g = abs(int(v)) if g == 0 else _gcd(g, abs(int(v)))
    return tuple(int(v) // g for v in vec) if g else tuple(int(v) for v in vec)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _coeff_vector(phi):
    return tuple(Fraction(c) for c in phi.describe()["coefficients"])


def _dual_extreme_oracle(positive_rays, rank, box=6):
    """Integer sweep for extreme rays of the dual cone of a full-dim cone."""
    found = set()
    for c in itertools.product(range(-box, box + 1), repeat=rank):
        if not any(c):
            continue
        if any(vdot(c, r) < 0 for r in positive_rays):
            continue
        tight = [r for r in positive_rays if vdot(c, r) == 0]
        if rational_rank(tight) != rank - 1:
            continue
        found.add(_primitive(c))
    return found


# ---------------------------------------------------------------------------
# extremal functionals against a brute-force dual-cone sweep


@pytest.mark.parametrize("label,h", [
    ("orthant-2", span_with_products(elementwise_op(2),
                                     [(1, 0), (0, 1), (1, 1)])),
    ("orthant-3", span_of_elements(free_monoid(3),
                                   [(1, 0, 0), (0, 1, 0), (0, 0, 1)])),
    ("slanted", span_of_elements(LatticeMonoid(2, [(1, 0), (1, 2)]),
                                 [(1, 0), (1, 2)])),
])
def test_extremal_functionals_match_dual_sweep(label, h):
    desc = h.describe()
    rays = [tuple(r) for r in desc["positive_rays"]]
    assert rational_rank(rays) == desc["rank"], "oracle needs a full-dim cone"
    want = _dual_extreme_oracle(rays, desc["rank"])
    phis = positive_functionals(h)
    got = {_primitive(_coeff_vector(p)) for p in phis}
    assert got == want
    assert all(p.extremal for p in phis)


@pytest.mark.parametrize("h", [
    span_of_elements(free_monoid(3), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    span_of_elements(LatticeMonoid(2, [(1, 0), (1, 2)]), [(1, 0), (1, 2)]),
    span_of_elements(half_open_half_plane(), [(1, 0), (1, 1)]),
], ids=["orthant-3", "slanted", "half-plane"])
def test_a_dual_missing_one_ray_fails_the_decomposition_check(h):
    dual = h.positive_cone.dual()
    rays, lin = list(dual.extreme_rays), list(dual.lineality_basis)
    _certify_decomposition(h, rays, lin)
    for i in range(len(rays)):
        with pytest.raises(InternalCheckError, match="escaped the computed dual cone"):
            _certify_decomposition(h, rays[:i] + rays[i + 1:], lin)


def test_degenerate_span_has_no_extremals():
    m = LatticeMonoid(1, [(1,), (-1,)])
    h = span_of_elements(m, [(1,), (-1,)])
    assert positive_functionals(h) == []


def test_degenerate_normalization_on_a_finite_carrier_shows_int_elements():
    # a finite carrier's elements are ints, shown in the checks as they are
    op = cyclic_product_op(3)
    zero = AdditiveFunctional(span_with_products(op, [1, 2]), ())
    res = normalize_multiplicative(op, [1, 2], zero)
    assert res.status == "degenerate"
    checks = res.as_dict()["degenerate_checks"]
    assert [c["at"] for c in checks] == [1, 2, 1, 2, 2, 1]
    assert all(c["ok"] and c["value"] == "0" for c in checks)


def test_functional_values_on_spec_example():
    op = elementwise_op(2)
    els = [(1, 0), (0, 1), (1, 1)]
    h = span_with_products(op, els)
    values = sorted(tuple(p.value_on_element(e) for e in els)
                    for p in positive_functionals(h))
    assert values == [(0, 1, 1), (1, 0, 1)]


# ---------------------------------------------------------------------------
# the multiplicative identity at extremal functionals (exact, tolerance zero)


# The identity report as the library built it before normalization
# decided the identity itself; the oracle of the normalization tests below.
def check_mult_identity(op: BiadditiveOp, elements: Sequence,
                        phi: AdditiveFunctional,
                        subgroup: Optional[OrderedSubgroup] = None) -> dict:
    """Exactness report for ``phi(s) phi(mu(f,f')) = phi(mu(f,s)) phi(f')``.

    ``s`` is the order-largest member of ``elements``; the identity is a
    theorem whenever ``s`` damps positivity from the left, every element
    sits below ``s``, and ``phi`` is extremal with positive values at ``s``
    and at ``mu(s,s)`` — so any reported violation is a bug detector, and
    precondition failures are reported separately from violations.
    """
    m = op.carrier
    elements = list(elements)
    if subgroup is None:
        subgroup = span_with_products(op, elements)
    preconditions = []
    s = _largest_element(m, elements)
    if s is None:
        preconditions.append({
            "name": "largest-element", "ok": False,
            "detail": "no member dominates every other"})
        return {"status": "precondition-failed", "ok": False,
                "preconditions": preconditions, "violations": [],
                "checked_pairs": 0, "largest": None}
    preconditions.append({"name": "largest-element", "ok": True,
                          "detail": f"largest member {tuple(s)!r}"})
    loc = is_left_localizable(op, s)
    preconditions.append({
        "name": "left-damping", "ok": loc.verdict == "yes",
        "detail": f"is_left_localizable: {loc.verdict}"})
    try:
        phi_s = phi.value_on_element(s)
        phi_ss = phi.value_on_element(op.mu(s, s))
    except InputError as exc:
        preconditions.append({"name": "functional-domain", "ok": False,
                              "detail": str(exc)})
        return {"status": "precondition-failed", "ok": False,
                "preconditions": preconditions, "violations": [],
                "checked_pairs": 0, "largest": tuple(s)}
    preconditions.append({"name": "positive-at-largest", "ok": phi_s > 0,
                          "detail": f"phi(s) = {phi_s}"})
    preconditions.append({"name": "positive-at-largest-square", "ok": phi_ss > 0,
                          "detail": f"phi(mu(s,s)) = {phi_ss}"})
    if not all(p["ok"] for p in preconditions):
        return {"status": "precondition-failed", "ok": False,
                "preconditions": preconditions, "violations": [],
                "checked_pairs": 0, "largest": tuple(s)}
    violations = []
    checked = 0
    for f in elements:
        phi_fs = phi.value_on_element(op.mu(f, s))
        for fp in elements:
            lhs = phi_s * phi.value_on_element(op.mu(f, fp))
            rhs = phi_fs * phi.value_on_element(fp)
            checked += 1
            if lhs != rhs:
                violations.append({"f": tuple(f), "f_prime": tuple(fp),
                                   "lhs": str(lhs), "rhs": str(rhs)})
    status = "identity-holds" if not violations else "identity-violated"
    return {"status": status, "ok": not violations,
            "preconditions": preconditions, "violations": violations,
            "checked_pairs": checked, "largest": tuple(s)}


def _composed_normalization(op, elements, phi):
    """The normalization report composed from the oracle's reports on the
    operation and on its opposite, as the library built it before; a
    raised error is returned as its type and message."""
    m = op.carrier
    elements = list(elements)
    try:
        s = _largest_element(m, elements)
        if s is None:
            return NormalizationResult(
                status="precondition-failed", psi=None, factor=None,
                reason="no member dominates every other").as_dict()
        phi_s = phi.value_on_element(s)
        if phi_s == 0:
            checks = []
            ok = True
            for f in elements:
                v = phi.value_on_element(f)
                checks.append({"at": tuple(f), "value": str(v), "ok": v == 0})
                ok = ok and v == 0
            for f in elements:
                for fp in elements:
                    p = op.mu(f, fp)
                    v = phi.value_on_element(p)
                    checks.append({"at": tuple(p), "value": str(v), "ok": v == 0})
                    ok = ok and v == 0
            if not ok:
                raise InternalCheckError(
                    "functional vanishes at the top element but not below it")
            return NormalizationResult(
                status="degenerate", psi=None, factor=None,
                degenerate_checks=checks,
                reason="functional vanishes at the largest element, "
                       "hence on every generator and product").as_dict()
        report_fwd = check_mult_identity(op, elements, phi)
        report_op = check_mult_identity(opposite_op(op), elements, phi)
        preconditions = [
            {"name": "identity", "ok": report_fwd["ok"], "detail": report_fwd["status"]},
            {"name": "identity-opposite", "ok": report_op["ok"],
             "detail": report_op["status"]},
        ]
        if "precondition-failed" in (report_fwd["status"], report_op["status"]):
            return NormalizationResult(
                status="precondition-failed", psi=None, factor=None,
                preconditions=preconditions,
                reason="the quadratic identity could not even be posed").as_dict()
        phi_ss = phi.value_on_element(op.mu(s, s))
        factor = phi_ss / (phi_s * phi_s)
        psi = phi.scaled(factor)
        failures = []
        for f in elements:
            for fp in elements:
                left = psi.value_on_element(op.mu(f, fp))
                right = psi.value_on_element(f) * psi.value_on_element(fp)
                if left != right:
                    failures.append({"f": tuple(f), "f_prime": tuple(fp),
                                     "psi_product": str(left),
                                     "value_product": str(right)})
        identity_ok = report_fwd["ok"] and report_op["ok"]
        if failures or not identity_ok:
            if identity_ok and phi.extremal:
                raise InternalCheckError(
                    "extremal functional with verified identity fails "
                    "multiplicativity after rescaling")
            return NormalizationResult(
                status="not-multiplicative", psi=psi, factor=factor,
                failures=failures, preconditions=preconditions,
                reason="the input functional is not extremal: "
                       + ("the rescaled functional fails multiplicativity"
                          if identity_ok else
                          "the quadratic identity already fails for it")).as_dict()
        return NormalizationResult(status="multiplicative", psi=psi, factor=factor,
                                   preconditions=preconditions).as_dict()
    except (InputError, InternalCheckError) as exc:
        return type(exc), str(exc)


def _normalization(op, elements, phi):
    try:
        return normalize_multiplicative(op, elements, phi).as_dict()
    except (InputError, InternalCheckError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("op,els", [
    (elementwise_op(2), [(1, 0), (0, 1), (1, 1)]),
    (elementwise_op(3), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    (elementwise_op(2, weights=[2, 3]), [(1, 0), (0, 1), (1, 1)]),
    (saturating_product_op(truncated_free_monoid(1, cap=2)), [0, 1, 2]),
])
def test_extremal_identity_exact(op, els):
    h = span_with_products(op, els)
    for phi in positive_functionals(h):
        report = check_mult_identity(op, els, phi)
        assert report["ok"] and report["status"] == "identity-holds"
        assert report["violations"] == []
        s = report["largest"]
        for f in els:
            for fp in els:
                lhs = phi.value_on_element(s) * phi.value_on_element(op.mu(f, fp))
                rhs = phi.value_on_element(op.mu(f, s)) * phi.value_on_element(fp)
                assert lhs == rhs  # Fractions: exact equality


def test_identity_is_scale_invariant():
    op = elementwise_op(2)
    els = [(1, 0), (0, 1), (1, 1)]
    h = span_with_products(op, els)
    for phi in positive_functionals(h):
        for factor in (Fraction(3, 2), Fraction(7), Fraction(1, 5)):
            assert check_mult_identity(op, els, phi.scaled(factor))["ok"]


def test_normalized_functional_is_exactly_multiplicative():
    op = elementwise_op(2)
    els = [(1, 0), (0, 1), (1, 1)]
    h = span_with_products(op, els)
    for phi in positive_functionals(h):
        for factor in (Fraction(1), Fraction(5, 3)):
            res = normalize_multiplicative(op, els, phi.scaled(factor))
            assert res.ok and res.status == "multiplicative"
            psi = res.psi
            for f in els:
                for fp in els:
                    assert (psi.value_on_element(op.mu(f, fp))
                            == psi.value_on_element(f) * psi.value_on_element(fp))


# d <= 3; an extra generator beside the unit vectors (its first d entries,
# none when they are all zero); the tensor (its first d^3 entries); one to
# three elements as coefficients on the generators; whether to append the
# elements' sum, which dominates every element
normalization_cases = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.lists(st.integers(min_value=-1, max_value=2), min_size=3, max_size=3),
    st.lists(st.integers(min_value=0, max_value=2), min_size=27, max_size=27),
    st.lists(st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
             min_size=1, max_size=3),
    st.booleans())


def _lattice_case(case):
    """The operation and the elements of a drawn case; None when the
    operation is not closed on its lattice."""
    d, extra, flat, coeffs, with_sum = case
    gens = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    if any(extra[:d]):
        gens.append(tuple(extra[:d]))
    tensor = [[flat[d * (d * i + j):d * (d * i + j) + d] for j in range(d)]
              for i in range(d)]
    op = BiadditiveOp(LatticeMonoid(d, gens), tensor=tensor)
    if op.validate():
        return None
    elements = [tuple(sum(c * g[k] for c, g in zip(row, gens)) for k in range(d))
                for row in coeffs]
    if with_sum:
        elements.append(tuple(map(sum, zip(*elements))))
    return op, elements


@settings(max_examples=300, deadline=None)
@given(normalization_cases)
# on N^2: mu(e0, e1) = e0 breaks only the identity, at phi = the first
# coordinate, and mu(e0, e1) = e1 with mu(e1, e0) = e0 only its opposite
@example((2, [0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0] + [0] * 19, [[1, 1, 0, 0]], False))
@example((2, [0, 0, 0], [0, 0, 0, 1, 1, 0, 0, 0] + [0] * 19, [[1, 1, 0, 0]], False))
def test_normalization_matches_the_composed_identity_reports(case):
    built = _lattice_case(case)
    assume(built is not None)
    op, elements = built
    h = span_with_products(op, elements)
    phis = positive_functionals(h)
    if len(phis) > 1:  # a positive functional that is not extremal
        phis.append(AdditiveFunctional(h, tuple(map(sum, zip(*(p.coefficients
                                                               for p in phis))))))
    for phi in phis:
        want = _composed_normalization(op, elements, phi)
        got = _normalization(op, elements, phi)
        if got != want:
            # vanishing at s but not on a product is no internal error
            assert want == (InternalCheckError, "functional vanishes at the "
                            "top element but not below it")
            checks = got["degenerate_checks"]
            assert got["status"] == "precondition-failed"
            assert all(c["ok"] for c in checks[:len(elements)])
            assert not all(c["ok"] for c in checks)


# ---------------------------------------------------------------------------
# multiple-or-separating-functional dichotomy: a nonzero extremal functional
# that is not smaller at b than at a, or b - a in the positivity cone


def _separating(h, a, b) -> list:
    ca, cb = h.coordinates(a), h.coordinates(b)
    return [phi for phi in positive_functionals(h)
            if any(phi.coefficients)
            and phi.value_on_coordinates(ca) >= phi.value_on_coordinates(cb)]


def test_positivstellensatz_multiple_certificate():
    h = span_with_products(elementwise_op(2), [(1, 0), (0, 1), (1, 1)])
    assert _separating(h, (1, 1), (3, 2)) == []
    assert h.positive_cone.member(vsub(h.coordinates((3, 2)), h.coordinates((1, 1))))


def test_positivstellensatz_separating_functional():
    h = span_with_products(elementwise_op(2), [(1, 0), (0, 1), (1, 1)])
    assert _separating(h, (1, 0), (2, 0))


def test_positivstellensatz_dichotomy_sampled():
    h = span_with_products(elementwise_op(2), [(1, 0), (0, 1), (1, 1)])
    pool = [(x, y) for x in range(4) for y in range(4)]
    for a in pool:
        for b in pool:
            if not _separating(h, a, b):
                assert h.positive_cone.member(
                    vsub(h.coordinates(b), h.coordinates(a)))


def test_positivstellensatz_finite_collapsed_order():
    # torsion classes carry no nonzero functional, and a finite group's
    # reduction is trivial, so the order already holds with k = 1
    c3 = FiniteMonoid([[(i + j) % 3 for j in range(3)] for i in range(3)])
    h = span_of_elements(c3, [1])
    assert h.rank == 0 and positive_functionals(h) == []
    assert h.reduction.leq(h.class_of(1), h.class_of(2))


def test_positivstellensatz_rejects_outside_classes():
    h = span_of_elements(free_monoid(2), [(1, 0)])
    assert h.coordinates((1, 0)) is not None
    assert h.coordinates((0, 1)) is None


# ---------------------------------------------------------------------------
# subgroup plumbing


def test_subgroup_coordinate_roundtrip():
    h = span_of_elements(LatticeMonoid(2, [(1, 0), (1, 2)]), [(1, 0), (1, 2)])
    for e in [(1, 0), (1, 2), (2, 2), (3, 4)]:
        cls = h.class_of(e)
        coords = h.coordinates(cls)
        assert coords is not None
        assert h.class_from_coordinates(coords) == cls
    with pytest.raises(InputError):
        h.class_of((0, 1))  # outside the difference lattice


def test_subgroup_coordinates_none_outside_proper_span():
    h = span_of_elements(free_monoid(2), [(2, 0)])
    assert h.coordinates(h.class_of((2, 0))) is not None
    assert h.coordinates(h.class_of((1, 0))) is None
    assert h.coordinates(h.class_of((0, 1))) is None


def test_member_positive_matches_functional_signs():
    h = span_with_products(elementwise_op(2), [(1, 0), (0, 1), (1, 1)])
    phis = positive_functionals(h)
    for x in range(-3, 4):
        for y in range(-3, 4):
            want = all(p.value_on_coordinates((x, y)) >= 0 for p in phis)
            assert h.positive_cone.member((x, y)) == want
            assert h.reduction.closed_member(h.class_from_coordinates((x, y))) == want


# ---------------------------------------------------------------------------
# theorem-level sweeps


def test_theorem_main_certified_on_localizable_instances():
    for op in (elementwise_op(2), elementwise_op(3, weights=[5, 1, 4]),
               saturating_product_op(truncated_free_monoid(2, cap=2))):
        res = verify_theorem_main(op)
        assert res["mode"] == "certified"
        assert res["claimed"] and res["ok"]
        assert res["commutativity"]["failures"] == []
        assert res["associativity"]["failures"] == []


def test_theorem_main_on_half_plane_exact_failures_but_approx_holds():
    res = verify_theorem_main(half_plane_op())
    assert res["mode"] == "certified" and res["claimed"] and res["ok"]
    # commutativity genuinely fails on the nose, yet the equivalence holds
    assert res["commutativity"]["exact_equality_failures"] > 0
    assert res["commutativity"]["failures"] == []
    assert res["associativity"]["failures"] == []


def test_theorem_main_observation_mode_on_matrix_product():
    res = verify_theorem_main(matrix_product_op())
    assert res["mode"] == "observation"
    assert not res["claimed"] and not res["ok"]
    assert res["weak_certificate"]["verdict"] == "no"
    assert res["commutativity"]["failures"]


def test_the_theorem_on_a_free_carrier_builds_no_lattice(lattices_built):
    # the ray table's interior point refuses a carrier whose rays are all
    # zero by reading the rays, not the lattice's Hermite basis
    op = elementwise_product_op(free_monoid(3))
    assert is_weakly_localizable(op).verdict == "yes"
    assert verify_theorem_main(op)["ok"]
    assert lattices_built == []
    with pytest.raises(InputError, match="needs a nonzero generator"):
        LatticeMonoid(2, [(0, 0)]).interior_point()
    assert lattices_built == []


def _theorem_draws(rng, count):
    """``(d, generators, tensor)`` of drawn lattice operations.  The
    generators are a unimodular basis B of Z^d (d = 1 to 3), up to two
    nonnegative combinations of it and, sometimes, the negative of one of
    them, a unit pair.  The product of two basis vectors is a nonnegative
    combination of B, so the tensor is closed on the cone of B; closure on
    the carrier is left to ``op.validate()``."""
    for _ in range(count):
        d = rng.randint(1, 3)
        basis = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        for _ in range(rng.randint(0, 3) if d > 1 else 0):
            i, j = rng.sample(range(d), 2)
            basis[i] = tuple(a + rng.choice((-1, 1)) * b for a, b in zip(basis[i], basis[j]))
        basis = [b if rng.random() < 0.7 else vneg(b) for b in basis]
        det, adj = int_adjugate(basis)
        inverse = [[det * x for x in row] for row in adj]
        generators = list(basis)
        for _ in range(rng.randint(0, 2)):
            c = [rng.randint(0, 3) for _ in range(d)]
            if any(c):
                generators.append(vcombine(c, basis))
        if rng.random() < 0.3:
            generators.append(vneg(rng.choice(generators)))
        # mu(b_i, b_j) = n_ij . B, and x = (x . B^-1) . B
        products = [[vcombine([rng.choice((0, 0, 1, 2)) for _ in range(d)], basis)
                     for _ in range(d)] for _ in range(d)]
        tensor = [[[sum(inverse[p][i] * inverse[q][j] * products[i][j][k]
                        for i in range(d) for j in range(d))
                    for k in range(d)] for q in range(d)] for p in range(d)]
        yield d, generators, tensor


def _theorem_oracle_failures(draws, seen, refuted):
    """The drawn operations that are weakly localizable but fail
    ``verify_theorem_main``, which the paper's main theorem rules out:
    both laws hold up to the equivalence on a weakly localizable one.  The
    validated draws that are not weakly localizable go to ``refuted``."""
    failures = []
    for draw in draws:
        d, generators, tensor = draw
        op = BiadditiveOp(LatticeMonoid(d, generators), tensor=tensor)
        if op.validate():
            continue
        verdict = is_weakly_localizable(op).verdict
        seen[verdict] += 1
        if verdict == "no":
            refuted.append(draw)
            continue
        seen["lineality"] += bool(op.carrier.lineality_coordinates())
        seen["|det B| > 1"] += any(abs(oracle_int_det(b)) > 1
                                   for b in itertools.combinations(generators, d))
        if not verify_theorem_main(op)["ok"]:
            failures.append(draw)
    return failures


def test_the_main_theorem_holds_on_every_weakly_localizable_draw(monkeypatch):
    # the paper proves both laws up to the equivalence on a weakly
    # localizable operation, so a "yes" whose laws fail is a wrong "yes"
    seen, refuted = Counter(), []
    assert _theorem_oracle_failures(_theorem_draws(seeded(55), 250),
                                    seen, refuted) == []
    assert all(seen[k] > 0 for k in ("yes", "no", "lineality", "|det B| > 1")), seen
    # a planted fault is caught: a ray table that never marks a bad ray
    # says "yes" where the laws fail
    table = localizability._polyhedral_ray_table
    monkeypatch.setattr(localizability, "_polyhedral_ray_table",
                        lambda op: table(op)._replace(bad=((), ()), obstruction=None))
    assert any(_theorem_oracle_failures([draw], Counter(), []) for draw in refuted)


def _unmemoized_sweep(op):
    """The theorem sweep as a plain loop: op.mu and approx on every pair and triple."""
    m = op.carrier
    pool = m.element_pool(3)
    pairs = [(a, b) for a in pool for b in pool]
    triples = [(a, b, c) for a in pool for b in pool for c in pool]

    def key(x):
        return x if isinstance(x, int) else tuple(x)

    comm_fail, comm_exact_fail = [], 0
    for a, b in pairs:
        ab, ba = op.mu(a, b), op.mu(b, a)
        if key(ab) != key(ba):
            comm_exact_fail += 1
        if not approx(m, ab, ba):
            comm_fail.append({"a": key(a), "b": key(b),
                              "ab": key(ab), "ba": key(ba)})
    assoc_fail, assoc_exact_fail = [], 0
    for a, b, c in triples:
        left = op.mu(op.mu(a, b), c)
        right = op.mu(a, op.mu(b, c))
        if key(left) != key(right):
            assoc_exact_fail += 1
        if not approx(m, left, right):
            assoc_fail.append({"a": key(a), "b": key(b), "c": key(c),
                               "left": key(left), "right": key(right)})
    return {
        "ok": not comm_fail and not assoc_fail,
        "pool_size": len(pool),
        "commutativity": {"checked": len(pairs), "failures": comm_fail,
                          "exact_equality_failures": comm_exact_fail},
        "associativity": {"checked": len(triples), "failures": assoc_fail,
                          "exact_equality_failures": assoc_exact_fail},
    }


def _sweep_parts(report):
    return {k: report[k] for k in ("ok", "pool_size", "commutativity", "associativity")}


def flag_meet_op():
    flag = FiniteMonoid([[0, 1], [1, 1]], names=["o", "t"])
    return BiadditiveOp(flag, table=[[0, 0], [0, 1]])


def nonassociative_op():
    # mu(e0, e0) = e1 and mu(e1, e0) = e0, so (ab)c = a1 b0 c0 e1 + a0 b0 c0 e0
    # while a(bc) = a0 b1 c0 e1 + a1 b1 c0 e0
    t = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    t[0][0][1] = 1
    t[1][0][0] = 1
    return BiadditiveOp(free_monoid(2), tensor=t)


def _quadrant_op(open_normals, entries):
    """An operation on the quadrant with the given faces excluded, from the
    tensor entries ``(i, j, k): T[i][j][k]``; it is closed on the carrier."""
    t = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    for (i, j, k), v in entries.items():
        t[i][j][k] = v
    quadrant = RationalCone.from_rays([(1, 0), (0, 1)], 2)
    return BiadditiveOp(OpenConeMonoid(quadrant, open_normals), tensor=t)


@pytest.mark.parametrize("make_op", [
    matrix_monoid_product_op, half_plane_op,
    lambda: saturating_product_op(truncated_free_monoid(2, cap=2)),
    lambda: elementwise_op(3, weights=[5, 1, 4]),
    lambda: cyclic_product_op(5), flag_meet_op, nonassociative_op,
    lambda: _quadrant_op([], {(0, 0, 0): 1, (1, 1, 1): 2}),
    lambda: _quadrant_op([], {(0, 1, 1): 1}),
    lambda: _quadrant_op([(1, 0)], {(0, 0, 0): 1}),
], ids=["matrix-product", "half-plane", "saturating-finite", "weighted-lattice",
        "cyclic-5", "flag-meet", "nonassociative", "closed-quadrant",
        "closed-quadrant-noncommutative", "open-quadrant"])
def test_memoized_sweep_matches_the_unmemoized_loop(make_op):
    # the closed open-cone operations take the generator proof on the rays
    report = verify_theorem_main(make_op())
    assert _sweep_parts(report) == _unmemoized_sweep(make_op())


def test_sweep_product_outside_the_carrier_is_an_input_error():
    op = BiadditiveOp(free_monoid(1), tensor=(((-1,),),))
    with pytest.raises(InputError, match=r"element \(-1,\) is not a generator combination"):
        verify_theorem_main(op)


UNCERTIFIED = SimpleNamespace(verdict="no", method="stub", reason="stub")


def test_sweep_checks_each_compared_product_for_membership():
    # with a stub certificate in place of the weak search, the first
    # comparison is the first place that meets the product (-1,)
    op = BiadditiveOp(free_monoid(1), tensor=(((-1,),),))
    with pytest.raises(InputError, match=r"element \(-1,\) is not a generator combination"):
        verify_theorem_main(op, weak=UNCERTIFIED)


def test_sweep_raises_the_first_error_of_a_plain_sweep():
    # off a lattice monoid every product keeps its membership check, so the
    # sweep fails with the error a plain sweep meets first: here mu(e0, e0)
    # = (1, -1) leaves the closed quadrant
    quadrant = OpenConeMonoid(RationalCone.from_rays([(1, 0), (0, 1)], 2), [])
    t = [[[1, -1], [0, 0]], [[0, 0], [0, 1]]]
    with pytest.raises(InputError) as caught:
        verify_theorem_main(BiadditiveOp(quadrant, tensor=t), weak=UNCERTIFIED)
    with pytest.raises(InputError) as expected:
        _unmemoized_sweep(BiadditiveOp(quadrant, tensor=t))
    assert str(caught.value) == str(expected.value)
    assert "is outside the open cone" in str(caught.value)


def test_sweep_evaluates_each_distinct_product_and_comparison_once(monkeypatch, mu_calls):
    # work counters do not jitter, so they guard the sweep's cost where
    # wall time cannot
    op = matrix_monoid_product_op()
    m = op.carrier
    calls = {"approx": 0, "class_key": 0}
    compare, class_key = m.approx, m.class_key

    def counted_approx(a, b):
        calls["approx"] += 1
        return compare(a, b)

    def counted_class_key(x):
        calls["class_key"] += 1
        return class_key(x)

    monkeypatch.setattr(m, "approx", counted_approx)
    monkeypatch.setattr(m, "class_key", counted_class_key)
    report = verify_theorem_main(op)
    assert report["pool_size"] == 35
    # associativity holds exactly on the generators, so only commutativity
    # is swept, off a product table built by additivity from the g^2
    # generator products the closure proof already made: 24 products in
    # all, at most g^2 + 2 g^3 = 144 (1,225 when the sweep multiplied each
    # pool pair, 8,435 when both laws were swept)
    assert len(calls_of(mu_calls, op)) <= 24
    assert calls["approx"] == 0
    # the cone has no lineality space, so approx is equality on the span
    # and a failure needs no class key (138 when each compared class was read)
    assert calls["class_key"] == 0


def test_sweep_skips_membership_of_products_of_pool_elements(monkeypatch):
    # the pool elements are members, and since every generator product is
    # one, so is every product built from them: the matrix product's sweep
    # asks contains for its 35 pool elements and 16 generator products only
    # (503 calls when every compared product was checked)
    op = matrix_monoid_product_op()
    calls = []
    contains = LatticeMonoid.contains

    def counted(self, x):
        calls.append(tuple(x))
        return contains(self, x)

    monkeypatch.setattr(LatticeMonoid, "contains", counted)
    report = verify_theorem_main(op)
    assert len(calls) <= 51
    assert _sweep_parts(report) == _unmemoized_sweep(matrix_monoid_product_op())


def test_sweep_without_closure_checks_every_product():
    # mu(e0, e1) = (1, -1) leaves the carrier, so no product is taken on
    # trust and the first error is the one a plain sweep meets (the weak
    # search, which would raise first, is replaced by a stub certificate)
    t = [[[0, 0], [1, -1]], [[0, 0], [0, 1]]]
    op = BiadditiveOp(free_monoid(2), tensor=t)
    with pytest.raises(InputError) as caught:
        verify_theorem_main(op, weak=UNCERTIFIED)
    with pytest.raises(InputError) as expected:
        _unmemoized_sweep(BiadditiveOp(free_monoid(2), tensor=t))
    assert str(caught.value) == str(expected.value)
    assert "is not a generator combination" in str(caught.value)


@st.composite
def lattice_tensor_ops(draw):
    """A tensor with entries -2..2 on free_monoid(d), d <= 4, or (d <= 2) on
    a free monoid plus one more generator.

    Arbitrary entries mostly put a generator product outside the carrier;
    nonnegative ones keep the free monoid closed and mostly break an exact
    law.  Two families are exactly commutative and associative for every
    scalar: a diagonal one and the graded ``e_i e_j = c e_(i+j)``.  The
    plain sweep a closed carrier gets grows like pool^3, so only arbitrary
    tensors reach d = 4, and nonnegative ones stop at d = 2.
    """
    kind = draw(st.sampled_from(["any", "nonnegative", "diagonal", "graded"]))
    top = {"any": 4, "nonnegative": 2}.get(kind, 3)
    d = draw(st.integers(min_value=1, max_value=top))
    entry = st.integers(min_value=0 if kind == "nonnegative" else -2, max_value=2)
    t = [[[0] * d for _ in range(d)] for _ in range(d)]
    if kind in ("any", "nonnegative"):
        for i, j, k in itertools.product(range(d), repeat=3):
            t[i][j][k] = draw(entry)
    elif kind == "diagonal":
        for i in range(d):
            t[i][i][i] = draw(entry)
    else:
        c = draw(entry)
        for i, j in itertools.product(range(d), repeat=2):
            if i + j < d:
                t[i][j][i + j] = c
    gens = list(free_monoid(d).generators)
    if d <= 2 and draw(st.booleans()):
        extra = st.integers(min_value=-2, max_value=2)
        gens.append(tuple(draw(st.lists(extra, min_size=d, max_size=d))))
    return BiadditiveOp(LatticeMonoid(d, gens), tensor=t)


def unit_direction_op():
    # -e0 is a generator, so e0 is a unit and equivalent to 0: mu(e0, e1) = e0
    # and mu(e1, e0) = 0 break both exact laws, never the equivalence
    t = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    return BiadditiveOp(LatticeMonoid(2, [(1, 0), (0, 1), (-1, 0)]), tensor=t)


@settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lattice_tensor_ops())
@example(unit_direction_op())
@example(matrix_product_op())
@example(BiadditiveOp(free_monoid(3), tensor=almost_fring_tensor()))
def test_generator_proof_matches_the_pool_sweep(mu_calls, op):
    # with a stub certificate the weak search, which could raise first, is
    # skipped; the report, or the first error, is that of a plain sweep
    mu_calls.clear()
    try:
        report = verify_theorem_main(op, weak=UNCERTIFIED)
    except InputError as caught:
        with pytest.raises(InputError) as expected:
            _unmemoized_sweep(op)
        assert str(caught) == str(expected.value)
        return
    # a report on a lattice carrier means closure held (else the pair sweep
    # meets a generator product outside the carrier), so each exact law
    # that holds on the pool held on the generators, which are pool
    # elements, and its proof decided its report
    g = len(op.carrier.generators)
    if report["associativity"]["exact_equality_failures"] == 0:
        # no pool triple is swept: at most a left and a right product per
        # generator triple, as the generator pairs and the pair sweep's
        # table are read off op.ray_products
        assert len(calls_of(mu_calls, op)) <= g * g + 2 * g ** 3
    assert _sweep_parts(report) == _unmemoized_sweep(op)


@st.composite
def table_carrier_ops(draw):
    """A tensor with entries -2..2 on one of the two carriers whose product
    table the lattice examples above do not reach.

    An open cone (d <= 3, 2-4 rays) with one facet excluded: its rows are
    built over ray sums that may lie on the excluded face, outside the
    pool.  A lattice with a unit direction (a generator of free_monoid(d)
    and its negative, d <= 2): there approx is coarser than equality.
    Arbitrary entries mostly put a product outside the carrier, so half
    the tensors are built to keep it closed: ``phi(a) psi(b) v`` on the
    cone, with phi and psi facet normals or 0 and v a member; on the
    lattice, free entries into the unit coordinate and entries 0..2 into
    the others from pairs of other coordinates only.
    """
    closed = draw(st.booleans())
    entry = st.integers(min_value=-2, max_value=2)
    if draw(st.booleans()):
        d = draw(st.integers(min_value=1, max_value=3))
        coord = st.integers(min_value=-1, max_value=2)
        rays = draw(st.lists(st.tuples(*[coord] * d), min_size=2, max_size=4))
        assume(any(any(r) for r in rays))
        cone = RationalCone.from_rays(rays, d)
        facets = [h for h in cone.h_rep if tuple(-x for x in h) not in cone.h_rep]
        assume(facets)
        carrier = OpenConeMonoid(cone, [draw(st.sampled_from(facets))])
        if closed:
            zero = (0,) * d
            phi, psi = (draw(st.sampled_from([zero] + cone.h_rep)) for _ in "ab")
            v = draw(st.sampled_from(carrier.element_pool(2)))
            t = [[[phi[i] * psi[j] * v[k] for k in range(d)] for j in range(d)]
                 for i in range(d)]
            assume(all(-2 <= x <= 2 for s in t for r in s for x in r))
            return BiadditiveOp(carrier, tensor=t)
    else:
        d = draw(st.integers(min_value=1, max_value=2))
        gens = list(free_monoid(d).generators)
        unit = draw(st.integers(min_value=0, max_value=d - 1))
        gens.append(tuple(-x for x in gens[unit]))
        carrier = LatticeMonoid(d, gens)
        if closed:
            ordered = st.integers(min_value=0, max_value=2)
            t = [[[draw(entry) if k == unit else
                   draw(ordered) if unit not in (i, j) else 0
                   for k in range(d)] for j in range(d)] for i in range(d)]
            return BiadditiveOp(carrier, tensor=t)
    t = [[[draw(entry) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    return BiadditiveOp(carrier, tensor=t)


@settings(max_examples=100)
@given(table_carrier_ops())
@example(unit_direction_op())
@example(half_plane_op())
def test_product_table_matches_the_pool_sweep(op):
    # the report, or the first error raised, is that of a plain sweep
    try:
        report = verify_theorem_main(op, weak=UNCERTIFIED)
    except InputError as caught:
        with pytest.raises(InputError) as expected:
            _unmemoized_sweep(op)
        assert str(caught) == str(expected.value)
        return
    assert _sweep_parts(report) == _unmemoized_sweep(op)


@st.composite
def pointed_cone_ops(draw):
    """A tensor closed on a pointed open cone (2 <= d <= 3, 2-4 rays with
    entries -1..2 spanning at least a plane, each facet that is no implicit
    equality excluded or not): one to three terms ``phi(a) psi(b) v``, phi
    and psi facet normals, the first two distinct, and v a nonzero member,
    so every product is a member and the first term alone does not
    commute."""
    d = draw(st.integers(min_value=2, max_value=3))
    coord = st.integers(min_value=-1, max_value=2)
    rays = draw(st.lists(st.tuples(*[coord] * d), min_size=2, max_size=4))
    assume(rational_rank(rays) >= 2)
    cone = RationalCone.from_rays(rays, d)
    assume(rational_rank(cone.h_rep) == d)  # pointed
    facets = [h for h in cone.h_rep if tuple(-x for x in h) not in cone.h_rep]
    carrier = OpenConeMonoid(cone, [h for h in facets if draw(st.booleans())])
    members = [x for x in carrier.element_pool(3) if any(x)]
    assume(members)
    t = [[[0] * d for _ in range(d)] for _ in range(d)]
    for term in range(draw(st.integers(min_value=1, max_value=3))):
        phi = draw(st.sampled_from(facets))
        psi = draw(st.sampled_from([h for h in facets if term or h != phi]))
        v = draw(st.sampled_from(members))
        for i, j, k in itertools.product(range(d), repeat=3):
            t[i][j][k] += phi[i] * psi[j] * v[k]
    return BiadditiveOp(carrier, tensor=t)


@settings(max_examples=80)
@given(pointed_cone_ops())
def test_pointed_cone_sweep_without_class_keys_matches_approx(op):
    # on a pointed cone the pair sweep lists every pair of differing entries
    # with no class key; the plain sweep compares them by approx
    assert not op.carrier.lineality_coordinates()
    report = verify_theorem_main(op, weak=UNCERTIFIED)
    event("commutative" if not report["commutativity"]["exact_equality_failures"]
          else "not commutative")
    assert _sweep_parts(report) == _unmemoized_sweep(op)


def test_reported_products_are_those_of_op_mu():
    # every product the sweep reports has the value and the type that
    # op.mu gives, so the rendered bytes do not depend on how the table
    # was built; the half-plane lists no failure, so its whole table,
    # built from op.ray_products, is compared with op.mu on every pool pair
    op = matrix_monoid_product_op()
    failures = verify_theorem_main(op)["commutativity"]["failures"]
    assert len(failures) == 976
    for f in failures:
        for got, want in ((f["ab"], op.mu(f["a"], f["b"])),
                          (f["ba"], op.mu(f["b"], f["a"]))):
            assert got == want
            assert list(map(type, got)) == list(map(type, want))
    for op in (half_plane_op(), matrix_monoid_product_op()):
        pool = op.carrier.element_pool(3)
        table = op.carrier.product_table(op, pool)
        for a, row in zip(pool, table):
            for b, ab in zip(pool, row):
                assert ab == op.mu(a, b)
                assert list(map(type, ab)) == list(map(type, op.mu(a, b)))


def test_half_plane_sweep_multiplies_ray_pairs_then_triples(mu_calls):
    # an open cone sweeps both laws: the pair sweep's table reads the 9
    # products of the 3 rays off op.ray_products, and the triple sweep
    # reads the pool pairs off the table and multiplies each distinct
    # (ab, c) and (a, bc) once (400 products when the pair sweep
    # multiplied its 100 pool pairs)
    op = half_plane_op()
    weak = is_weakly_localizable(op)
    mu_calls.clear()
    report = verify_theorem_main(op, weak=weak)
    assert report["pool_size"] == 10
    assert len(calls_of(mu_calls, op)) <= 9 + 300


def test_theorem_corpus_products_stay_counted(mu_calls):
    # op.mu calls of verify_theorem_main over the certified corpus, the
    # matrix product and the half-plane, each given its weak certificate:
    # a later change that multiplies more shows here without a clock
    # (1,826 when the pair sweep multiplied every pool pair)
    ops = [op for _, op in weakly_localizable_ops()]
    ops += [matrix_monoid_product_op(), half_plane_op()]
    assert len(ops) == 22
    total = 0
    for op in ops:
        weak = is_weakly_localizable(op)
        mu_calls.clear()
        verify_theorem_main(op, weak=weak)
        total += len(calls_of(mu_calls, op))
    assert total <= 534


def test_generator_proof_replaces_the_sweep_on_free_monoid_3(mu_calls):
    # the elementwise product is exactly commutative and associative on the
    # three generators of a closed carrier, so no pool pair or triple is
    # multiplied: at most g^2 + g^3 = 36 products (1,120 by the sweep)
    op = load_instance(instance_path("free-monoid-3.mon")).op
    report = verify_theorem_main(op)
    assert report["claimed"] and report["pool_size"] == 20
    assert report["commutativity"]["checked"] == 400
    assert report["associativity"]["checked"] == 8000
    assert len(calls_of(mu_calls, op)) <= 36


def _validated_ops(m):
    """Every biadditive table of a tiny carrier, found by validating all
    n^(n^2) tables; some have ``mu(0, x) != 0``."""
    n = m.n
    for flat in itertools.product(range(n), repeat=n * n):
        op = BiadditiveOp(m, table=[flat[i * n:(i + 1) * n] for i in range(n)])
        if not op.validate():
            yield op


@pytest.mark.parametrize("m,ops", [
    (FiniteMonoid([[0, 1], [1, 1]]), _validated_ops),
    (FiniteMonoid([[0, 1, 2], [1, 1, 2], [2, 2, 2]]), _validated_ops),
    (FiniteMonoid(product_table([monogenic_table(1, 2), monogenic_table(0, 2)])),
     enumerate_biadditive_ops),
    (truncated_free_monoid(2, cap=1), enumerate_biadditive_ops),
], ids=["flag", "chain-semilattice-3", "monogenic-1-2-x-0-2", "truncated-2-cap1"])
def test_finite_generator_proof_matches_the_pool_sweep(m, ops, mu_calls):
    # every biadditive table of the carrier, many failing an exact law
    # (on truncated-2-cap1, 192 of 256 fail commutativity); on the flag, mu(a, b) = a commutes on the generator pair and
    # not at (0, 1), which is why 0 is among the elements the proof reads.
    # The report is that of a plain sweep, and a table whose laws both
    # hold exactly multiplies only the generators and 0
    g = len(m.generators())
    for op in ops(m):
        mu_calls.clear()
        report = verify_theorem_main(op, weak=UNCERTIFIED)
        if not (report["commutativity"]["exact_equality_failures"]
                or report["associativity"]["exact_equality_failures"]):
            assert len(calls_of(mu_calls, op)) <= (g + 1) ** 2 + 2 * (g + 1) ** 3
        assert _sweep_parts(report) == _unmemoized_sweep(op)


def test_generator_proof_replaces_the_sweep_on_a_finite_carrier(mu_calls):
    # the saturating product on {0..4}^3 is exactly commutative and
    # associative on the three generators and 0, and a finite carrier is
    # closed, so no pool pair or triple is multiplied: at most
    # (g + 1)^2 + 2 (g + 1)^3 = 144 products (15,625 by the sweep)
    op = saturating_product_op(truncated_free_monoid(3, cap=4))
    weak = is_weakly_localizable(op)
    mu_calls.clear()
    report = verify_theorem_main(op, weak=weak)
    assert report["claimed"] and report["pool_size"] == 125
    assert report["commutativity"] == {"checked": 125 ** 2, "failures": [],
                                       "exact_equality_failures": 0}
    assert report["associativity"] == {"checked": 125 ** 3, "failures": [],
                                       "exact_equality_failures": 0}
    assert len(calls_of(mu_calls, op)) <= 4 ** 2 + 2 * 4 ** 3


def test_weak_strong_audit_statuses():
    assert weak_implies_strong_audit(elementwise_op(2))["status"] == "confirmed"
    mat = weak_implies_strong_audit(matrix_product_op())
    assert mat["status"] == "vacuous" and mat["ok"]
    assert "not weakly localizable" in mat["reason"]
    hp = weak_implies_strong_audit(half_plane_op())
    assert hp["status"] == "skipped" and "lattice carrier" in hp["reason"]
    sat = weak_implies_strong_audit(
        saturating_product_op(truncated_free_monoid(2, cap=2)))
    assert sat["status"] == "skipped"
    line = LatticeMonoid(2, [(1, 0), (-1, 0), (0, 1)])
    t = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    unpointed = weak_implies_strong_audit(BiadditiveOp(line, tensor=t))
    assert unpointed["status"] == "skipped"
    assert "pointed" in unpointed["reason"]


def test_weak_strong_audit_confirmed_across_lattice_corpus():
    for name, op in weakly_localizable_ops():
        if op.carrier.__class__.__name__ != "LatticeMonoid":
            continue
        res = weak_implies_strong_audit(op)
        assert res["status"] in ("confirmed", "skipped"), name
        if res["status"] == "confirmed":
            assert res["ok"], name
