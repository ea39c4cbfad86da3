"""Localizable elements, damped comparison maps, weak/strong certificates."""

import io
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import monoidorder.cli as cli
import monoidorder.exactmath as exactmath
import monoidorder.localizability as localizability
from monoidorder.core import InputError, InternalCheckError, vadd, vdot, vneg, vscale, vsub
from monoidorder.exactmath import RationalCone, integer_solve, lp_feasible
from monoidorder.functionals import verify_theorem_main
from monoidorder.localizability import (_ser, is_left_localizable, is_localizable,
                                        is_strongly_localizable,
                                        is_weakly_localizable,
                                        order_unit_fast_path)
from monoidorder.monoids import (BiadditiveOp, FiniteMonoid, LatticeMonoid,
                                 OpenConeMonoid, VectorCarrier,
                                 cyclic_group_monoid,
                                 diagonal_tensor, enumerate_biadditive_ops,
                                 free_monoid, half_open_half_plane, leq, orthant,
                                 saturating_product_op, truncated_free_monoid)

from conftest import (calls_of, instance_path, opposite_op, sample_elements, seeded,
                      weakly_localizable_ops)


def apply_matrix(mat, x):
    """``x . mat``, in ``int`` when both are integer."""
    d = len(mat)
    return tuple(sum(x[j] * mat[j][k] for j in range(d)) for k in range(d))


def matrix_product_op():
    m = free_monoid(4)
    t = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                t[2 * i + j][2 * j + k][2 * i + k] += 1
    return BiadditiveOp(m, tensor=t)


def elementwise_op(dim, weights=None):
    m = free_monoid(dim)
    t = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        t[i][i][i] = 1 if weights is None else weights[i]
    return BiadditiveOp(m, tensor=t)


def half_plane_op():
    hp = half_open_half_plane()
    t = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    t[0][0][0] = 1
    t[0][1][1] = 1
    return BiadditiveOp(hp, tensor=t)


SWAP = (0, 1, 1, 0)
IDENT = (1, 0, 0, 1)


# ---------------------------------------------------------------------------
# the carrier-coordinate reference: damping matrices and the row obstruction


def damping_matrix(op, s, side="left"):
    """Matrix of ``x -> x + mu(s, x)`` (or ``x + mu(x, s)``), rows = inputs.

    Only the nonzero coordinates ``s_i`` are read, each against its tensor
    slice: ``T[i][j][k]`` adds to row j, column k on the left, and
    ``T[j][i][k]`` on the right.  Entries are plain ``int`` for an integer
    ``s``; every entry starts from the zero of ``sum(s)``, so one
    ``Fraction`` coordinate makes them all ``Fraction``.
    """
    d = op.carrier.dim
    t = op.tensor
    zero = 0 * sum(s)
    rows = [[zero + int(j == k) for k in range(d)] for j in range(d)]
    for i, si in enumerate(s):
        if not si:
            continue
        # slices[j][k] is the coefficient of s_i in entry (j, k)
        slices = t[i] if side == "left" else [slab[i] for slab in t]
        for row, coeffs in zip(rows, slices):
            for k, v in enumerate(coeffs):
                if v:
                    row[k] += si * v
    return rows


def monomial_row_obstruction(op, a0):
    """The row obstruction in carrier coordinates: on a closed orthant
    (every ray a positive multiple of a unit vector, every direction among
    them, no excluded face) with an entrywise nonnegative tensor, the first
    damping row of a0, the left side first, with two or more positive
    entries; None elsewhere or when there is none.

    Above a0 every coordinate is at least a0's, so the damping matrix
    dominates a0's entrywise, the row persists, and no element above a0 is
    localizable.  The library decides the same in ray coordinates, off the
    ray-product table; this is its reference on orthants.
    """
    m = op.carrier
    supports = [[i for i, v in enumerate(g) if v] for g in m.rays]
    orthant = (not m.open_normals
               and all(len(sp) == 1 and g[sp[0]] > 0 for g, sp in zip(m.rays, supports))
               and {sp[0] for sp in supports} == set(range(m.dim)))
    if not orthant or any(v < 0 for slab in op.tensor for row in slab for v in row):
        return None
    for side in ("left", "right"):
        for j, row in enumerate(damping_matrix(op, a0, side)):
            positives = [k for k, v in enumerate(row) if v > 0]
            if len(positives) >= 2:
                return {"element": list(a0), "side": side, "row": j,
                        "positive_columns": positives}
    return None


# ---------------------------------------------------------------------------
# the damped comparison map


@pytest.mark.parametrize("op,points", [
    (matrix_product_op(), [SWAP, IDENT, (1, 2, 0, 3)]),
    (elementwise_op(2), [(0, 0), (2, 3)]),
    (half_plane_op(), [(1, 0), (2, 5)]),
])
def test_damping_matrix_matches_operation(op, points):
    m = op.carrier
    dim = m.dim
    units = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    for s in points:
        for side in ("left", "right"):
            d = damping_matrix(op, s, side)
            for e in units:
                prod = op.mu(s, e) if side == "left" else op.mu(e, s)
                want = tuple(p + u for p, u in zip(prod, e))
                assert tuple(apply_matrix(d, e)) == want


# ---------------------------------------------------------------------------
# single-element verdicts, with witnesses re-validated from scratch


def _damped(op, s, x, side="left"):
    prod = op.mu(s, x) if side == "left" else op.mu(x, s)
    return tuple(p + v for p, v in zip(prod, x))


def test_swap_matrix_refuted_with_live_witness():
    op = matrix_product_op()
    m = op.carrier
    v = is_left_localizable(op, SWAP)
    assert v.as_dict()["verdict"] == "no"
    x, y = v.witness
    assert leq(m, _damped(op, SWAP, x), _damped(op, SWAP, y))
    assert not leq(m, x, y)


def test_identity_matrix_is_localizable_both_sides():
    op = matrix_product_op()
    for s in (IDENT, (2, 0, 0, 1), (3, 0, 0, 3)):
        assert is_localizable(op, s).as_dict()["verdict"] == "yes"


@pytest.mark.parametrize("s", [(0, 1, 0, 0), (0, 0, 1, 0), SWAP,
                               (1, 1, 1, 1), (0, 2, 2, 0), (1, 1, 0, 1)])
def test_monomial_obstruction_implies_refutation(s):
    op = matrix_product_op()
    ob = monomial_row_obstruction(op, s)
    assert ob is not None
    row = ob["row"]
    cols = ob["positive_columns"]
    assert len(cols) >= 2
    d = damping_matrix(op, s, ob["side"])
    assert sum(1 for c in cols if d[row][c] > 0) == len(cols)
    assert is_left_localizable(op, s, ob["side"]).as_dict()["verdict"] == "no"


def test_diagonal_matrices_have_no_obstruction():
    op = matrix_product_op()
    for s in (IDENT, (2, 0, 0, 3), (0, 0, 0, 0)):
        assert monomial_row_obstruction(op, s) is None


def _definitional_violations(op, s, pairs) -> list:
    """The pairs breaking ``mu(s, a) + a <~ mu(s, b) + b  =>  a <~ b``,
    read straight from the definition of left localizability."""
    m = op.carrier
    return [(a, b) for a, b in pairs
            if leq(m, vadd(op.mu(s, a), a), vadd(op.mu(s, b), b))
            and not leq(m, a, b)]


def test_definitional_sample_check_agrees_with_verdicts():
    op = matrix_product_op()
    rng = seeded(7)
    pairs = [(tuple(rng.randrange(4) for _ in range(4)),
              tuple(rng.randrange(4) for _ in range(4))) for _ in range(60)]
    assert _definitional_violations(op, IDENT, pairs) == []
    v = is_left_localizable(op, SWAP)
    assert _definitional_violations(op, SWAP, list(pairs) + [v.witness])


# ---------------------------------------------------------------------------
# the witness pair's base point


def _linear_scan_pair(m, direction):
    """The base point found by scanning k upward: from 0 to the certain
    bound on a lattice, from 1 to 10,000 on a cone, whose pair is returned
    in ``Fraction`` coordinates."""
    if isinstance(m, LatticeMonoid):
        combo = integer_solve([tuple(g) for g in m.generators], tuple(direction))
        gsum = tuple(0 for _ in range(m.dim))
        for g in m.generators:
            gsum = vadd(gsum, g)
        for k in range(max(0, -min(combo)) + 2):
            a = vscale(k, gsum)
            b = vadd(a, tuple(direction))
            if m.contains(a) and m.contains(b):
                return (a, b)
        raise AssertionError("no base point within the certain bound")
    g0 = m.interior_point()
    for k in range(1, 10_001):
        a = vscale(k, g0)
        b = vadd(a, direction)
        if m.contains(a) and m.contains(b):
            return (tuple(Fraction(v) for v in a), tuple(Fraction(v) for v in b))
    raise AssertionError("no base point below k = 10,000")


def _open_quadrant(*open_normals):
    return OpenConeMonoid(RationalCone.from_rays([(1, 0), (0, 1)], 2), open_normals)


WITNESS_CARRIERS = [
    free_monoid(2),
    LatticeMonoid(2, [(1, 0), (1, 2)]),
    LatticeMonoid(2, [(2, 1), (-1, 1), (0, 1)]),
    half_open_half_plane(),
    _open_quadrant((1, 0)),
    _open_quadrant((0, 1), (1, 0)),
    OpenConeMonoid(RationalCone.from_rays([(1, 0), (1, 2)], 2), [(2, -1)]),
]

# (carrier index, tensor entries in i, j, k order, coefficients of s over
# the carrier's rays, side): one refutation of a lattice, then one per
# refutation kind of an open cone, each by an operation closed on the carrier
REFUTATIONS = {
    "preimage cone escapes the positivity cone":
        (1, [2, 0, 0, 0, 0, 2, 2, 0], [0, 2, 0], "right"),
    "damped map kills a direction outside the strict cone":
        (4, [1, 2, 0, 1, 2, 1, 1, 0], [0, 1, 0], "right"),
    "preimage cone escapes the positivity cone, on an open cone":
        (4, [2, 0, 1, 2, 1, 0, 2, 0], [1, 2, 0], "right"),
    "preimage cone escapes the positivity cone, strictified":
        (4, [1, 0, 0, 1, 1, 2, 2, 1], [1, 2, 1], "right"),
}


def _refutation(case):
    """The carrier, the verdict on the element and its witness pair."""
    index, flat, coeffs, side = case
    m = WITNESS_CARRIERS[index]
    s = tuple(0 for _ in range(m.dim))
    for c, r in zip(coeffs, m.rays):
        s = vadd(s, vscale(c, r))
    op = BiadditiveOp(m, tensor=[[flat[4 * i + 2 * j:4 * i + 2 * j + 2] for j in range(2)]
                                 for i in range(2)])
    assert op.validate() == [] and m.contains(s)
    verdict = is_left_localizable(op, s, side)
    return m, verdict, verdict.witness


# (carrier index, coefficients of a direction over the carrier's rays): an
# integer combination on a lattice, and halves too on a cone
directions = st.integers(min_value=0, max_value=len(WITNESS_CARRIERS) - 1).flatmap(
    lambda index: st.tuples(st.just(index), st.lists(
        st.integers(-2, 2) if isinstance(WITNESS_CARRIERS[index], LatticeMonoid)
        else st.sampled_from([-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2]),
        min_size=3, max_size=3)))


@settings(max_examples=150, derandomize=True)
@given(directions)
def test_galloping_base_point_equals_the_linear_scan(case):
    index, coeffs = case
    m = WITNESS_CARRIERS[index]
    direction = tuple(0 for _ in range(m.dim))
    for c, r in zip(coeffs, m.rays):
        direction = vadd(direction, vscale(c, r))
    assume(not m.contains(direction))
    a, b = m.witness_pair(direction)
    want = _linear_scan_pair(m, direction)
    assert (a, b) == want
    assert [_ser(a), _ser(b)] == [_ser(want[0]), _ser(want[1])]


@pytest.mark.parametrize("kind", sorted(REFUTATIONS))
def test_each_refutation_kind_is_among_the_examples(kind):
    m, verdict, (a, b) = _refutation(REFUTATIONS[kind])
    assert (verdict.verdict, kind.startswith(verdict.reason)) == ("no", True)
    escaped = verdict.details.get("violating_direction")
    strictified = escaped is not None and [str(v) for v in escaped] != _ser(vsub(b, a))
    assert strictified == kind.endswith("strictified")
    assert (a, b) == _linear_scan_pair(m, vsub(b, a))


# ---------------------------------------------------------------------------
# verdicts on validated operations


def _excluded_face_direction(op, s, side):
    """A nonzero direction of an excluded face whose damped image lies
    strictly inside, found by one LP per open normal; None if there is
    none.  Kept as the reference for the proof in ``_polyhedral_ray_table``
    (its "The damped map" paragraph) that a validated operation never has
    one."""
    m = op.carrier
    mat = damping_matrix(op, s, side)
    closed = m.cone
    for nf in m.open_normals:
        face_rays = [r for r in closed.extreme_rays if vdot(nf, r) == 0]
        face_rays += [v for l in closed.lineality_basis for v in (l, vneg(l))]
        if not face_rays:
            continue
        imgs = [apply_matrix(mat, r) for r in face_rays]
        ineqs = [(tuple(int(t == i) for t in range(len(face_rays))), 0)
                 for i in range(len(face_rays))]
        ineqs += [(tuple(vdot(img, h) for img in imgs), 0) for h in closed.h_rep]
        ineqs += [(tuple(vdot(img, n) for img in imgs), 1) for n in m.open_normals]
        lam = lp_feasible(len(face_rays), ineqs=ineqs)
        if lam is not None:
            return tuple(sum(lam[i] * face_rays[i][j] for i in range(len(face_rays)))
                         for j in range(m.dim))
    return None


VALIDATED_CARRIERS = WITNESS_CARRIERS + [
    _open_quadrant(),
    OpenConeMonoid(RationalCone.from_rays([(1, 0), (0, 1), (0, -1)], 2), []),
    LatticeMonoid(2, [(1, 0), (0, 1), (0, -1)]),
]

validated_cases = st.tuples(
    st.integers(min_value=0, max_value=len(VALIDATED_CARRIERS) - 1),
    st.lists(st.integers(min_value=0, max_value=2), min_size=8, max_size=8),
    st.integers(min_value=0, max_value=9),
    st.sampled_from(("left", "right")))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(validated_cases)
@example((3, [1, 0, 0, 1, 0, 0, 0, 0], 4, "left"))   # the half-plane product
@example((3, [1, 0, 0, 1, 0, 0, 0, 0], 4, "right"))
def test_verdicts_on_validated_operations_agree_with_the_definition(case):
    index, flat, pick, side = case
    m = VALIDATED_CARRIERS[index]
    tensor = [[flat[4 * i + 2 * j:4 * i + 2 * j + 2] for j in range(2)] for i in range(2)]
    op = BiadditiveOp(m, tensor=tensor)
    assume(op.validate() == [])
    pool = m.element_pool(2)
    nonzero = [x for x in pool if any(x)]
    s = nonzero[pick % len(nonzero)]
    verdict = is_left_localizable(op, s, side)
    one_sided = op if side == "left" else opposite_op(op)
    if verdict.verdict == "yes":
        assert _excluded_face_direction(op, s, side) is None
        assert _definitional_violations(
            one_sided, s, [(a, b) for a in pool for b in pool]) == []
    else:
        witness = verdict.witness
        assert _definitional_violations(one_sided, s, [witness]) == [witness]


# mu(e0, e0) = (1, -1): the generator product (1, 1)(1, 1) = (3, 4) lies in
# the closed cone but is no combination of the generators (1, 1) and (0, 2)
PRODUCT_OUTSIDE_THE_MONOID = [[[1, -1], [0, 2]], [[2, 2], [0, 1]]]


def test_every_decision_assumes_a_validated_operation(tmp_path):
    # the library does not validate an operation when it builds one (that
    # would move g^2 products into every construction); validate() lists
    # the failure, and the instance file loader refuses the operation
    op = BiadditiveOp(LatticeMonoid(2, [(1, 1), (0, 2)]), tensor=PRODUCT_OUTSIDE_THE_MONOID)
    assert op.validate() == [("generator-product-outside", 0, 0, [3, 4])]
    path = tmp_path / "outside.mon"
    path.write_text("kind: lattice\ndim: 2\n[generators]\n1 1\n0 2\n"
                    "[tensor]\n0 0 1 -1\n0 1 0 2\n1 0 2 2\n1 1 0 1\n")
    for mode in ("--weak", "--strong"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["localizable", str(path), mode])
        assert (code, out.getvalue()) == (cli.EXIT_INPUT, "")
        assert "('generator-product-outside', 0, 0, [3, 4])" in err.getvalue()


# ---------------------------------------------------------------------------
# weak localizability certificates


def test_weak_certificate_assignments_are_live():
    for name, op in [("saturating", saturating_product_op(truncated_free_monoid(2, cap=2))),
                     ("elementwise", elementwise_op(3)),
                     ("half-plane", half_plane_op())]:
        cert = is_weakly_localizable(op)
        assert cert.verdict == "yes", name
        assert cert.assignments, name
        for a, s in cert.assignments.items():
            assert leq(op.carrier, a, s), (name, a, s)
            assert is_localizable(op, s).as_dict()["verdict"] == "yes", (name, s)


def test_matrix_operation_not_weakly_localizable():
    op = matrix_product_op()
    cert = is_weakly_localizable(op)
    assert cert.verdict == "no"
    assert cert.refuted is not None
    assert monomial_row_obstruction(op, cert.refuted) is not None


@pytest.mark.parametrize("name,op", weakly_localizable_ops()[:8])
def test_corpus_instances_are_weakly_localizable(name, op):
    cert = is_weakly_localizable(op)
    assert cert.verdict == "yes", name


def test_weak_search_decides_each_candidate_once(monkeypatch):
    # the saturated top absorbs every element, so each of the 9 queries
    # settles on the first candidate, 0: one decision where one per query
    # took 9
    op = saturating_product_op(truncated_free_monoid(2, cap=2))
    decided = []
    decide = localizability.is_localizable
    monkeypatch.setattr(localizability, "is_localizable",
                        lambda o, s: decided.append(s) or decide(o, s))
    cert = is_weakly_localizable(op)
    assert cert.verdict == "yes"
    assert cert.assignments == {a: 0 for a in op.carrier.elements()}
    assert decided == [0]


# ---------------------------------------------------------------------------
# the exhaustive left check on finite carriers


def _double_leq_witness(op, s, side):
    """The first refuting pair of a plain loop that calls leq on both
    damped images of every pair, None when there is none."""
    m = op.carrier

    def damped(x):
        return m.add(op.mu(s, x) if side == "left" else op.mu(x, s), x)

    for a in m.elements():
        for b in m.elements():
            if leq(m, damped(a), damped(b)) and not leq(m, a, b):
                return (a, b)
    return None


def _assert_left_matches_double_leq(op, s, side):
    got = is_left_localizable(op, s, side=side)
    want = _double_leq_witness(op, s, side)
    assert got.verdict == ("yes" if want is None else "no")
    assert got.witness == want


SMALL_FINITE_CARRIERS = {
    "truncated-1-cap2": lambda: truncated_free_monoid(1, cap=2),
    "truncated-1-cap3": lambda: truncated_free_monoid(1, cap=3),
    "truncated-2-cap1": lambda: truncated_free_monoid(2, cap=1),
    "cyclic-2": lambda: cyclic_group_monoid(2),
    "cyclic-3": lambda: cyclic_group_monoid(3),
    "cyclic-4": lambda: cyclic_group_monoid(4),
}


@cache
def _enumerated_ops(name):
    return enumerate_biadditive_ops(SMALL_FINITE_CARRIERS[name]())


@st.composite
def finite_left_cases(draw):
    """A biadditive operation on a small truncated-free or cyclic carrier,
    one element and one side.

    The canonical quasi-order of a finite carrier relates every pair (a
    shift into the carrier's minimal ideal, a group, closes any gap), so
    the check can only say yes, and so must the double-leq loop.
    """
    name = draw(st.sampled_from(sorted(SMALL_FINITE_CARRIERS)))
    op = draw(st.sampled_from(_enumerated_ops(name)))
    s = draw(st.sampled_from(op.carrier.elements()))
    return op, s, draw(st.sampled_from(["left", "right"]))


@settings(max_examples=150)
@given(finite_left_cases())
def test_finite_left_check_matches_the_double_leq_loop(case):
    _assert_left_matches_double_leq(*case)


@pytest.mark.parametrize("name,op", [(name, op) for name, op in weakly_localizable_ops()
                                     if isinstance(op.carrier, FiniteMonoid)])
def test_finite_left_check_matches_the_double_leq_loop_on_the_corpus(name, op):
    for s in op.carrier.elements():
        for side in ("left", "right"):
            _assert_left_matches_double_leq(op, s, side)


def test_finite_left_check_multiplies_each_element_once(mu_calls):
    # the order is total, so the check says yes without a product
    m = truncated_free_monoid(2, cap=2)
    op = saturating_product_op(m)
    assert is_left_localizable(op, m.n - 1).verdict == "yes"
    assert mu_calls == []


# ---------------------------------------------------------------------------
# order-unit fast path


def test_fast_path_with_two_sided_unit():
    m = truncated_free_monoid(2, cap=2)
    op = saturating_product_op(m)
    unit = m._cache["tuple_index"][(1, 1)]
    cert = order_unit_fast_path(op, unit)
    assert cert.verdict == "yes" and cert.method == "order-unit"
    for a, s in cert.assignments.items():
        assert leq(m, a, s)
        assert is_localizable(op, s).as_dict()["verdict"] == "yes"


def test_fast_path_unit_on_orthant():
    op = elementwise_op(2)
    cert = order_unit_fast_path(op, (1, 1))
    assert cert.verdict == "yes" and cert.method == "order-unit"


def test_fast_path_refuses_non_unit_then_falls_back():
    op = elementwise_op(2)
    cert = order_unit_fast_path(op, (2, 3))
    assert cert.method == "search-after-refusal"
    assert cert.details["refusal_reasons"]
    assert cert.verdict == "yes"


def test_fast_path_refuses_one_sided_unit():
    op = half_plane_op()
    assert op.mu((1, 0), (4, -5)) == (4, -5)       # left unit ...
    assert op.mu((4, -5), (1, 0)) != (4, -5)       # ... but not right
    cert = order_unit_fast_path(op, (1, 0))
    assert cert.method == "search-after-refusal"
    assert any("unit" in r for r in cert.details["refusal_reasons"])


def test_a_unit_multiple_that_is_not_localizable_is_an_internal_error(monkeypatch):
    # once e is a two-sided unit every damping map of k*e is (1 + k)*id, so
    # a "no" for a unit multiple is a fault, never a reason to search: a
    # planted "no" fails loudly, and the command renders no report
    refusal = is_localizable(matrix_product_op(), (1, 1, 0, 1))
    assert refusal.verdict == "no"
    monkeypatch.setattr(localizability, "is_localizable", lambda op, s: refusal)
    with pytest.raises(InternalCheckError, match="unit multiple"):
        order_unit_fast_path(elementwise_op(2), (1, 1))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["verify", instance_path("free-monoid-3.mon"),
                         "--orderunit", "--element", "1,1,1"])
    assert (code, out.getvalue()) == (cli.EXIT_INTERNAL, "")


# ---------------------------------------------------------------------------
# strong localizability


def test_strong_verdicts():
    sat = saturating_product_op(truncated_free_monoid(2, cap=2))
    assert is_strongly_localizable(sat)["verdict"] == "yes"
    ew = is_strongly_localizable(elementwise_op(2))
    assert ew["verdict"] == "yes" and ew["confirmed"] == "structural"
    weighted = is_strongly_localizable(elementwise_op(3, weights=[5, 1, 4]))
    assert weighted["verdict"] == "yes" and weighted["weights"] == [5, 1, 4]


def test_strong_refutation_carries_witness():
    op = matrix_product_op()
    m = op.carrier
    res = is_strongly_localizable(op)
    assert res["verdict"] == "no"
    x = tuple(int(v) for v in res["refuted_element"])
    wx, wy = res["witness"]
    wx = tuple(int(v) for v in wx)
    wy = tuple(int(v) for v in wy)
    assert leq(m, _damped(op, x, wx), _damped(op, x, wy))
    assert not leq(m, wx, wy)


def test_strong_implies_weak_on_corpus_sample():
    for name, op in weakly_localizable_ops()[:5]:
        strong = is_strongly_localizable(op)
        if strong["verdict"] == "yes":
            assert is_weakly_localizable(op).verdict == "yes", name


def test_an_origin_only_open_cone_is_an_input_error():
    # the loader refuses such a file; the library refuses the carrier
    # instead of indexing an empty span basis or reporting a self-check
    origin = RationalCone.from_inequalities([(1,), (-1,)], 1)
    op = BiadditiveOp(OpenConeMonoid(origin, []), tensor=(((1,),),))
    for check in (is_weakly_localizable, is_strongly_localizable,
                  lambda o: is_left_localizable(o, (0,)),
                  lambda o: is_localizable(o, (0,))):
        with pytest.raises(InputError, match="other than the origin"):
            check(op)


def test_an_open_cone_whose_excluded_face_is_the_whole_cone_is_an_input_error():
    # the ray (1, 0) with its face excluded has no member but the origin:
    # both bulk verdicts refuse it before reading the ray table, the weak
    # one although it has no element to query
    ray = RationalCone.from_rays([(1, 0)], 2)
    op = BiadditiveOp(OpenConeMonoid(ray, [(0, 1)]), tensor=diagonal_tensor(2, [1, 1]))
    assert sample_elements(op.carrier, 6) == []
    for check in (is_weakly_localizable, is_strongly_localizable):
        with pytest.raises(InputError, match="no member but the origin"):
            check(op)


@pytest.mark.parametrize("op,points", [
    (matrix_product_op(), [SWAP, IDENT, (1, 2, 0, 3), (0, -1, 5, 2)]),
    (elementwise_op(3, weights=[2, 5, 5]), [(0, 0, 0), (2, 3, 1)]),
    (half_plane_op(), [(1, 0), (2, -5)]),
])
def test_damping_matrix_of_an_integer_element_holds_only_ints(op, points):
    # the damped map stays in int arithmetic for integer elements; only a
    # rational element brings Fraction in, and then in every entry
    for s in points:
        for side in ("left", "right"):
            mat = damping_matrix(op, s, side)
            assert all(type(v) is int for row in mat for v in row)
            image = apply_matrix(mat, s)
            assert all(type(v) is int for v in image)
            half = tuple(Fraction(v, 2) for v in s)
            assert all(type(v) is Fraction
                       for row in damping_matrix(op, half, side) for v in row)


def test_an_all_zero_lattice_carrier_is_an_input_error():
    # the loader refuses such a file; the library refuses the carrier
    # instead of indexing an empty span basis
    op = BiadditiveOp(LatticeMonoid(1, [(0,)]), tensor=(((1,),),))
    for check in (is_weakly_localizable, is_strongly_localizable,
                  lambda o: is_left_localizable(o, (0,)),
                  lambda o: is_localizable(o, (0,))):
        with pytest.raises(InputError, match="nonzero generator"):
            check(op)


# ---------------------------------------------------------------------------
# the weak search without re-proofs: members by construction, and the
# one-sided decision against the preimage of the cone


def _summed_damping_matrix(op, s, side):
    """Every entry summed over all of s, zero coordinates included: the
    values and the int/Fraction contract ``damping_matrix`` keeps."""
    d = op.carrier.dim
    t = op.tensor
    rows = []
    for j in range(d):
        row = [0] * d
        row[j] = 1
        for k in range(d):
            if side == "left":
                row[k] += sum(s[i] * t[i][j][k] for i in range(d))
            else:
                row[k] += sum(t[j][i][k] * s[i] for i in range(d))
        rows.append(row)
    return rows


def _flat_tensor(flat, d):
    return [[flat[d * d * i + d * j:d * d * i + d * j + d] for j in range(d)]
            for i in range(d)]


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
           st.lists(st.integers(-2, 2), min_size=d ** 3, max_size=d ** 3),
           st.lists(st.sampled_from([0, 0, 1, -2, Fraction(1, 2), Fraction(0)]),
                    min_size=d, max_size=d))),
       st.sampled_from(["left", "right"]))
def test_damping_matrix_reads_only_the_nonzero_coordinates(case, side):
    flat, s = case
    d = len(s)
    op = BiadditiveOp(free_monoid(d), tensor=_flat_tensor(flat, d))
    got, want = damping_matrix(op, s, side), _summed_damping_matrix(op, s, side)
    assert got == want
    assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want]


def _weak_then_theorem(gens, tensor):
    """The weak certificate and the theorem report that rests on it, or the
    input error either raises (a product outside the carrier)."""
    op = BiadditiveOp(LatticeMonoid(len(gens[0]), gens), tensor=tensor)
    try:
        weak = is_weakly_localizable(op)
        return weak.as_dict(), verify_theorem_main(op, weak=weak)
    except InputError as exc:
        return str(exc)


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
           st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=2, max_size=5),
           st.lists(st.sampled_from([0, 0, 0, 1, 2, -1]), min_size=d ** 3,
                    max_size=d ** 3))))
def test_members_by_construction_change_no_verdict(case):
    # the reference decides every membership by the search: no sum of
    # generators enters the memo unsearched, and the pool is filtered
    gens, flat = case
    assume(any(map(any, gens)))
    tensor = _flat_tensor(flat, len(gens[0]))
    with mock.patch.object(LatticeMonoid, "_record_sums", lambda self, level: None), \
            mock.patch.object(LatticeMonoid, "element_pool", VectorCarrier.element_pool):
        reference = _weak_then_theorem(gens, tensor)
    assert _weak_then_theorem(gens, tensor) == reference


def _damped_basis(op, s, side):
    """The images ``L_s(b)`` of the span basis, each product by ``op.mu``."""
    def mu(x):
        return op.mu(s, x) if side == "left" else op.mu(x, s)
    return [vadd(b, mu(b)) for b in op.carrier.span_basis]


KILLS = "damped map kills a direction outside the strict cone"
ESCAPES = "preimage cone escapes the positivity cone"
INSIDE = "preimage of the positivity cone stays inside the cone"


def _one_sided_reference(op, s, side):
    """The verdict and reason of one side without the ray table: with open
    normals a nonzero kernel of ``L_s`` on the span refutes, else a ray of
    the preimage ``L_s^-1(C)`` that escapes C does."""
    m = op.carrier
    bl = _damped_basis(op, s, side)
    if m.open_normals and exactmath.echelon_kernel(list(zip(*bl))):
        return "no", KILLS
    if localizability._preimage_escape(m, bl, m.span_basis) is not None:
        return "no", ESCAPES
    return "yes", INSIDE


def _two_sided_reference(op, s):
    """The verdict and reason of both sides without the ray table: the
    first side the reference refutes, the left first."""
    for side, condition in (("left", "left"), ("right", "opposite")):
        verdict, reason = _one_sided_reference(op, s, side)
        if verdict == "no":
            return "no", f"{condition} condition fails: {reason}"
    return "yes", "both sides localizable"


def _decided(op, s):
    """The verdict and reason of :func:`is_localizable`, with the evidence
    of a "no" read: its witness pair is built and re-validated."""
    v = is_localizable(op, s)
    v.as_dict()
    return v.verdict, v.reason


def _counted_double_description(monkeypatch) -> list:
    """Count double descriptions run from here on, wherever they are called."""
    calls = []
    real = exactmath.cone_from_inequalities

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(exactmath, "cone_from_inequalities", counted)
    monkeypatch.setattr(localizability, "cone_from_inequalities", counted)
    return calls


def test_weak_search_over_invertible_maps_runs_no_double_description(monkeypatch):
    # every candidate's damped map is invertible on the span, and the ray
    # table proves each one without it; the carrier's own cone is built
    # beforehand
    op = BiadditiveOp(free_monoid(3), tensor=diagonal_tensor(3, [2, 5, 5]))
    op.carrier.cone.h_rep
    calls = _counted_double_description(monkeypatch)
    assert is_weakly_localizable(op).verdict == "yes"
    assert calls == []


def test_a_table_refutation_runs_double_description_only_when_read(monkeypatch):
    op = matrix_product_op()
    op.carrier.cone.h_rep
    calls = _counted_double_description(monkeypatch)
    v = is_localizable(op, (1, 1, 0, 1))
    assert (v.verdict, calls) == ("no", [])
    assert v.details["violating_direction"] == [-1, 0, 2, 0]
    v.as_dict()
    assert len(calls) == 1


def test_a_table_refutation_with_no_escaping_ray_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(localizability, "_preimage_escape", lambda *args: None)
    v = is_left_localizable(matrix_product_op(), (1, 1, 0, 1))
    assert v.verdict == "no"
    with pytest.raises(InternalCheckError, match="ray-product table"):
        v.as_dict()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
           st.just(d),
           st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=d ** 3, max_size=d ** 3))))
def test_integer_and_rational_orthants_refute_weak_localizability_together(case):
    # the ray-product table reads the rays of the closed orthant, not the
    # carrier's class, so both lattice-group forms of one tensor share it
    d, flat = case
    tensor = _flat_tensor(flat, d)
    refuted = {scalar: is_weakly_localizable(
                   BiadditiveOp(orthant(d, scalar), tensor=tensor)).verdict == "no"
               for scalar in ("integer", "rational")}
    assert refuted["integer"] == refuted["rational"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["integer", "rational"]).flatmap(lambda scalar: st.integers(1, 3).flatmap(
    lambda d: st.tuples(
        st.just(scalar),
        st.lists(st.integers(0, 3), min_size=d, max_size=d),
        st.lists(st.integers(0, 4) if scalar == "integer" else
                 st.fractions(0, 4, max_denominator=3), min_size=d, max_size=d)))))
def test_structural_strong_yes_agrees_with_every_element(case):
    # a diagonal nonnegative tensor on either closed orthant is strongly
    # localizable by structure; the decision on each element agrees.  The
    # rational orthant lists its rays in v_rep order, so each weight is
    # compared at its ray
    scalar, weights, s = case
    d = len(weights)
    op = BiadditiveOp(orthant(d, scalar), tensor=diagonal_tensor(d, weights))
    strong = is_strongly_localizable(op)
    assert (strong["verdict"], strong["confirmed"]) == ("yes", "structural")
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    assert dict(zip(map(tuple, strong["rays"]), strong["weights"])) == dict(zip(units, weights))
    assert is_localizable(op, tuple(s)).verdict == "yes"


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
           st.lists(st.integers(1, 2), min_size=d, max_size=d),
           st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=d ** 3, max_size=d ** 3))))
def test_weak_obstruction_is_the_first_row_obstruction(case):
    # the refuted element and its details are those of the public test
    # walked over the generators, then the sums of at most two
    scales, flat = case
    d = len(scales)
    m = LatticeMonoid(d, [tuple(c * (i == j) for j in range(d)) for i, c in enumerate(scales)])
    op = BiadditiveOp(m, tensor=_flat_tensor(flat, d))
    cert = is_weakly_localizable(op)
    elements = list(m.generators) + m.element_pool(2)
    first = next(filter(None, (monomial_row_obstruction(op, a0) for a0 in elements)), None)
    if first is None:
        assert cert.verdict == "yes"
    else:
        assert (cert.verdict, cert.details) == ("no", {"obstruction": first})
        assert list(cert.refuted) == first["element"]


# ---------------------------------------------------------------------------
# the ray-product table on simplicial closed carriers


def _unimodular_rays(rng, d):
    """Rows of a random unimodular d x d matrix: the identity, rows permuted
    and negated at random, then a few ``row_i += t * row_j`` steps."""
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    rng.shuffle(rows)
    rows = [[-v for v in row] if rng.random() < 0.3 else row for row in rows]
    for _ in range(rng.randint(0, 4)):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i != j:
            t = rng.choice([-1, 1])
            rows[i] = [a + t * b for a, b in zip(rows[i], rows[j])]
    return [tuple(row) for row in rows]


def _ray_coordinate_tensor(rays, products):
    """The tensor of ``mu(r_i, r_j) = sum_k products[i][j][k] r_k`` for the
    rows r_i of a unimodular matrix U: ``T[a][b][c] = sum inv[a][i]
    inv[b][j] products[i][j][k] U[k][c]`` with ``inv = U^-1``, integral."""
    d = len(rays)
    det, adj = exactmath.int_adjugate([list(r) for r in rays])
    assert det in (1, -1)
    inv = [[det * v for v in row] for row in adj]
    return [[[sum(inv[a][i] * inv[b][j] * products[i][j][k] * rays[k][c]
                  for i in range(d) for j in range(d) for k in range(d))
              for c in range(d)] for b in range(d)] for a in range(d)]


def _ray_products(rng, d):
    """Ray-coordinate products: a diagonal ``products[i][i][i]`` in 0..2
    and at most two off-diagonal entries in 1..2, so that bad rays, good
    rays and both verdicts occur."""
    products = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        products[i][i][i] = rng.randint(0, 2)
    for _ in range(rng.randint(0, 2)):
        i, j, k = (rng.randrange(d) for _ in range(3))
        if not i == j == k:
            products[i][j][k] = rng.randint(1, 2)
    return products


def _drawn_carrier(rng):
    """A simplicial closed carrier of dimension <= 3 with its kind: a
    lattice on a unimodular ray basis, with up to two extra generators that
    are nonnegative combinations of the rays, or a closed orthant, integer
    or rational; with its rays."""
    d = rng.randint(1, 3)
    kind = rng.choice(["unimodular", "unimodular", "integer-orthant", "rational-orthant"])
    if kind.endswith("orthant"):
        rays = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        return kind, orthant(d, kind.split("-")[0]), rays
    rays = _unimodular_rays(rng, d)
    extra = [tuple(sum(c * r[k] for c, r in zip(coeffs, rays)) for k in range(d))
             for coeffs in ([rng.randint(0, 2) for _ in range(d)]
                            for _ in range(rng.randint(0, 2)))]
    gens = rays + extra
    rng.shuffle(gens)
    return kind, LatticeMonoid(d, gens), rays


def test_table_verdicts_are_the_two_sided_decision():
    # every pool element of every drawn operation, closed on its carrier:
    # verdict and reason are those of the decision without the table, and
    # the evidence of a "no" is built and re-validated
    rng = seeded(28)
    seen = Counter()
    for _ in range(160):
        kind, m, rays = _drawn_carrier(rng)
        if rng.random() < 0.25:
            tensor = _closed_tensor(rng, m)
        else:
            tensor = _ray_coordinate_tensor(rays, _ray_products(rng, m.dim))
        op = BiadditiveOp(m, tensor=tensor)
        pool = m.element_pool(2)
        if kind == "rational-orthant":
            pool += [tuple(Fraction(v, 2) for v in s) for s in pool if any(s)]
        for s in pool:
            got = _decided(op, s)
            assert got == _two_sided_reference(op, s), (m.rays, tensor, s)
            seen[(kind, got[0])] += 1
        if localizability._ray_table(op).obstruction is None:
            assert is_strongly_localizable(op)["confirmed"] == "structural"
    for kind in ("unimodular", "integer-orthant", "rational-orthant"):
        for verdict in ("yes", "no"):
            assert seen[(kind, verdict)] > 0, (kind, verdict, seen)


def test_a_skewed_lattice_with_a_ray_diagonal_product_is_strongly_localizable():
    # generators (1, 0) and (1, 1) form a unimodular ray basis, so the
    # product that is diagonal in ray coordinates has an integral tensor;
    # the carrier is no orthant, and its "yes" was sampled without the table
    rays = [(1, 0), (1, 1)]
    tensor = _ray_coordinate_tensor(rays, [[[1, 0], [0, 0]], [[0, 0], [0, 2]]])
    assert tensor == [[[1, 0], [-1, 0]], [[-1, 0], [3, 2]]]
    op = BiadditiveOp(LatticeMonoid(2, rays), tensor=tensor)
    strong = is_strongly_localizable(op)
    assert (strong["verdict"], strong["confirmed"]) == ("yes", "structural")
    assert strong["reason"].startswith("ray lemma")
    assert all(is_localizable(op, s).verdict == "yes" for s in op.carrier.element_pool(3))


def _counted(monkeypatch, module, name, calls):
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: calls.update([name]) or real(*args))


@pytest.mark.parametrize("name", [name for name, op in weakly_localizable_ops()
                                  if isinstance(op.carrier, LatticeMonoid)])
def test_weak_search_on_the_lattice_corpus_runs_no_damped_map(monkeypatch, mu_calls, name):
    # every lattice carrier of the corpus is a free monoid whose ray-product
    # table has no bad ray, so the table answers "yes" with no element
    # decided and no damped map built: no damped product is formed, looked
    # up or multiplied, no product is formed by op.mu, and no preimage cone
    # is built
    calls = Counter()
    for target in ("_vector_left", "is_localizable", "_product"):
        _counted(monkeypatch, localizability, target, calls)
    op = dict(weakly_localizable_ops())[name]
    op.carrier.cone.h_rep
    double_descriptions = _counted_double_description(monkeypatch)
    assert is_weakly_localizable(op).verdict == "yes"
    assert (calls, calls_of(mu_calls, op), double_descriptions) == (Counter(), [], [])


def _planted_table(op, bad, obstruction=None):
    """A ray table of the free monoid's unit rays with the given bad rays."""
    rays = [(1, 0), (0, 1)]
    zero_sets = [localizability._zero_set(op.carrier.cone.h_rep, r) for r in rays]
    return localizability.RayTable(rays, zero_sets, [1, 1], bad, obstruction, True)


@pytest.mark.parametrize("bad,s", [
    (([0], []), (1, 0)),
    (([], [1]), (2, 1)),
])
def test_a_table_refutation_the_preimage_keeps_is_an_internal_error(monkeypatch, bad, s):
    # a planted table calls a localizable side bad: the "no" it gives finds
    # no escaping ray when its evidence is read, so the decision fails
    # loudly, and the command renders no report
    op = elementwise_op(2)
    op._cache["ray_table"] = _planted_table(op, bad)
    v = is_localizable(op, s)
    assert v.verdict == "no"
    with pytest.raises(InternalCheckError, match="ray-product table"):
        v.as_dict()
    monkeypatch.setattr(localizability, "_polyhedral_ray_table",
                        lambda op: _planted_table(op, bad))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["localizable", instance_path("free-monoid-2.mon"), "%d,%d" % s])
    assert (code, out.getvalue()) == (cli.EXIT_INTERNAL, "")


@pytest.mark.parametrize("s,refuted,verdict,reason", [
    ((1, 0), False, "yes", "both sides localizable"),
    ((1, 1), True, "no", f"opposite condition fails: {ESCAPES}"),
])
def test_only_a_side_the_table_refutes_runs_the_damped_map(monkeypatch, mu_calls, s, refuted,
                                                           verdict, reason):
    # the quarter plane with the facet x = 0 excluded and mu(e0, e1) = e1:
    # e1 is right-bad and no ray is left-bad, so a side with no bad ray in
    # the face of s holds by the table, and only the right side of an
    # element with a positive e1 coordinate builds its damped map, by one
    # product with s per basis vector (a ray s would read them off the
    # table, so the products are counted whether looked up or multiplied);
    # the preimage cone is built only when the evidence of the "no" is read
    quarter = RationalCone.from_rays([(1, 0), (0, 1)], 2)
    op = BiadditiveOp(OpenConeMonoid(quarter, [(1, 0)]),
                      tensor=[[[0, 0], [0, 1]], [[0, 0], [0, 0]]])
    table = localizability._ray_table(op)
    assert table.bad[0] == [] and [table.rays[i] for i in table.bad[1]] == [(0, 1)]
    op.carrier.cone.h_rep
    calls = Counter()
    _counted(monkeypatch, localizability, "_product", calls)
    double_descriptions = _counted_double_description(monkeypatch)
    v = is_localizable(op, s)
    assert (v.verdict, v.reason) == (verdict, reason)
    damped = [((1, 0), s), ((0, 1), s)] if refuted else []
    assert calls["_product"] == len(damped)
    assert (calls_of(mu_calls, op), double_descriptions) == (damped, [])
    v.as_dict()
    assert len(double_descriptions) == refuted


def test_a_side_the_table_refutes_checks_the_element_once(monkeypatch):
    # the quarter plane of the test above: (1, 1) is refuted on the right,
    # and the one-sided decision there takes the element is_localizable checked
    quarter = RationalCone.from_rays([(1, 0), (0, 1)], 2)
    m = OpenConeMonoid(quarter, [(1, 0)])
    op = BiadditiveOp(m, tensor=[[[0, 0], [0, 1]], [[0, 0], [0, 0]]])
    checked = []
    check = m.check_element
    monkeypatch.setattr(m, "check_element", lambda x: checked.append(x) or check(x))
    assert is_localizable(op, (1, 1)).verdict == "no"
    assert checked == [(1, 1)]


def test_a_strong_refutation_the_table_cannot_witness_is_an_internal_error():
    # a planted table names an obstruction on a ray it calls bad on neither
    # side, so the ray is localizable: the strong verdict neither samples
    # nor says yes, it fails loudly
    op = elementwise_op(2)
    obstruction = {"element": [1, 0], "side": "left", "row": 0, "positive_columns": [0, 1]}
    op._cache["ray_table"] = _planted_table(op, ([], []), obstruction)
    with pytest.raises(InternalCheckError, match="ray-product table"):
        is_strongly_localizable(op)


FOUR_RAYS = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)]


def test_the_table_declines_only_an_operation_not_closed_on_the_cone():
    # a cone that is not pointed (the half-plane), a cone with more facets
    # than the span's rank and an excluded face all have a table; a product
    # outside the cone has none, and the bulk verdicts refuse it with the
    # product that leaves the carrier.  A finite carrier is decided by
    # theorem before any table is built
    quarter = RationalCone.from_rays([(1, 0), (0, 1)], 2)
    tabled = [
        BiadditiveOp(OpenConeMonoid(quarter, [(1, 0)]), tensor=diagonal_tensor(2, [1, 1])),
        half_plane_op(),
        BiadditiveOp(LatticeMonoid(3, FOUR_RAYS), tensor=diagonal_tensor(3, [0, 0, 0])),
        elementwise_op(3),
    ]
    tables = [localizability._ray_table(op) for op in tabled]
    assert [t.decisive for t in tables] == [True, False, True, True]
    assert tables[1].rays == [(1, 0)] and tables[1].obstruction is None
    assert tables[2].rays == FOUR_RAYS
    assert tables[3].bad == ([], []) and tables[3].obstruction is None
    outside = BiadditiveOp(free_monoid(2), tensor=[[[0, -1], [0, 0]], [[0, 0], [0, 0]]])
    assert localizability._ray_table(outside) is None
    finite = saturating_product_op(truncated_free_monoid(2, cap=2))
    assert is_weakly_localizable(finite).verdict == "yes"
    assert is_strongly_localizable(finite)["verdict"] == "yes"
    assert all(is_localizable(finite, s).verdict == "yes" for s in finite.carrier.elements())
    assert "ray_table" not in finite._cache
    for check in (is_weakly_localizable, is_strongly_localizable):
        with pytest.raises(InputError, match=r"element \(0, -1\) is not a generator combination"):
            check(outside)


NOT_CLOSED = [[[0, -1], [0, 0]], [[0, 0], [0, 0]]]  # mu(e0, e1) = -e1


@pytest.mark.parametrize("m", [free_monoid(2), _open_quadrant((1, 0))],
                         ids=["lattice", "open-cone"])
def test_one_element_of_an_operation_not_closed_is_refused_like_the_bulk_verdicts(m):
    # one element's decision reads the ray table, whose proof needs the
    # operation closed on the closed cone: it refuses an operation that is
    # not with the same product outside as the weak verdict, on either side
    op = BiadditiveOp(m, tensor=NOT_CLOSED)
    with pytest.raises(InputError) as weak:
        is_weakly_localizable(op)
    assert "(0, -1)" in str(weak.value)
    for s in ((1, 0), (1, 1), (2, 1)):
        for decide in (lambda: is_localizable(op, s), lambda: is_left_localizable(op, s),
                       lambda: is_left_localizable(op, s, "right")):
            with pytest.raises(InputError) as one:
                decide()
            assert str(one.value) == str(weak.value)


def test_table_refutations_and_structural_yes_hold_on_drawn_carriers():
    # a weak "no" refutes a member ray above which no pool element is
    # localizable by the decision without the table, and the strong verdict
    # refutes the same ray; a structural strong "yes" has every ray
    # product diagonal in ray coordinates, with the reported weights
    rng = seeded(30)
    seen = Counter()
    for _ in range(120):
        kind, m, rays = _drawn_carrier(rng)
        d = m.dim
        op = BiadditiveOp(m, tensor=_ray_coordinate_tensor(rays, _ray_products(rng, d)))
        strong = is_strongly_localizable(op)
        if strong["confirmed"] == "structural":
            weights = dict(zip(map(tuple, strong["rays"]), strong["weights"]))
            assert len(weights) == d
            for ri, wi in weights.items():
                for rj in weights:
                    want = vscale(wi, ri) if ri == rj else (0,) * d
                    assert op.mu(ri, rj) == want, (m.rays, ri, rj)
            seen[(kind, "yes")] += 1
            continue
        weak = is_weakly_localizable(op)
        r = weak.refuted
        assert weak.verdict == "no" and m.contains(r)
        assert strong["verdict"] == "no" and strong["refuted_element"] == _ser(r)
        above = [s for s in m.element_pool(2) if leq(m, r, s)]
        assert r in above
        assert all(_two_sided_reference(op, s)[0] == "no" for s in above)
        seen[(kind, "no")] += 1
    for kind in ("unimodular", "integer-orthant", "rational-orthant"):
        assert seen[(kind, "yes")] > 0 and seen[(kind, "no")] > 0, seen


# ---------------------------------------------------------------------------
# one ray lemma: every bulk verdict reads the table, and none rests on a search


def test_the_table_weak_verdict_holds_against_the_decision():
    # on drawn pointed simplicial carriers (lattices, closed orthants, and
    # cones on the same rays with up to all facets excluded) a weak "yes"
    # assigns each member ray to itself, localizable by the decision
    # without the table, and nothing in the pool above a weak refutation
    # is; on every pool element the lemma's verdict is the decision's
    rng = seeded(31)
    seen = Counter()
    for _ in range(120):
        kind, m, rays = _drawn_carrier(rng)
        if kind == "unimodular" and rng.random() < 0.5:
            cone = RationalCone.from_rays(rays, m.dim)
            faces = rng.sample(cone.h_rep, rng.randint(0, m.dim))
            kind, m = "open-cone" if faces else "closed-cone", OpenConeMonoid(cone, faces)
        op = BiadditiveOp(m, tensor=_ray_coordinate_tensor(rays, _ray_products(rng, m.dim)))
        table = localizability._ray_table(op)
        bad = [table.rays[i] for i in table.bad[0] + table.bad[1]]
        tabled = is_weakly_localizable(op)
        members = [tuple(r) for r in m.rays if m.contains(r)]
        if tabled.verdict == "yes":
            assert tabled.assignments == {r: r for r in members}
            assert tabled.reason == "localizable dominator found for every queried element"
            for a in members:
                assert _two_sided_reference(op, a)[0] == "yes"
        else:
            e = tabled.refuted
            above = [s for s in m.element_pool(3) if leq(m, e, s)]
            assert m.contains(e) and e in above
            assert all(_two_sided_reference(op, s)[0] == "no" for s in above)
        for s in m.element_pool(2):
            face = [h for h in m.cone.h_rep if vdot(h, s) == 0]
            lemma = "no" if any(all(vdot(h, r) == 0 for h in face) for r in bad) else "yes"
            assert _two_sided_reference(op, s)[0] == lemma, (m.rays, op.tensor, s)
            if kind == "open-cone":
                # with an excluded face each element's reason is the
                # reference's, as a killed direction is no escaping preimage
                assert _decided(op, s) == _two_sided_reference(op, s)
        seen[(kind, tabled.verdict)] += 1
    for kind in ("unimodular", "integer-orthant", "rational-orthant", "closed-cone", "open-cone"):
        assert seen[(kind, "yes")] > 0 and seen[(kind, "no")] > 0, seen


def test_with_an_excluded_face_a_singular_damped_map_keeps_its_reason():
    # mu(e1, e1) = e2 and mu(e1, e2) = e1 on the quarter-plane: s = (1, 1)
    # has the singular damped map (x, y) -> (x + y, x + y).  With a face
    # excluded the decision refutes it by the killed direction, and the
    # verdict keeps that reason, while the table still answers the whole
    # carrier: e1 is bad, so nothing above it is localizable
    quarter = RationalCone.from_rays([(1, 0), (0, 1)], 2)
    op = BiadditiveOp(OpenConeMonoid(quarter, [(1, 0)]),
                      tensor=[[[0, 1], [1, 0]], [[0, 0], [0, 0]]])
    assert op.validate() == []
    got = _decided(op, (1, 1))
    assert got == _two_sided_reference(op, (1, 1))
    assert got == ("no", f"left condition fails: {KILLS}")
    assert is_weakly_localizable(op).verdict == "no"
    assert is_strongly_localizable(op)["verdict"] == "no"


def _drawn_operation(rng):
    """A finite, lattice or open-cone operation of dimension or size <= 3,
    with its kind; vector tensors have entries 0..2, and an open cone
    excludes up to two of its facets."""
    kind = rng.choice(["finite", "lattice", "open-cone"])
    if kind == "finite":
        return kind, rng.choice(_enumerated_ops(rng.choice(sorted(SMALL_FINITE_CARRIERS))))
    d = rng.randint(1, 3)
    tensor = [[[rng.choice([0, 0, 0, 1, 2]) for _ in range(d)] for _ in range(d)]
              for _ in range(d)]
    vectors = [tuple(rng.randint(-1, 2) for _ in range(d)) for _ in range(rng.randint(1, 4))]
    vectors.append(tuple(int(i == 0) for i in range(d)))
    if kind == "lattice":
        return kind, BiadditiveOp(LatticeMonoid(d, vectors), tensor=tensor)
    cone = RationalCone.from_rays(vectors, d)
    normals = rng.sample(cone.h_rep, min(len(cone.h_rep), rng.randint(0, 2)))
    return kind, BiadditiveOp(OpenConeMonoid(cone, normals), tensor=tensor)


def test_no_strong_yes_rests_on_a_search():
    # over drawn finite, lattice and open-cone operations a strong "yes" is
    # the finite theorem or the ray table's; an operation not closed on its
    # cone is refused, and "unknown" is left only to excluded faces with a
    # lineality space of dimension at least 2
    rng = seeded(131)
    seen = Counter()
    for _ in range(150):
        kind, op = _drawn_operation(rng)
        try:
            strong = is_strongly_localizable(op)
        except InputError as exc:
            # a degenerate cone, or a product that leaves the carrier
            assert "origin" in str(exc) or localizability._ray_table(op) is None
            seen[(kind, "raised")] += 1
            continue
        if strong["verdict"] == "yes":
            assert strong["confirmed"] in ("theorem", "structural"), strong
        elif strong["verdict"] == "unknown":
            m = op.carrier
            assert m.open_normals and len(m.cone.lineality_basis) >= 2
        seen[(kind, strong["verdict"])] += 1
    assert seen[("finite", "yes")] > 0
    for kind in ("lattice", "open-cone"):
        for verdict in ("yes", "no", "raised"):
            assert seen[(kind, verdict)] > 0, (kind, verdict, seen)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_rational_orthant_is_weakly_localizable_at_its_rays(d):
    # the table has no bad ray, so every member ray is its own dominator
    op = BiadditiveOp(orthant(d, "rational"), tensor=diagonal_tensor(d, [1] * d))
    cert = is_weakly_localizable(op)
    assert cert.verdict == "yes"
    assert cert.assignments == {r: r for r in map(tuple, op.carrier.rays)}
    assert len(cert.assignments) == d


# ---------------------------------------------------------------------------
# the ray lemma on drawn polyhedral carriers


def _closed_tensor(rng, m, line=None):
    """A tensor closed on the carrier's cone C: a sum of ``phi(x) y``,
    ``psi(y) x`` and ``phi(x) psi(y) v`` terms, with phi and psi
    nonnegative combinations of facet normals and v a ray, plus, when
    ``line`` spans a lineality line, ``f(x, y) u`` with f any bilinear
    form, a product that L absorbs in both signs."""
    d = m.dim
    normals, rays = m.cone.h_rep, list(m.rays)
    t = [[[0] * d for _ in range(d)] for _ in range(d)]

    def form():
        coeffs = [rng.choice([0, 0, 1, 2]) for _ in normals]
        return [sum(c * h[i] for c, h in zip(coeffs, normals)) for i in range(d)]

    for _ in range(rng.randint(1, 3)):
        shape = rng.choice(["left", "right", "outer"])
        phi, psi, v = form(), form(), rng.choice(rays)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if shape == "left":
                        t[i][j][k] += phi[i] * (j == k)
                    elif shape == "right":
                        t[i][j][k] += psi[j] * (i == k)
                    else:
                        t[i][j][k] += phi[i] * psi[j] * v[k]
    if line is not None:
        f = [[rng.choice([-1, 0, 0, 1]) for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    t[i][j][k] += f[i][j] * line[k]
    return t


def _drawn_polyhedral(rng):
    """A lattice or open cone of dimension <= 4 on random rays (entries
    -2..2), pointed or not and simplicial or not as drawn, with up to two
    facets excluded on a cone, and a tensor closed on its cone (with a
    product into the line, when one is planted) or, one time in six, a
    random one."""
    d = rng.randint(1, 4)
    vectors = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(2, 6))]
    vectors.append(tuple(int(i == 0) for i in range(d)))
    line = None
    if d >= 3 and rng.random() < 0.3:
        # a lineality line beside a quarter plane, or beside a square cone
        # in rank 3 (four rays)
        rays = [(1, 0), (0, 1)] if d == 3 else FOUR_RAYS
        line = (0,) * (d - 1) + (1,)
        vectors = [r + (0,) for r in rays] + [line, vneg(line)]
    if rng.random() < 0.5:
        kind, m = "lattice", LatticeMonoid(d, vectors)
    else:
        cone = RationalCone.from_rays(vectors, d)
        faces = rng.sample(cone.h_rep, min(len(cone.h_rep), rng.randint(0, 2)))
        kind, m = ("open-cone" if faces else "closed-cone"), OpenConeMonoid(cone, faces)
    if rng.random() < 1 / 6:
        tensor = [[[rng.randint(-1, 1) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    else:
        tensor = _closed_tensor(rng, m, line)
    return kind, m, BiadditiveOp(m, tensor=tensor)


def test_the_ray_lemma_is_the_one_sided_decision_on_drawn_carriers():
    # on every pool element and both sides, _left's verdict and reason are
    # those of the reference without the table; where the table decides (a
    # bad ray in the face of s refutes; with no bad ray a decisive table
    # proves) they are its verdict, and a side it leaves to the damped map
    # (excluded faces and a lineality space) is compared as well.  The bulk
    # verdicts follow: a weak "no" refutes a member above which nothing in
    # the pool is localizable, and on a cone the strong verdict refutes the
    # same member or, with "yes", leaves every pool element localizable (a
    # lattice's strong "no" builds its witness by a membership search, left
    # out here).  An operation not closed on its cone is refused
    rng = seeded(38)
    seen = Counter()
    for _ in range(600):
        kind, m, op = _drawn_polyhedral(rng)
        try:
            table = localizability._ray_table(op)
        except InputError:
            seen["degenerate"] += 1
            continue
        pool = [s for s in m.element_pool(2) if any(s)]
        if isinstance(m, OpenConeMonoid):
            pool += [tuple(Fraction(v, 2) for v in s) for s in pool]
        if table is None:
            for check in (is_weakly_localizable, is_strongly_localizable,
                          lambda op: is_localizable(op, pool[0])):
                with pytest.raises(InputError):
                    check(op)
            seen["declined"] += 1
            continue
        lineality = len(m.cone.lineality_basis)
        shape = ("lineality" if lineality else "pointed",
                 "simplicial" if len(table.rays) + lineality == len(m.span_basis)
                 else "not simplicial")
        for s in pool:
            z = localizability._zero_set(m.cone.h_rep, s)
            for side in ("left", "right"):
                bad = any(z | table.zero_sets[i] == table.zero_sets[i]
                          for i in table.bad[side == "right"])
                decided = localizability._left(op, s, side)
                got = (decided.verdict, decided.reason)
                assert got == _one_sided_reference(op, s, side), (
                    m.rays, m.open_normals, op.tensor, s, side)
                if bad:
                    assert got[0] == "no"
                elif table.decisive:
                    assert got[0] == "yes"
                else:
                    seen["undecided"] += 1
                    seen[("undecided",) + got] += 1
                    continue
                seen[(kind,) + shape + (got[0],)] += 1
        weak = is_weakly_localizable(op)
        if weak.verdict == "no":
            e = weak.refuted
            assert m.contains(e)
            assert all(is_localizable(op, s).verdict == "no" for s in pool if leq(m, e, s))
        if isinstance(m, OpenConeMonoid):
            strong = is_strongly_localizable(op)
            if weak.verdict == "no":
                assert strong["refuted_element"] == _ser(weak.refuted)
            elif strong["verdict"] == "yes":
                assert all(is_localizable(op, s).verdict == "yes" for s in pool)
    assert seen["declined"] > 0 and seen["undecided"] >= 500, seen
    # with no bad ray in its face, an undecided side is decided by the kernel
    assert seen[("undecided", "yes", INSIDE)] > 0 and seen[("undecided", "no", KILLS)] > 0, seen
    for kind in ("lattice", "closed-cone", "open-cone"):
        for verdict in ("yes", "no"):
            assert seen[(kind, "pointed", "not simplicial", verdict)] > 0, (kind, verdict, seen)
            if kind != "open-cone":
                for shape in ("simplicial", "not simplicial"):
                    assert seen[(kind, "lineality", shape, verdict)] > 0, (kind, verdict, seen)


def test_the_line_rule_decides_strong_localizability_with_excluded_faces():
    # open cones with a lineality line and excluded faces: a strong "yes"
    # leaves every pool element localizable, and a "no" names a member
    # that the decision refutes, with a re-validated witness
    rng = seeded(39)
    seen = Counter()
    for _ in range(150):
        d = rng.randint(2, 4)
        u = tuple(rng.randint(-1, 1) for _ in range(d))
        if not any(u):
            continue
        vectors = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, 3))]
        cone = RationalCone.from_rays(vectors + [u, vneg(u)], d)
        if len(cone.lineality_basis) != 1 or not cone.h_rep:
            continue
        m = OpenConeMonoid(cone, rng.sample(cone.h_rep, rng.randint(1, min(2, len(cone.h_rep)))))
        try:
            m.interior_point()
        except InputError:
            continue
        op = BiadditiveOp(m, tensor=_closed_tensor(rng, m, line=cone.lineality_basis[0]))
        assert not localizability._ray_table(op).decisive
        strong = is_strongly_localizable(op)
        pool = [s for s in m.element_pool(2) if any(s)]
        if strong["verdict"] == "yes":
            assert all(is_localizable(op, s).verdict == "yes" for s in pool)
        else:
            s = tuple(Fraction(v) for v in strong["refuted_element"])
            assert m.contains(s) and is_localizable(op, s).verdict == "no"
            a, b = (tuple(Fraction(v) for v in x) for x in strong["witness"])
            assert not leq(m, a, b)
        assert is_weakly_localizable(op).verdict == ("no" if localizability._ray_table(
            op).obstruction else "yes")
        seen[strong["verdict"]] += 1
    assert seen["yes"] > 0 and seen["no"] > 0, seen


def test_excluded_faces_with_a_lineality_plane_leave_strong_unknown():
    # the half-space x > 0 of Q^3: its lineality space is a plane, the one
    # case the ray lemma leaves open for strong localizability; weak is
    # still decided, and no search runs
    space = RationalCone.from_inequalities([(1, 0, 0)], 3)
    t = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    t[0][0][0] = 1
    op = BiadditiveOp(OpenConeMonoid(space, [(1, 0, 0)]), tensor=t)
    strong = is_strongly_localizable(op)
    assert strong["verdict"] == "unknown" and "at least 2" in strong["reason"]
    assert is_weakly_localizable(op).verdict == "yes"


@pytest.mark.parametrize("name,op", weakly_localizable_ops(), ids=[n for n, _ in weakly_localizable_ops()])
def test_every_corpus_operation_is_strongly_localizable_with_no_damped_map(monkeypatch, name, op):
    # a finite carrier by theorem, a free lattice by its ray table: weak
    # and strong localizability hold and no one-sided decision runs
    calls = Counter()
    _counted(monkeypatch, localizability, "_vector_left", calls)
    assert is_weakly_localizable(op).verdict == "yes"
    strong = is_strongly_localizable(op)
    assert strong["verdict"] == "yes"
    assert strong["confirmed"] == ("theorem" if isinstance(op.carrier, FiniteMonoid)
                                   else "structural")
    assert calls == Counter()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_the_table_rays_are_the_extreme_rays_modulo_the_lineality_space(d):
    # the rays read off zero sets are, modulo L, the extreme rays that
    # double description computes, one for each
    rng = seeded(40 + d)
    seen = Counter()
    for _ in range(60):
        vectors = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, 7))]
        if not any(map(any, vectors)):
            continue
        if rng.random() < 0.5:
            m = LatticeMonoid(d, vectors)
        else:
            m = OpenConeMonoid(RationalCone.from_rays(vectors, d), [])
        op = BiadditiveOp(m, tensor=diagonal_tensor(d, [0] * d))
        rays = localizability._ray_table(op).rays
        cone = m.cone
        residues = [exactmath._reduce_mod_lineality(r, cone.lineality_basis) for r in rays]
        assert sorted(residues) == sorted(cone.extreme_rays), (vectors, rays)
        seen[(len(rays) > len(m.span_basis) - len(cone.lineality_basis),
              bool(cone.lineality_basis))] += 1
    if d >= 2:
        assert seen[(False, True)] > 0 and seen[(False, False)] > 0, seen
    if d >= 3:
        assert seen[(True, False)] > 0, seen
