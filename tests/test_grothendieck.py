"""Difference groups, saturation closures, reduced orders, transfer checks."""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoidorder.core import InputError, vadd
from monoidorder.exactmath import RationalCone, solve_nonneg_rational
from monoidorder.grothendieck import grothendieck, nabla, pi12
from monoidorder.monoids import (FiniteMonoid, LatticeMonoid, OpenConeMonoid,
                                 approx, free_monoid, half_open_half_plane, leq)

from conftest import (cone_corpus, default_pairs, finite_corpus, instance_path,
                      lattice_corpus, rational_solve, sample_elements)


def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# difference-group structure


@pytest.mark.parametrize("name,m", finite_corpus())
def test_finite_iota_is_additive(name, m):
    # the embedding a -> a + e into the kernel group is additive, and the
    # class numbering tells its images apart
    gg = grothendieck(m)
    e, _ = m.kernel
    for a in range(m.n):
        for b in range(m.n):
            assert m.add(m.add(a, b), e) == m.add(m.add(a, e), m.add(b, e))
            assert (gg.iota[a] == gg.iota[b]) == (m.add(a, e) == m.add(b, e))
    assert gg.iota[0] == 0


@pytest.mark.parametrize("name,m", finite_corpus())
def test_stable_equality_matches_definition(name, m):
    # some t with a + t == b + t exactly when a + e == b + e: the
    # difference group is the kernel group
    e, _ = m.kernel
    for a in range(m.n):
        for b in range(m.n):
            want = any(m.add(a, t) == m.add(b, t) for t in range(m.n))
            assert (m.add(a, e) == m.add(b, e)) == want


def test_lattice_difference_group_basis():
    # a vector carrier is its own difference group: span_basis spans it
    m = LatticeMonoid(2, [(1, 0), (1, 2)])
    assert m.groth_kind == "lattice"
    assert [list(row) for row in m.span_basis] == [[1, 0], [0, 2]]
    assert [list(row) for row in free_monoid(2).span_basis] == [[1, 0], [0, 1]]


def test_cone_difference_group_span():
    m = half_open_half_plane()
    assert m.groth_kind == "cone"
    assert list(m.span_basis) == [(1, 0), (0, 1)]


# ---------------------------------------------------------------------------
# saturation closures of vector carriers


def _positive(red, x) -> bool:
    """Whether x lies in the positive part of a vector reduction."""
    zero = tuple(0 for _ in x)
    return red.leq(red.iota(zero), red.project(x))


def test_lattice_up_closure_is_cone_intersect_lattice():
    # both closures of a lattice monoid are its cone's lattice points
    m = LatticeMonoid(2, [(1, 0), (1, 2)])
    n1, n2 = nabla(m, 1), nabla(m, 2)
    for x in range(-4, 5):
        for y in range(-4, 5, 2):
            in_cone = solve_nonneg_rational([(1, 0), (1, 2)], (x, y)) is not None
            assert _positive(n1, (x, y)) == _positive(n2, (x, y)) == in_cone


def test_cone_closures_open_faces():
    # level 1 keeps the excluded face out; level 2 takes the closed cone
    m = half_open_half_plane()
    n1, n2 = nabla(m, 1), nabla(m, 2)
    assert _positive(n1, (1, 0)) and _positive(n1, (Fraction(1, 2), -7))
    assert not _positive(n1, (0, 1)) and not _positive(n1, (-1, 0))
    assert _positive(n2, (0, 1)) and _positive(n2, (0, -3)) and _positive(n2, (1, 5))
    assert not _positive(n2, (-1, 0))


# ---------------------------------------------------------------------------
# reduced orders and the two transfer lemmas


@pytest.mark.parametrize("name,m", finite_corpus())
def test_finite_transfer_exhaustive(name, m):
    n1, n2 = nabla(m, 1), nabla(m, 2)
    for a in range(m.n):
        for b in range(m.n):
            assert leq(m, a, b) == n1.leq(n1.iota(a), n1.iota(b))
            assert approx(m, a, b) == n2.eq(n2.iota(a), n2.iota(b))


@pytest.mark.parametrize("name,m", lattice_corpus() + cone_corpus())
def test_polyhedral_transfer_sampled(name, m):
    n1, n2 = nabla(m, 1), nabla(m, 2)
    for a, b in default_pairs(m, 200):
        assert leq(m, a, b) == n1.leq(n1.iota(a), n1.iota(b))
        assert approx(m, a, b) == n2.eq(n2.iota(a), n2.iota(b))


@pytest.mark.parametrize("name,m",
                         finite_corpus() + lattice_corpus() + cone_corpus())
def test_lemma_checkers_report_clean(name, m):
    # both transfer lemmas read through the connecting morphism: level-1
    # classes mapped to level 2 are ordered when the elements are, and equal
    # exactly when the elements are equivalent
    n1, n2, p = nabla(m, 1), nabla(m, 2), pi12(m)
    for a, b in default_pairs(m):
        pa, pb = p.map(n1.iota(a)), p.map(n1.iota(b))
        assert n2.eq(pa, pb) == approx(m, a, b)
        if leq(m, a, b):
            assert n2.leq(pa, pb)


@pytest.mark.parametrize("name,m", finite_corpus())
def test_kernel_crosscheck_and_pi12(name, m):
    # every member of the kernel group K has a positive multiple equal to
    # its identity, the image of 0: the saturation and the order kernel
    # are all of K, whose size the reductions report
    e, neg = m.kernel
    for y in neg:
        assert any(m.sum_elements([y] * k) == e for k in range(1, len(neg) + 1))
        assert m.add(y, neg[y]) == e
    assert len(neg) == grothendieck(m).classes
    for level in (1, 2):
        assert nabla(m, level).describe()["kernel_size"] == len(neg)
    report = pi12(m).report
    assert report["bijective"]
    assert all(c["ok"] for c in report["checks"])


def _sample_pi12_checks(p):
    """The connecting morphism's triangle and additivity, checked as before
    the basis checks: on sums of at most two generators (a lattice) or on
    eight samples and 0 (a cone), and on the pairs of the first six."""
    m, r1, r2 = p.monoid, p.red1, p.red2
    if isinstance(m, LatticeMonoid):
        samples = m.element_pool(2)
    else:
        samples = sample_elements(m, 8) + [tuple(Fraction(0) for _ in range(m.dim))]
    triangle = all(r2.eq(p.map(r1.iota(a)), r2.iota(a)) for a in samples)
    additive = all(
        r2.eq(p.map(vadd(r1.iota(a), r1.iota(b))),
              vadd(p.map(r1.iota(a)), p.map(r1.iota(b))))
        for a in samples[:6] for b in samples[:6])
    return [{"name": "triangle", "ok": triangle}, {"name": "additivity", "ok": additive}]


def _plane_lineality_cone():
    closed = RationalCone.from_rays(
        [(-3, 1, 0), (-1, 1, -1), (1, -1, 1), (1, 0, 0), (3, -1, 0)], 3)
    return OpenConeMonoid(closed, [(1, 3, 2)])


@pytest.mark.parametrize("name,m", lattice_corpus() + cone_corpus()
                         + [("plane-lineality", _plane_lineality_cone())])
def test_pi12_basis_checks_agree_with_the_sample_checks(name, m):
    report = pi12(m).report
    assert report["checks"][:2] == _sample_pi12_checks(pi12(m))
    assert all(c["ok"] for c in report["checks"])


@st.composite
def cones_with_points(draw):
    """An open-cone carrier on one to three integer rays in dimension <= 3
    (its span can be a proper subspace), a rational point of its span with
    the coefficients that build it, and a rational point of Q^d."""
    d = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    rays = draw(st.lists(vector.filter(any), min_size=1, max_size=3))
    m = OpenConeMonoid(RationalCone.from_rays(rays, d), [])
    rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    coeffs = draw(st.lists(rational, min_size=len(m.span_basis), max_size=len(m.span_basis)))
    on_span = tuple(sum((c * b[j] for c, b in zip(coeffs, m.span_basis)), Fraction(0))
                    for j in range(d))
    anywhere = tuple(draw(st.lists(rational, min_size=d, max_size=d)))
    return m, coeffs, on_span, anywhere


@given(cones_with_points())
def test_open_cone_coordinates_equal_the_gaussian_solve(case):
    m, coeffs, on_span, anywhere = case
    got = m.coordinates(on_span)
    assert got == coeffs == rational_solve(m.span_basis, on_span)
    assert all(type(c) is Fraction for c in got)
    assert m.coordinates(anywhere) == rational_solve(m.span_basis, anywhere)


def test_open_cone_coordinates_refuse_points_off_the_span():
    m = OpenConeMonoid(RationalCone.from_rays([(1, 0, 1), (0, 1, 1)], 3), [])
    assert m.coordinates((1, 1, 2)) == [1, 1]
    assert m.coordinates((1, 1, 1)) is None
    assert m.coordinates((Fraction(1, 2), 0, Fraction(1, 3))) is None


def test_grothendieck_on_the_half_plane_solves_no_linear_system(monkeypatch):
    # work counters do not jitter: the map's checks read the span basis and
    # the unit classes, and open-cone coordinates back-substitute on the
    # echelon basis (280 Gaussian solves and 279 projections before); every
    # rational solve and kernel goes through the reduced echelon form
    from monoidorder import exactmath
    from monoidorder.cli import main
    from monoidorder.grothendieck import ReducedVector
    calls = {"solve": 0, "project": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(exactmath, "_reduced_echelon",
                        counted("solve", exactmath._reduced_echelon))
    monkeypatch.setattr(ReducedVector, "project", counted("project", ReducedVector.project))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["grothendieck", instance_path("half-open-half-plane.mon")])
    assert code == 0 and '"ok": true' in out.getvalue()
    assert calls["solve"] == 0
    assert calls["project"] <= 20


def test_lattice_project_reconstruct_roundtrip():
    m = LatticeMonoid(2, [(1, 0), (1, 2)])
    n1 = nabla(m, 1)
    for x in [(3, -2), (0, 0), (1, 2), (-4, 6)]:
        assert n1.reconstruct(n1.project(x)) == x
    with pytest.raises(InputError):
        n1.project((3, -1))  # outside the difference lattice


def test_reduction_with_no_order_kernel_runs_no_solve(monkeypatch):
    # with k = 0 the solver would reduce [() | I] to the identity, whose
    # relations are its rows and whose adjugate is itself, so a class is its
    # coordinates and reconstructs through the span basis
    from monoidorder import grothendieck as groth
    from monoidorder.exactmath import IntegerSolver, int_adjugate
    solver = IntegerSolver(0, [()] * 3)
    identity = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    assert solver.relations == identity
    assert int_adjugate(solver.transform) == (1, [list(row) for row in identity])
    monkeypatch.setattr(groth, "IntegerSolver", None)
    m = LatticeMonoid(3, [(1, 0, 0), (1, 2, 0), (0, 1, 1)])
    n2 = nabla(m, 2)
    assert n2.kernel_rank == 0 and n2.rank == 3
    for x in [(1, 3, 1), (0, 0, 0), (2, 2, 0), (-4, 5, 3)]:
        assert n2.project(x) == tuple(m.coordinates(x))
        assert n2.reconstruct(n2.project(x)) == x
    with pytest.raises(InputError):
        n2.project((3, -2, 1))  # index 2: outside the difference lattice


def test_lattice_project_refuses_non_integral_vectors():
    with pytest.raises(InputError, match="not in the difference lattice"):
        nabla(free_monoid(2), 1).project((Fraction(1, 2), Fraction(3, 2)))


def test_cone_project_is_identity_on_full_span():
    m = half_open_half_plane()
    n1 = nabla(m, 1)
    v = (Fraction(1, 2), Fraction(3))
    assert n1.project(v) == v
    assert n1.reconstruct(n1.iota((1, 0))) == (1, 0)


def test_open_cone_classes_modulo_a_plane_of_lineality():
    # the half-space x + 3y + 2z >= 0 with its face excluded: at level 2 the
    # kernel is the plane x + 3y + 2z == 0.  Classes are read in the basis
    # that the cone's lineality vectors (1, 1, -2), (0, 2, -3) give, which
    # span an index-2 sublattice of the plane's integer points, not in a
    # saturated integer basis of the plane
    closed = RationalCone.from_rays(
        [(-3, 1, 0), (-1, 1, -1), (1, -1, 1), (1, 0, 0), (3, -1, 0)], 3)
    assert closed.lineality_basis == [(1, 1, -2), (0, 2, -3)]
    n2 = nabla(OpenConeMonoid(closed, [(1, 3, 2)]), 2)
    assert [n2.project(x) for x in ((-3, 0, 2), (-3, -2, -1), (3, 1, 3))] == \
        [(1,), (-11,), (12,)]
    assert n2.reconstruct((-1,)) == (-1, 0, 0)
    assert n2.ambient_forms == [(1,)]
    assert n2.leq(n2.iota((0, 0, 0)), n2.iota((-1, 0, 1)))
    assert not n2.leq(n2.iota((1, 0, 0)), n2.iota((0, 0, 0)))


def test_reduced_describe_is_consistent():
    # group carriers order-collapse: every element is order-equivalent to 0,
    # so the reduced group is trivial while the kernel swallows the carrier
    d1 = nabla(FiniteMonoid(_cyclic_table(5)), 1).describe()
    assert d1["group_order"] == 1
    assert d1["kernel_size"] == 5
    lat = nabla(LatticeMonoid(2, [(1, 0), (1, 2)]), 1).describe()
    assert lat["carrier"] == "lattice"
    assert lat["free_rank"] == 2 and lat["kernel_rank"] == 0
