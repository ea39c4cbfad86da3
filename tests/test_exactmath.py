"""Exact linear algebra and polyhedral geometry: frozen examples and oracles."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from monoidorder import exactmath
from monoidorder.exactmath import (CombinationSearch, InputError,
                                   IntegerLattice, InternalCheckError, RationalCone,
                                   as_int_vector, bounded_nonneg_combination,
                                   certify_extreme_rays,
                                   default_combination_bound, echelon_kernel,
                                   echelon_solve,
                                   hermite_normal_form, int_adjugate, int_det,
                                   integer_kernel, integer_solve,
                                   lp_feasible, positive_relation, primitive,
                                   sign_canonical,
                                   smith_normal_form, solve_nonneg_rational,
                                   vadd, vdot, vneg, vscale, vsub)

from conftest import (oracle_certificate, oracle_cone_from_inequalities,
                      oracle_h_rep, oracle_int_det, oracle_hermite_normal_form, oracle_primitive,
                      oracle_smith_normal_form, oracle_unit_relation,
                      rational_nullspace, rational_rank, rational_solve, seeded)

small_ints = st.integers(min_value=-6, max_value=6)
vectors3 = st.lists(small_ints, min_size=3, max_size=3)


# ---------------------------------------------------------------------------
# vector helpers


@given(vectors3, vectors3)
def test_vector_helpers_are_componentwise(a, b):
    assert list(vadd(a, b)) == [x + y for x, y in zip(a, b)]
    assert list(vsub(a, b)) == [x - y for x, y in zip(a, b)]
    assert list(vneg(a)) == [-x for x in a]
    assert list(vscale(3, a)) == [3 * x for x in a]
    assert vdot(a, b) == sum(x * y for x, y in zip(a, b))


@given(vectors3)
def test_primitive_idempotent_and_parallel(v):
    if all(x == 0 for x in v):
        return
    p = primitive(v)
    assert primitive(p) == p
    # p is parallel to v with positive proportionality
    from math import gcd
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    assert list(vscale(g, p)) == list(v)


@given(vectors3)
def test_sign_canonical_fixes_leading_sign(v):
    c = sign_canonical(v)
    assert sign_canonical(c) == tuple(c)
    nz = [x for x in c if x != 0]
    if nz:
        assert nz[0] > 0


square_matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(st.lists(small_ints, min_size=n, max_size=n),
                       min_size=n, max_size=n))


@given(square_matrices, st.booleans())
def test_adjugate_inverts_up_to_the_determinant(mat, singular):
    # a copied row makes the singular side as likely as the regular one
    if singular and len(mat) > 1:
        mat = mat[:-1] + [list(mat[0])]
    det, adj = int_adjugate(mat)
    assert det == oracle_int_det(mat)
    event(f"singular={det == 0}")
    if det == 0:
        assert adj is None
        return
    n = len(mat)
    assert all(type(v) is int for row in adj for v in row)
    for i in range(n):
        for j in range(n):
            assert sum(mat[i][k] * adj[k][j] for k in range(n)) == det * (i == j)


def test_adjugate_of_a_non_square_matrix_is_an_input_error():
    with pytest.raises(InputError, match="non-square"):
        int_adjugate([[1, 2]])


# ---------------------------------------------------------------------------
# rational solving


def test_rational_solve_example():
    rows = [(1, 0), (1, 2)]
    sol = rational_solve(rows, (3, 4))
    assert sol is not None
    assert vadd(vscale(sol[0], rows[0]), vscale(sol[1], rows[1])) == (3, 4)
    assert rational_solve([(1, 0)], (0, 1)) is None


@given(st.lists(vectors3, min_size=1, max_size=4), vectors3)
def test_rational_solve_verifies(rows, rhs):
    sol = rational_solve(rows, rhs)
    if sol is not None:
        combo = [Fraction(0)] * 3
        for c, row in zip(sol, rows):
            combo = [x + c * y for x, y in zip(combo, row)]
        assert combo == [Fraction(v) for v in rhs]


def test_rational_nullspace_is_kernel():
    rows = [(1, 2, 3), (2, 4, 6)]
    basis = rational_nullspace(rows)
    assert len(basis) == 2
    for v in basis:
        assert vdot(rows[0], v) == 0


@st.composite
def linear_systems(draw):
    """At most five vectors of dimension <= 4 with entries in -3..3, all
    integers or some fractions, and a right-hand side on their span or
    drawn anywhere (so often off it)."""
    d = draw(st.integers(1, 4))
    integer = st.integers(-3, 3)
    entry = draw(st.sampled_from([integer, st.one_of(
        integer, st.fractions(min_value=-3, max_value=3, max_denominator=3))]))
    vectors = draw(st.lists(st.lists(entry, min_size=d, max_size=d), max_size=5))
    if vectors and draw(st.booleans()):
        coeffs = draw(st.lists(entry, min_size=len(vectors), max_size=len(vectors)))
        rhs = [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(d)]
    else:
        rhs = draw(st.lists(entry, min_size=d, max_size=d))
    return d, vectors, rhs


@settings(max_examples=300)
@given(linear_systems())
def test_the_echelon_kernel_equals_gauss_jordan(case):
    d, vectors, rhs = case
    # sum(x[j] * vectors[j]) == rhs is the system of the d coordinate rows
    rows = [[v[i] for v in vectors] for i in range(d)]
    sol = echelon_solve(rows, rhs)
    event("solvable" if sol is not None else "inconsistent")
    assert sol == rational_solve(vectors, rhs)
    assert echelon_kernel(rows) == rational_nullspace(rows)
    if vectors:
        assert echelon_kernel(vectors) == rational_nullspace(vectors)
    assert len(hermite_normal_form([as_int_vector(v) for v in vectors])) \
        == rational_rank(vectors)


def test_rank_examples():
    assert rational_rank([(1, 0), (0, 1)]) == 2
    assert rational_rank([(1, 2), (2, 4)]) == 1
    assert rational_rank([]) == 0


# ---------------------------------------------------------------------------
# integer structures


def test_hermite_rowspace_membership():
    rng = seeded(1)
    for _ in range(25):
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        hnf = hermite_normal_form(rows)
        lat = IntegerLattice(3, rows)
        lat2 = IntegerLattice(3, hnf)
        for _ in range(10):
            coeffs = [rng.randint(-3, 3) for _ in rows]
            point = [sum(c * r[j] for c, r in zip(coeffs, rows))
                     for j in range(3)]
            assert lat2.contains(point)
        for b in lat2.basis:
            assert lat.contains(b)


def _pivots(hnf):
    return [next(j for j, x in enumerate(row) if x) for row in hnf]


def test_hermite_normal_form_reduces_above_every_pivot():
    hnf = hermite_normal_form([[1, 3, 2], [-2, -1, -1], [1, 0, 3], [1, 0, 1]])
    assert hnf == [[1, 0, 1], [0, 1, 1], [0, 0, 2]]
    assert hermite_normal_form(hnf) == hnf


@given(st.lists(st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_hermite_normal_form_is_a_reduced_fixed_point(rows):
    hnf = hermite_normal_form(rows)
    assert hermite_normal_form(hnf) == hnf
    pivots = _pivots(hnf)
    assert pivots == sorted(set(pivots))
    for i, (row, col) in enumerate(zip(hnf, pivots)):
        assert row[col] > 0
        assert all(0 <= above[col] < row[col] for above in hnf[:i])
    # the same lattice
    assert all(IntegerLattice(3, hnf).contains(r) for r in rows)
    assert all(IntegerLattice(3, rows).contains(r) for r in hnf)


def test_integer_lattice_coordinates_roundtrip():
    lat = IntegerLattice(2, [(1, 0), (0, 2)])
    assert lat.coordinates((3, 4)) == (3, 2)
    assert lat.coordinates((0, 1)) is None


def test_integer_lattice_refuses_non_integral_vectors():
    lat = IntegerLattice(2, [(1, 0), (0, 1)])
    assert lat.coordinates((Fraction(1, 2), 0)) is None
    assert not lat.contains((Fraction(1, 2), Fraction(3, 2)))
    assert lat.coordinates((Fraction(4, 2), 3)) == (2, 3)


def _random_matrix(rng, n, m, bound=5):
    return [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]


def test_smith_normal_form_oracle():
    rng = seeded(2)
    for _ in range(40):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = _random_matrix(rng, n, m)
        u, d, v, vinv = smith_normal_form(a)
        # V^-1 is the exact inverse of V
        assert [[sum(v[i][k] * vinv[k][j] for k in range(m)) for j in range(m)]
                for i in range(m)] == [[int(i == j) for j in range(m)] for i in range(m)]
        # U a V == D exactly
        ua = [[sum(u[i][k] * a[k][j] for k in range(n)) for j in range(m)]
              for i in range(n)]
        uav = [[sum(ua[i][k] * v[k][j] for k in range(m)) for j in range(m)]
               for i in range(n)]
        assert uav == [list(row) for row in d]
        # diagonal with divisibility chain
        diag = [d[i][i] for i in range(min(n, m))]
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            if x != 0 and y != 0:
                assert y % x == 0
        # unimodular transforms
        if n == len(u):
            assert abs(int_det(u)) == 1
        assert abs(int_det(v)) == 1


def test_invariant_factors_example():
    def invariant_factors(matrix):
        _, d, _, _ = smith_normal_form(matrix)
        return [d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i]]
    assert invariant_factors([[2, 0], [0, 4]]) == [2, 4]
    assert invariant_factors([[2, 4], [4, 8]]) == [2]


def test_integer_kernel_annihilates():
    a = [[1, 2, 3], [0, 1, 1]]
    for v in integer_kernel(a):
        for row in a:
            assert vdot(row, v) == 0
    assert len(integer_kernel(a)) == 1


def test_integer_solve_and_refusals():
    sol = integer_solve([[2, 0], [0, 3]], [4, 9])
    assert sol == [2, 3] or tuple(sol) == (2, 3)
    assert integer_solve([[2]], [3]) is None


def test_integer_solve_random_verified():
    # integer_solve finds x with sum_i x_i * rows_i == rhs (row combinations)
    rng = seeded(3)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = _random_matrix(rng, n, m, bound=4)
        x = [rng.randint(-3, 3) for _ in range(n)]
        rhs = [sum(x[i] * a[i][j] for i in range(n)) for j in range(m)]
        sol = integer_solve(a, rhs)
        assert sol is not None
        back = [sum(sol[i] * a[i][j] for i in range(n)) for j in range(m)]
        assert back == rhs


# ---------------------------------------------------------------------------
# linear programming


def test_lp_feasible_certificate_checks():
    # x + y == 2, x - y >= 0, both coordinates free
    sol = lp_feasible(2, eqs=[((1, 1), 2)], ineqs=[((1, -1), 0)])
    assert sol is not None
    assert sol[0] + sol[1] == 2
    assert sol[0] - sol[1] >= 0
    # infeasible: x >= 1 and -x >= 1
    assert lp_feasible(1, ineqs=[((1,), 1), ((-1,), 1)]) is None


def test_solve_nonneg_rational_matches_grid():
    gens = [(1, 0), (1, 2)]
    for x in range(-3, 4):
        for y in range(-3, 4):
            got = solve_nonneg_rational(gens, (x, y)) is not None
            # oracle: x', y' >= 0 with x = a + b, y = 2 b
            want = y >= 0 and y % 1 == 0 and 2 * x >= y
            assert got == want, (x, y)
            sol = solve_nonneg_rational(gens, (x, y))
            if sol is not None:
                assert all(c >= 0 for c in sol)
                combo = vadd(vscale(sol[0], gens[0]), vscale(sol[1], gens[1]))
                assert combo == (Fraction(x), Fraction(y))


def test_bounded_nonneg_combination_integer():
    gens = [(1, 0), (1, 2)]
    target = (3, 4)
    bound = default_combination_bound(target, gens)
    combo = bounded_nonneg_combination(gens, target, bound)
    assert combo is not None
    total = (0, 0)
    for c, g in zip(combo, gens):
        total = vadd(total, vscale(c, g))
    assert tuple(total) == target
    assert bounded_nonneg_combination(gens, (0, 1),
                                      default_combination_bound((0, 1), gens)) is None


def _search(gens):
    nonzero = [g for g in gens if any(g)]
    d = len(gens[0])
    if nonzero:
        cone = RationalCone.from_rays(nonzero, d)
    else:
        axes = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        cone = RationalCone.from_inequalities(axes + [vneg(a) for a in axes], d)
    return CombinationSearch(gens, cone.h_rep)


def test_combination_search_splits_units_from_positive_generators():
    search = _search([(1, 0), (-1, 0), (0, 1), (2, 3)])
    assert search.units == [0, 1] and search.positive == [2, 3]
    assert search.find((-7, 3)) is not None
    assert search.find((0, -1)) is None
    rel = search.unit_relation()
    assert all(r > 0 for r in rel) and vadd(vscale(rel[0], (1, 0)),
                                              vscale(rel[1], (-1, 0))) == (0, 0)
    # sign pruning is skipped on the coordinate the units touch
    line = _search([(2, 0), (-2, 0), (1, 1)])
    assert line.find((-5, 3)) is not None and line.find((0, 1)) is None


def test_one_hermite_transform_per_combination_search(monkeypatch):
    # counted where the search looks the function up, from construction on:
    # the leaf checks, the unit coefficients of every certificate and the
    # unit relation all read the one Hermite form of [units | I]
    calls = []
    hnf = exactmath.hermite_normal_form

    def counted(matrix):
        calls.append(matrix)
        return hnf(matrix)

    monkeypatch.setattr(exactmath, "hermite_normal_form", counted)
    for gens, members, others, with_units in (
            ([(1, 0), (-1, 0), (0, 1), (2, 3)],
             [(x, y) for x in range(-2, 3) for y in range(4)], [(0, -1)], 15),
            ([(2, 0), (-2, 0), (1, 1)],
             [(x, y) for x in range(-4, 5, 2) for y in range(0, 4, 2)],
             [(x, 1) for x in range(-4, 5, 2)] + [(1, 2), (-3, 4)], 5)):
        nonzero = [g for g in gens if any(g)]
        normals = RationalCone.from_rays(nonzero, 2).h_rep
        del calls[:]
        search = CombinationSearch(gens, normals)
        certificates = [search.find(t) for t in members]
        assert all(c is not None for c in certificates)
        # most certificates use a unit
        assert sum(1 for c in certificates if c[0] or c[1]) >= with_units
        assert all(search.find(t) is None for t in others)
        assert all(r > 0 for r in search.unit_relation())
        assert len(calls) == 1


def test_lattice_membership_runs_no_simplex(monkeypatch):
    # fresh lattices with units whose integer kernel has rank 1, 2 and 3,
    # one with a zero and one with a repeated generator: deciding and
    # certifying membership makes no rational simplex call
    from monoidorder.monoids import LatticeMonoid
    lattices = [
        [(1, 0), (-1, 0), (0, 1)],                      # kernel rank 1
        [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (1, 2, 3)],  # 1
        [(1, 0), (-1, 0), (0, 0), (0, 1), (2, 1)],      # 2, with a zero generator
        [(1, 0), (0, 1), (-1, -1), (1, 1)],             # 2, the whole plane
        [(2, 0), (-1, 0), (-1, 0), (0, 0), (1, 3)],     # 3, with a repeat
        [(1, -1), (-1, 1), (2, -2), (1, 1)],            # 2
    ]
    lp_calls = []
    lp = exactmath.solve_nonneg_rational

    def counted(generators, target):
        lp_calls.append(target)
        return lp(generators, target)

    monkeypatch.setattr(exactmath, "solve_nonneg_rational", counted)
    relations = []
    relation = CombinationSearch.unit_relation

    def built(self):
        if self._relation is None:
            relations.append(self)
        return relation(self)

    monkeypatch.setattr(CombinationSearch, "unit_relation", built)
    kernel_ranks = set()
    for gens in lattices:
        m = LatticeMonoid(len(gens[0]), gens)
        search = m.combinations
        units = [gens[i] for i in search.units]
        kernel_ranks.add(len(units) - rational_rank(units))
        for x in itertools.product(range(-3, 4), repeat=m.dim):
            assert m.contains(x) == (bounded_nonneg_combination(gens, x, 12) is not None)
    assert kernel_ranks == {1, 2, 3}
    assert len(relations) == len(lattices)
    assert lp_calls == []


def test_unit_relation_merges_parallel_units(monkeypatch):
    # the whole space of dimension 4, with 30 copies of e2 and two positive
    # multiples of it: its only positive circuits are e1, one unit along
    # e2, e3, e4 and -(e1 + e2 + e3 + e4), so with one direction per class
    # of parallel units one circuit of 5 minors covers every unit, where
    # the subsets of all units number tens of thousands before the last
    # copy of e2 is covered
    e = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    units = ([e[0]] + [e[1]] * 30 + [vscale(2, e[1]), vscale(3, e[1]), e[2], e[3],
             (-1, -1, -1, -1), (0, 0, 0, 0)])
    search = _search(units)
    assert search.units == list(range(len(units)))
    calls = []
    det = exactmath.int_det

    def counted(mat):
        calls.append(mat)
        return det(mat)

    monkeypatch.setattr(exactmath, "int_det", counted)
    rel = search.unit_relation()
    assert len(calls) <= 5
    assert all(r > 0 for r in rel)
    total = (0, 0, 0, 0)
    for r, u in zip(rel, units):
        total = vadd(total, vscale(r, u))
    assert total == (0, 0, 0, 0)
    assert search.find((-5, 7, -3, 2)) is not None


def test_integer_solver_answers_like_integer_solve():
    rng = seeded(5)
    for _ in range(20):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = _random_matrix(rng, n, m, bound=4)
        solver = exactmath.IntegerSolver(m, a)
        for _ in range(5):
            rhs = [rng.randint(-6, 6) for _ in range(m)]
            assert solver.solve(rhs) == integer_solve(a, rhs)
    assert exactmath.IntegerSolver(2, []).solve((0, 0)) == ()
    assert exactmath.IntegerSolver(2, []).solve((1, 0)) is None


def test_a_certificate_that_fails_re_substitution_is_an_internal_error(monkeypatch):
    search = _search([(1,), (-1,)])
    # the search answers its unit coefficients with one IntegerSolver
    monkeypatch.setattr(exactmath.IntegerSolver, "solve", lambda self, rhs: (0, 0))
    with pytest.raises(InternalCheckError):
        search.find((3,))


generator_sets = st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(min_value=-3, max_value=3)] * d),
                 min_size=1, max_size=4),
        st.tuples(*[st.integers(min_value=-6, max_value=6)] * d)))


@given(generator_sets)
def test_combination_certificates_re_substitute(case):
    gens, target = case
    combo = _search(gens).find(target)
    if combo is not None:
        assert all(c >= 0 for c in combo)
        total = tuple(0 for _ in target)
        for c, g in zip(combo, gens):
            total = vadd(total, vscale(c, g))
        assert total == target
    # the bounded search is complete within its bound: whatever it finds,
    # the unbounded search finds too
    if bounded_nonneg_combination(gens, target) is not None:
        assert combo is not None


def _reference_certificate(search, target):
    """The first certificate of a plain depth-first search that tries every
    coefficient of a positive generator over its full range ``rest // w``
    down to 0, rejects a node whose residue breaks the ``Fraction`` ratio
    bounds on the coordinates no unit touches, and builds the unit part as
    one ``integer_solve`` shifted by the unit relation."""
    gens, positive, units = search.generators, search.positive, search.units
    weights = [vdot(search.weight, gens[i]) for i in positive]
    unit_vectors = [gens[i] for i in units]
    free = [j for j in range(search.dim) if all(u[j] == 0 for u in unit_vectors)]
    unit_lattice = IntegerLattice(search.dim, unit_vectors)
    coeffs = [0] * len(positive)

    def dfs(i, residue, rest):
        if i == len(positive):
            return rest == 0 and unit_lattice.contains(residue)
        for j in free:
            ratios = [Fraction(gens[k][j], w) for k, w in zip(positive[i:], weights[i:])]
            if not min(ratios) * rest <= residue[j] <= max(ratios) * rest:
                return False
        g, w = gens[positive[i]], weights[i]
        for c in range(rest // w, -1, -1):
            coeffs[i] = c
            if dfs(i + 1, tuple(r - c * gj for r, gj in zip(residue, g)), rest - c * w):
                return True
        coeffs[i] = 0
        return False

    total = vdot(search.weight, target)
    if total < 0 or not dfs(0, tuple(target), total):
        return None
    full = [0] * len(gens)
    residue = tuple(target)
    for i, c in zip(positive, coeffs):
        full[i] = c
        residue = vsub(residue, vscale(c, gens[i]))
    if units:
        z = integer_solve(unit_vectors, residue)
        if min(z) < 0:
            rel = search.unit_relation()
            shift = max(-(c // r) for c, r in zip(z, rel))
            z = tuple(c + shift * r for c, r in zip(z, rel))
        for i, c in zip(units, z):
            full[i] = c
    return tuple(full)


search_cases = st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(min_value=-3, max_value=3)] * d),
                 min_size=1, max_size=4),
        st.booleans(),
        st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5),
        st.one_of(st.none(), st.tuples(*[st.integers(min_value=-6, max_value=6)] * d))))


@settings(max_examples=200)
@given(search_cases)
def test_combination_search_returns_the_reference_certificate(case):
    gens, with_unit, coeffs, target = case
    nonzero = [g for g in gens if any(g)]
    if with_unit and nonzero:
        gens = gens + [vneg(nonzero[0])]
    else:
        # lexicographically positive generators span a pointed cone
        gens = [sign_canonical(g) for g in gens]
    if target is None:
        target = tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(len(gens[0])))
    search = _search(gens)
    if with_unit and nonzero:
        assert search.units
    else:  # only zero generators are units of a pointed cone
        assert all(not any(gens[i]) for i in search.units)
    # twice on one search, so the second answer reuses its solver and relation
    for _ in range(2):
        assert search.find(target) == _reference_certificate(search, target)


def _totally_cyclic(case):
    """Units that positively span their linear span: the base vectors, the
    negated combination of them with the drawn positive coefficients, and
    extras that are zero vectors, repeats or negations of those."""
    base, coeffs, extras, order = case
    units = list(base)
    units.append(tuple(-sum(c * b[j] for c, b in zip(coeffs, base))
                       for j in range(len(base[0]))))
    for kind, i in extras:
        u = units[i % len(units)]
        units.append((tuple(0 for _ in u), u, vneg(u))[kind])
    return [units[i] for i in sorted(range(len(units)), key=order.__getitem__)]


unit_configurations = st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[st.integers(min_value=-3, max_value=3)] * d),
                     min_size=n, max_size=n),
            st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n),
            st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                               st.integers(min_value=0, max_value=5)),
                     max_size=5 - n),
            st.permutations(range(6))))).map(_totally_cyclic)


@settings(max_examples=150)
@given(unit_configurations, st.data())
def test_unit_relation_is_a_strictly_positive_integer_relation(units, data):
    d = len(units[0])
    # a generator that is positive when it leaves the units' span
    off = data.draw(st.one_of(st.none(), st.tuples(*[st.integers(-2, 2)] * d)))
    gens = units + ([off] if off is not None else [])
    search = _search(gens)
    unit_vectors = [gens[i] for i in search.units]
    assume(len(unit_vectors) <= 6)
    kernel_rank = len(unit_vectors) - rational_rank(unit_vectors)
    assert kernel_rank >= 1
    assume(kernel_rank <= 4)
    event(f"kernel rank {kernel_rank}")
    rel = search.unit_relation()
    assert all(type(r) is int and r > 0 for r in rel)
    assert all(sum(r * u[j] for r, u in zip(rel, unit_vectors)) == 0 for j in range(d))
    # the rational oracle the relation replaces agrees that one exists
    total = tuple(sum(u[j] for u in unit_vectors) for j in range(d))
    assert solve_nonneg_rational(unit_vectors, vneg(total)) is not None
    # a member (a drawn combination) and a point that may be none
    coeffs = data.draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
    member = tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(d))
    for target in (member, data.draw(st.tuples(*[st.integers(-4, 4)] * d))):
        assert search.find(target) == _reference_certificate(search, target)
    assert search.find(member) is not None


# ---------------------------------------------------------------------------
# cones: frozen double-description examples plus grid oracles


def test_orthant_conversions():
    cone = RationalCone.from_rays([(1, 0), (0, 1)], 2)
    assert sorted(cone.h_rep) == [(0, 1), (1, 0)]
    cone2 = RationalCone.from_inequalities([(0, 1), (1, 0)], 2)
    assert sorted(cone2.extreme_rays) == [(0, 1), (1, 0)]
    assert cone.same_cone(cone2)


def test_slanted_cone_h_rep_frozen():
    cone = RationalCone.from_rays([(1, 0), (1, 2)], 2)
    assert sorted(cone.h_rep) == [(0, 1), (2, -1)]
    assert cone.is_pointed()


def test_halfplane_has_lineality():
    cone = RationalCone.from_rays([(1, 0), (0, 1), (0, -1)], 2)
    assert cone.lineality_basis == [(0, 1)]
    assert not cone.is_pointed()
    assert sorted(cone.h_rep) == [(1, 0)]


def test_dual_of_slanted_cone():
    cone = RationalCone.from_rays([(1, 0), (1, 2)], 2)
    dual = cone.dual()
    assert sorted(dual.extreme_rays) == [(0, 1), (2, -1)]
    # dual of dual comes back
    assert dual.dual().same_cone(cone)


def test_membership_grid_oracle_dim2():
    cone = RationalCone.from_rays([(1, 0), (1, 2)], 2)
    for x in range(-5, 6):
        for y in range(-5, 6):
            want = solve_nonneg_rational([(1, 0), (1, 2)], (x, y)) is not None
            assert cone.member((x, y)) == want


def test_membership_grid_oracle_dim3():
    rays = [(1, 0, 0), (1, 1, 0), (1, 1, 1)]
    cone = RationalCone.from_rays(rays, 3)
    for x in itertools.product(range(-5, 6), repeat=3):
        want = solve_nonneg_rational(rays, x) is not None
        assert cone.member(x) == want


def test_extreme_rays_minimality_random():
    rng = seeded(4)
    for _ in range(15):
        rays = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
        rays = [r for r in rays if any(r)]
        if not rays:
            continue
        cone = RationalCone.from_rays(rays, 3)
        ext = cone.extreme_rays
        # every claimed extreme ray is in the cone and not a combination of
        # the others (within the pointed quotient by the lineality space)
        for i, r in enumerate(ext):
            assert cone.member(r)
            others = [e for j, e in enumerate(ext) if j != i]
            others += cone.lineality_basis
            others += [vneg(b) for b in cone.lineality_basis]
            assert solve_nonneg_rational(others, r) is None


@st.composite
def _drawn_cones(draw):
    """Rays of a cone in dimension d <= 4: pointed or not (a drawn ray and
    its negative), often lower-dimensional, with repeated and scaled rays."""
    d = draw(st.integers(1, 4))
    rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=5))
    assume(any(map(any, rays)))
    if draw(st.booleans()):
        rays.append(vneg(rays[0]))
    if draw(st.booleans()):
        rays += [rays[-1], vscale(2, rays[0])]
    return d, rays


def _simplex_extreme(ext, lin, v):
    """The simplex reference: v is not a nonnegative combination of the
    generators off its ray modulo the lineality space."""
    others = [e for e in ext if e != exactmath._reduce_mod_lineality(v, lin)]
    return solve_nonneg_rational(others + lin + [vneg(b) for b in lin], v) is None


@settings(max_examples=150)
@given(_drawn_cones())
def test_cone_certificates_agree_with_the_simplex(case):
    d, rays = case
    cone = RationalCone.from_rays(rays, d)
    ext, lin = cone.extreme_rays, cone.lineality_basis  # certified on the way
    event("pointed" if not lin else "not pointed")
    event(f"rank {rational_rank(rays)} of {d}")
    # the simplex agrees that every generator lies in cone(R)
    for g in ext + lin + [vneg(b) for b in lin]:
        assert solve_nonneg_rational(rays, g) is not None
    # the tight-facet rank agrees with the simplex on every box point of
    # the cone off the lineality space; a point outside the cone, a
    # non-extreme point and a second vector on an extreme ray are rejected
    certify_extreme_rays(cone.h_rep, ext, lin)
    side = range(-2, 3) if d < 4 else range(-1, 2)
    box = [v for v in itertools.product(side, repeat=d)
           if any(exactmath._reduce_mod_lineality(v, lin))]
    for v in box:
        inside = cone.member(v)
        extreme = inside and _simplex_extreme(ext, lin, v)
        try:
            certify_extreme_rays(cone.h_rep, [v], lin)
            certified = True
        except InternalCheckError:
            certified = False
        assert certified == extreme
        if not inside or not extreme:
            with pytest.raises(InternalCheckError):
                certify_extreme_rays(cone.h_rep, ext + [v], lin)
        elif exactmath._reduce_mod_lineality(v, lin) in ext and v not in ext:
            with pytest.raises(InternalCheckError):
                certify_extreme_rays(cone.h_rep, ext + [v], lin)
        # a vector outside cone(R) planted among the extreme rays
        if solve_nonneg_rational(rays, v) is None:
            assert not inside
            planted = RationalCone.from_rays(rays, d)
            planted.extreme_rays
            planted._extreme = ext + [v]
            with pytest.raises(InternalCheckError):
                planted._certify_generators()


@settings(max_examples=150)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=6)))
def test_positive_relation_exists_iff_the_simplex_spans_each_negative(vectors):
    # vectors positively span their span iff each one's negative is a
    # nonnegative combination of them
    spans = all(solve_nonneg_rational(vectors, vneg(v)) is not None for v in vectors)
    pivots = IntegerLattice(len(vectors[0]), vectors).pivots
    event("spans" if spans else "does not span")
    if spans:
        rel = positive_relation(vectors, pivots)
        assert all(r > 0 for r in rel)
        assert all(sum(r * v[j] for r, v in zip(rel, vectors)) == 0
                   for j in range(len(vectors[0])))
    else:
        with pytest.raises(InternalCheckError):
            positive_relation(vectors, pivots)


def test_a_lineality_space_the_input_rays_do_not_span_is_rejected():
    # the half-plane x >= 0 from the rays (1, 0), (0, 1), (0, -1); planted
    # data where the rays in the lineality space are one-sided or missing
    cone = RationalCone.from_rays([(1, 0), (0, 1), (0, -1)], 2)
    assert cone.lineality_basis == [(0, 1)] and cone.extreme_rays == [(1, 0)]
    one_sided = RationalCone.from_rays([(1, 0), (0, 1), (0, -1)], 2)
    one_sided.extreme_rays
    one_sided._rays = [(1, 0), (0, 1), (1, -1)]
    with pytest.raises(InternalCheckError, match="positively span"):
        one_sided._certify_generators()
    missing = RationalCone.from_rays([(1, 0), (0, 1), (0, -1)], 2)
    missing.extreme_rays
    missing._rays = [(1, 0), (1, 1), (1, -1)]
    with pytest.raises(InternalCheckError, match="lineality space not spanned"):
        missing._certify_generators()


def test_cone_containment():
    quadrant = RationalCone.from_rays([(1, 0), (0, 1)], 2)
    slanted = RationalCone.from_rays([(1, 0), (1, 2)], 2)
    assert quadrant.contains_cone(slanted)
    assert not slanted.contains_cone(quadrant)


def test_cone_input_validation():
    with pytest.raises(InputError):
        RationalCone.from_rays([], dim=None)
    with pytest.raises(InputError):
        RationalCone.from_rays([(1, 0), (1,)], 2)


# ---------------------------------------------------------------------------
# the integer kernels against their reference versions in conftest


def _kernel_case(case):
    """Vectors of one drawn shape: ``pointed`` (lexicographically positive,
    so the cone they span is pointed), ``line`` (those plus the negation of
    the first nonzero one, so the cone has lineality), ``whole`` (the unit
    vectors and minus their sum added: the whole space) or ``flat`` (last
    coordinate equal to the first, so for d >= 2 the cone has lower rank)."""
    vectors, shape, coeffs, point = case
    d = len(point)
    if shape == "pointed":
        vectors = [sign_canonical(v) for v in vectors]
    elif shape == "line":
        vectors = [sign_canonical(v) for v in vectors]
        nonzero = [v for v in vectors if any(v)]
        vectors = vectors + [vneg(nonzero[0])] if nonzero else vectors
    elif shape == "whole":
        e = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        vectors = vectors[:max(0, 5 - d)] + e + [tuple(-1 for _ in range(d))]
    else:
        vectors = [v[:-1] + (v[0],) for v in vectors]
    vectors = vectors[:6]
    member = tuple(sum(c * v[j] for c, v in zip(coeffs, vectors)) for j in range(d))
    return vectors, member, point


kernel_cases = st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(min_value=-2, max_value=2)] * d),
                 min_size=1, max_size=6),
        st.sampled_from(("pointed", "line", "whole", "flat")),
        st.lists(st.integers(min_value=0, max_value=2), min_size=7, max_size=7),
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * d))).map(_kernel_case)


@settings(max_examples=300)
@given(kernel_cases)
def test_integer_kernels_return_exactly_what_the_references_return(case):
    vectors, member, point = case
    d = len(point)
    for v in vectors + [member, point]:
        assert primitive(v) == oracle_primitive(v)
    # the vectors as inequalities, and as the rays of a cone
    assert exactmath.cone_from_inequalities(vectors, d) == \
        oracle_cone_from_inequalities(vectors, d)
    assert hermite_normal_form(vectors) == oracle_hermite_normal_form(vectors)
    assert smith_normal_form(vectors) == oracle_smith_normal_form(vectors)
    nonzero = [v for v in vectors if any(v)]
    if not nonzero:
        return
    cone = RationalCone.from_rays(nonzero, d)
    h_rep = oracle_h_rep(nonzero, d)
    assert cone.h_rep == h_rep
    lineality, rays = oracle_cone_from_inequalities(h_rep, d)
    assert (cone.lineality_basis, cone.extreme_rays) == (lineality, rays)
    event("pointed" if not lineality else "whole space" if len(lineality) == d
          else "lineality")
    if len(IntegerLattice(d, nonzero).basis) < d:
        event("lower rank")
    search = CombinationSearch(vectors, cone.h_rep)
    units = [vectors[i] for i in search.units]
    if units:
        assert search.unit_relation() == oracle_unit_relation(units)
    for target in (member, point):
        assert search.find(target) == oracle_certificate(vectors, cone.h_rep, target)
    assert search.find(member) is not None


def _smith_kernel(matrix):
    """The reference's basis of ``{x : matrix . x == 0}``: the columns of
    its V past the rank of D."""
    _, d, v, _ = oracle_smith_normal_form(matrix)
    rank = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])
    return [tuple(row[j] for row in v) for j in range(rank, len(v))]


def _smith_solvable(rows, rhs):
    """Whether the reference solves ``x . rows == rhs`` in integers: rhs . V
    is divisible by D's diagonal and vanishes past it."""
    _, d, v, _ = oracle_smith_normal_form(rows)
    rhsv = [sum(x * v[i][j] for i, x in enumerate(rhs)) for j in range(len(rhs))]
    return all(y % d[j][j] == 0 if j < len(d) and d[j][j] else y == 0
               for j, y in enumerate(rhsv))


def _completion(k_rows):
    """The L of ``K . V == [L | 0]`` for the basis change ``V = U^T`` that
    the reductions take from the transform of ``K^T``, after checking that
    V is unimodular and that K . V vanishes past its first k columns."""
    k = len(k_rows)
    v = [list(col) for col in zip(*exactmath.IntegerSolver(k, zip(*k_rows)).transform)]
    assert abs(int_det(v)) == 1
    kv = [[vdot(row, col) for col in zip(*v)] for row in k_rows]
    assert not any(any(row[k:]) for row in kv)
    return [row[:k] for row in kv]


@settings(max_examples=200)
@given(kernel_cases)
def test_hermite_transform_agrees_with_the_smith_reference(case):
    # kernels, solves and completions read off the Hermite form of [A | I]
    # agree with the Smith form's up to a unimodular change of basis
    vectors, member, point = case
    d = len(point)
    right = integer_kernel(vectors)
    assert oracle_hermite_normal_form(right) == oracle_hermite_normal_form(_smith_kernel(vectors))
    solver = exactmath.IntegerSolver(d, vectors)
    columns = [list(c) for c in zip(*vectors)]
    assert oracle_hermite_normal_form(solver.relations) == \
        oracle_hermite_normal_form(_smith_kernel(columns))
    for target in (member, point):
        assert (solver.solve(target) is not None) == _smith_solvable(vectors, target)
    # |det L| is the index of the rows' lattice in its saturation: the
    # product of the reference's invariant factors
    k_rows = hermite_normal_form(vectors)
    if k_rows:
        _, dk, _, _ = oracle_smith_normal_form(k_rows)
        index = 1
        for i in range(len(k_rows)):
            index *= dk[i][i]
        assert abs(int_det(_completion(k_rows))) == index
    if right:
        assert abs(int_det(_completion(right))) == 1


wide_cases = st.integers(min_value=4, max_value=6).flatmap(
    lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(min_value=-4, max_value=4)] * d),
                 min_size=1, max_size=10),
        st.lists(st.integers(min_value=-2, max_value=2), min_size=10, max_size=10),
        st.tuples(*[st.integers(min_value=-4, max_value=4)] * d)))


@settings(max_examples=60)
@given(wide_cases)
def test_hermite_transform_on_wide_lattices_meets_its_definitions(case):
    # the shapes on which the Smith form's entries grow without bound, so
    # checked against the definitions, not the Smith reference
    rows, coeffs, point = case
    d, m = len(point), len(rows)
    solver = exactmath.IntegerSolver(d, rows)
    assert solver.basis == [tuple(r) for r in hermite_normal_form(rows)]
    assert abs(int_det(solver.transform)) == 1
    rank = len(solver.basis)
    ua = [tuple(sum(c * row[j] for c, row in zip(u, rows)) for j in range(d))
          for u in solver.transform]
    assert ua == solver.basis + [(0,) * d] * (m - rank)
    member = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(d))
    for target in (member, point):
        x = solver.solve(target)
        if x is None:
            assert target != member and not IntegerLattice(d, rows).contains(target)
        else:
            assert tuple(sum(c * row[j] for c, row in zip(x, rows)) for j in range(d)) == target
    kernel = integer_kernel(rows)
    assert len(kernel) == d - rank
    assert all(vdot(row, x) == 0 for row in rows for x in kernel)
    if kernel:
        assert abs(int_det(_completion(kernel))) == 1
    if rank:
        assert int_det(_completion(solver.basis)) != 0
