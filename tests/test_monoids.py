"""Carriers and the canonical quasi-order: axioms, oracles, enumeration."""

import itertools
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from monoidorder.core import (InputError, InternalCheckError, ResourceBudgetError, vadd,
                              vcombine, vneg, vscale, vsub)
from monoidorder.exactmath import (CombinationSearch, IntegerLattice, RationalCone,
                                   hermite_normal_form, solve_nonneg_rational)
from monoidorder import monoids
from monoidorder.grothendieck import grothendieck, nabla
from monoidorder.localizability import (is_left_localizable,
                                        is_strongly_localizable,
                                        is_weakly_localizable)
from monoidorder.monoids import (BiadditiveOp, FiniteMonoid, LatticeMonoid,
                                 OpenConeMonoid,
                                 approx, cyclic_group_monoid,
                                 enumerate_biadditive_ops, free_monoid,
                                 half_open_half_plane, leq,
                                 saturating_product_op, truncated_free_monoid)

from conftest import (_make_unreachable, cone_corpus, finite_corpus, lattice_corpus,
                      monogenic_table,
                      oracle_lineality_coordinates, product_table, rational_rank,
                      sample_elements, seeded, weakly_localizable_ops)


def _lattice_points(m: LatticeMonoid, count=40, salt=0):
    rng = seeded(salt)
    pool = m.element_pool(3)
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


def _cone_points(m, count=30, salt=0):
    return sample_elements(m, count)


# ---------------------------------------------------------------------------
# quasi-order axioms


@pytest.mark.parametrize("name,m", finite_corpus())
def test_finite_order_axioms_exhaustive(name, m):
    els = list(m.elements())
    for a in els:
        assert leq(m, a, a)
        assert leq(m, 0, a), "the neutral element sits below everything"
    for a in els:
        for b in els:
            for c in els:
                if leq(m, a, b) and leq(m, b, c):
                    assert leq(m, a, c)
                if leq(m, a, b):
                    assert leq(m, m.add(a, c), m.add(b, c))
    for k in (2, 3):
        for a in els:
            for b in els:
                if leq(m, m.sum_elements([a] * k), m.sum_elements([b] * k)):
                    assert leq(m, a, b)


@pytest.mark.parametrize("name,m", lattice_corpus())
def test_lattice_order_axioms_sampled(name, m):
    pts = _lattice_points(m, 25, salt=1)
    zero = tuple(0 for _ in range(m.dim))
    for a in pts:
        assert leq(m, a, a)
        assert leq(m, zero, a)
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        if leq(m, a, b) and leq(m, b, c):
            assert leq(m, a, c)
        if leq(m, a, b):
            assert leq(m, vadd(a, c), vadd(b, c))
        for k in (2, 3):
            if leq(m, vscale(k, a), vscale(k, b)):
                assert leq(m, a, b)


@pytest.mark.parametrize("name,m", cone_corpus())
def test_cone_order_axioms_sampled(name, m):
    pts = _cone_points(m, 20)
    zero = tuple(0 for _ in range(m.dim))
    for a in pts:
        assert leq(m, a, a)
        assert leq(m, zero, a)
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        if leq(m, a, b) and leq(m, b, c):
            assert leq(m, a, c)
        if leq(m, a, b):
            assert leq(m, vadd(a, c), vadd(b, c))


# ---------------------------------------------------------------------------
# independent definitional oracles


def _finite_leq_oracle(m, a, b, kmax):
    for k in range(1, kmax + 1):
        ka, kb = m.sum_elements([a] * k), m.sum_elements([b] * k)
        for c in m.elements():
            for t in m.elements():
                if m.add(m.add(ka, c), t) == m.add(kb, t):
                    return True
    return False


@pytest.mark.parametrize("name,m", finite_corpus())
def test_finite_leq_matches_definition_with_enlarged_bound(name, m):
    kmax = 2 * (m.n + m.n * m.n)  # twice the built-in scalar envelope
    for a in m.elements():
        for b in m.elements():
            assert leq(m, a, b) == _finite_leq_oracle(m, a, b, kmax)


def _finite_approx_oracle(m, a, b, lmax):
    kmax = 2 * (m.n + m.n * m.n)
    for d in m.elements():
        la, lb, good = a, b, True
        for _ in range(lmax):
            if not (_finite_leq_oracle(m, la, m.add(lb, d), kmax)
                    and _finite_leq_oracle(m, lb, m.add(la, d), kmax)):
                good = False
                break
            la, lb = m.add(la, a), m.add(lb, b)
        if good:
            return True
    return False


@pytest.mark.parametrize("name,m", finite_corpus())
def test_finite_approx_matches_definition_with_enlarged_bound(name, m):
    lmax = 2 * m.n * m.n + 2
    for a in m.elements():
        for b in m.elements():
            assert approx(m, a, b) == _finite_approx_oracle(m, a, b, lmax)


@st.composite
def monogenic_product_tables(draw):
    """The table of a product of one to three monogenic monoids with at
    most 24 elements."""
    factors = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)),
                            min_size=1, max_size=3))
    assume(1 < prod(index + period for index, period in factors) <= 24)
    return product_table([monogenic_table(*f) for f in factors])


def monogenic_products():
    """A product of one to three monogenic monoids with at most 24 elements."""
    return monogenic_product_tables().map(FiniteMonoid)


def _pair_class_oracle(m):
    """``iota`` and the class count of the difference group, by the pair
    search: (a, b) joins the first class (c, d) with ``a + d + t == c + b + t``
    for some t, in lexicographic order of the pairs."""
    stable = [[any(m.add(x, t) == m.add(y, t) for t in m.elements())
               for y in m.elements()] for x in m.elements()]
    reps, pair_class = [], {}
    for a in m.elements():
        for b in m.elements():
            found = next((i for i, (c, d) in enumerate(reps)
                          if stable[m.add(a, d)][m.add(c, b)]), None)
            if found is None:
                found = len(reps)
                reps.append((a, b))
            pair_class[(a, b)] = found
    return [pair_class[(a, 0)] for a in m.elements()], len(reps)


def _assert_kernel_decisions(m, approx_pairs):
    kmax = 2 * (m.n + m.n * m.n)
    for a in m.elements():
        for b in m.elements():
            assert leq(m, a, b) == _finite_leq_oracle(m, a, b, kmax)
    for a, b in approx_pairs:
        assert approx(m, a, b) == _finite_approx_oracle(m, a, b, 2 * m.n + 2)
    iota, classes = _pair_class_oracle(m)
    gg = grothendieck(m)
    assert (gg.iota, gg.classes) == (iota, classes)
    for level in (1, 2):
        reduced = nabla(m, level).describe()
        assert reduced["group_order"] == 1
        assert reduced["kernel_size"] == classes


@settings(max_examples=100)
@given(monogenic_products(), st.data())
def test_kernel_decisions_match_the_definitional_oracles(m, data):
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(m.elements()),
                                         st.sampled_from(m.elements())),
                               min_size=1, max_size=4))
    _assert_kernel_decisions(m, pairs)


@pytest.mark.parametrize("name,m", finite_corpus())
def test_kernel_decisions_match_the_definitional_oracles_on_the_corpus(name, m):
    _assert_kernel_decisions(m, [(a, b) for a in m.elements() for b in m.elements()])


@settings(max_examples=100)
@given(monogenic_products())
def test_difference_classes_are_numbered_as_over_all_pairs(m):
    # the reference numbers the classes by first appearance over all n^2
    # pairs (a, b) in lexicographic order; the row a = 0 alone numbers them
    number = {}
    for a in m.elements():
        for b in m.elements():
            number.setdefault(m.difference(a, b), len(number))
    gg = grothendieck(m)
    assert gg.classes == len(number)
    assert gg.iota == [number[m.difference(a, 0)] for a in m.elements()]


def test_finite_decisions_read_one_kernel_and_no_product(monkeypatch, mu_calls):
    # n = 125: every leq call re-checks its certificate against the one
    # kernel, and the localizability checks multiply at most n times
    m = truncated_free_monoid(3, cap=4)
    op = saturating_product_op(m)
    assert m.n == 125
    builds = []
    sum_elements = m.sum_elements
    monkeypatch.setattr(m, "sum_elements", lambda xs: builds.append(1) or sum_elements(xs))
    assert all(leq(m, a, b) for a in m.elements() for b in m.elements())
    assert len(builds) == 1
    verdicts = {"weak": lambda: is_weakly_localizable(op).verdict,
                "strong": lambda: is_strongly_localizable(op)["verdict"],
                "left": lambda: is_left_localizable(op, m.n - 1).verdict}
    for name, verdict in verdicts.items():
        mu_calls.clear()
        assert verdict() == "yes", name
        assert len(mu_calls) <= m.n, name


@pytest.mark.parametrize("name,m", lattice_corpus())
def test_lattice_leq_matches_scaled_membership_oracle(name, m):
    # a <~ b iff k*(b - a) is a generator combination for some k >= 1;
    # brute-force over k <= 6 with exact bounded search
    from monoidorder.exactmath import (bounded_nonneg_combination,
                                       default_combination_bound)
    pts = _lattice_points(m, 12, salt=2)
    for a in pts[:8]:
        for b in pts[:8]:
            got = leq(m, a, b)
            diff = vsub(b, a)
            want = False
            for k in range(1, 7):
                kd = vscale(k, diff)
                if bounded_nonneg_combination(
                        m.generators, kd,
                        default_combination_bound(kd, m.generators)) is not None:
                    want = True
                    break
            if want:
                assert got, (a, b)
            elif not got:
                pass  # both refused: consistent
            else:
                # rational membership allows denominators beyond k <= 6 only
                # through larger k; re-check with the exact certificate
                sol = solve_nonneg_rational(m.generators, diff)
                assert sol is not None
                denom = 1
                for c in sol:
                    denom = denom * c.denominator // _gcd(denom, c.denominator)
                assert denom > 6


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_halfplane_order_frozen_examples():
    m = half_open_half_plane()
    a, b = (1, 0), (1, 5)
    assert not leq(m, a, b)
    assert not leq(m, b, a)
    assert approx(m, a, b)
    assert not approx(m, (1, 0), (2, 0))
    assert leq(m, (1, 0), (2, 0))


def test_membership_errors_are_input_errors():
    m = LatticeMonoid(2, [(1, 0), (1, 2)])
    with pytest.raises(InputError):
        m.check_element((0, 1))
    with pytest.raises(InputError):
        leq(m, (0, 1), (1, 2))
    f = truncated_free_monoid(1, cap=2)
    with pytest.raises(InputError):
        f.check_element(7)


# ---------------------------------------------------------------------------
# lattice membership is exact


def test_membership_needs_no_coefficient_bound():
    # 1 = 78*97 - 85*89: far beyond the old coefficient envelope
    m = LatticeMonoid(1, [(97,), (-89,)])
    assert m.contains((1,))
    assert m.contains((-1,)) and m.contains((0,))


def test_non_integral_vectors_are_not_members():
    m = LatticeMonoid(1, [(2,)])
    for x in ((Fraction(1, 2),), (2.7,), (Fraction(5, 2),)):
        assert not m.contains(x)
        with pytest.raises(InputError):
            m.check_element(x)
    assert m.contains((Fraction(4, 2),)) and m.contains((2.0,))
    with pytest.raises(InputError):
        leq(m, (Fraction(1, 2),), (2,))
    assert set(m._cache["contains"]) == {(2,)}


small_generator_sets = st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(min_value=-3, max_value=3)] * d),
                       min_size=1, max_size=4))


@given(small_generator_sets, st.data())
def test_every_generator_combination_is_contained(gens, data):
    m = LatticeMonoid(len(gens[0]), gens)
    coeffs = data.draw(st.lists(st.integers(min_value=0, max_value=6),
                                min_size=len(gens), max_size=len(gens)))
    x = tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(m.dim))
    assert m.contains(x)


@given(small_generator_sets, st.data())
def test_lattice_leq_and_approx_match_the_rational_cone_oracle(gens, data):
    m = LatticeMonoid(len(gens[0]), gens)
    coeffs = st.lists(st.integers(min_value=0, max_value=3),
                      min_size=len(gens), max_size=len(gens))
    a, b = (tuple(sum(c * g[j] for c, g in zip(n, gens)) for j in range(m.dim))
            for n in (data.draw(coeffs), data.draw(coeffs)))
    up = solve_nonneg_rational(m.generators, vsub(b, a)) is not None
    down = solve_nonneg_rational(m.generators, vsub(a, b)) is not None
    assert leq(m, a, b) == up
    assert leq(m, b, a) == down
    assert approx(m, a, b) == approx(m, b, a) == (up and down)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_an_all_zero_lattice_and_the_dual_of_the_whole_space_are_the_origin_cone(d):
    # the cone of no rays is the origin: from_rays drops zero rays, and the
    # dual of a cone with no inequality is the cone of its (no) normals
    cones = [RationalCone.from_rays([], d), LatticeMonoid(d, [(0,) * d]).cone,
             RationalCone.from_inequalities([], d).dual()]
    unit = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    for cone in cones:
        assert cone.h_rep == sorted(unit + [vneg(u) for u in unit])
        assert (cone.v_rep, cone.extreme_rays, cone.lineality_basis) == ([], [], [])
        assert [x for x in itertools.product(range(-1, 2), repeat=d)
                if cone.member(x)] == [(0,) * d]


# ---------------------------------------------------------------------------
# class keys: a ~~ b iff the keys of a and b are equal


def _assert_class_keys_decide_approx(m, elements):
    for a in elements:
        for b in elements:
            assert (m.class_key(a) == m.class_key(b)) == approx(m, a, b)


FINITE_CARRIERS = finite_corpus() + [
    (name, op.carrier) for name, op in weakly_localizable_ops()
    if isinstance(op.carrier, FiniteMonoid)]


@pytest.mark.parametrize("name,m", FINITE_CARRIERS,
                         ids=[name for name, _ in FINITE_CARRIERS])
def test_finite_class_keys_decide_approx_on_every_pair(name, m):
    _assert_class_keys_decide_approx(m, list(m.elements()))


@given(small_generator_sets)
def test_lattice_class_keys_decide_approx(gens):
    m = LatticeMonoid(len(gens[0]), gens)
    _assert_class_keys_decide_approx(m, m.element_pool(2))


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.lists(st.tuples(*[st.integers(min_value=-2, max_value=2)] * d),
                       min_size=1, max_size=4)), st.data())
def test_open_cone_class_keys_decide_approx(rays, data):
    assume(any(any(r) for r in rays))
    closed = RationalCone.from_rays(rays, len(rays[0]))
    normals = data.draw(st.lists(st.sampled_from(closed.h_rep), max_size=2)
                        if closed.h_rep else st.just([]))
    m = OpenConeMonoid(closed, normals)
    pool = m.element_pool(2)
    _assert_class_keys_decide_approx(m, pool)
    for a in pool:
        for b in pool:
            # a ~~ b iff b - a lies in the closed cone and in its negative
            both = all(solve_nonneg_rational(m.rays, d) is not None
                       for d in (vsub(b, a), vsub(a, b)))
            assert approx(m, a, b) == both


# ---------------------------------------------------------------------------
# the tensor product over the tensor's nonzero entries


def _dense_mu(tensor, a, b):
    """mu by the plain triple loop over i, j, k, skipping zero factors."""
    d = len(tensor)
    out = [0] * d
    for i in range(d):
        if a[i] == 0:
            continue
        for j in range(d):
            if b[j] == 0:
                continue
            for k in range(d):
                if tensor[i][j][k]:
                    out[k] += a[i] * b[j] * tensor[i][j][k]
    return tuple(out)


small_entries = st.integers(min_value=-2, max_value=2)
small_scalars = st.one_of(
    small_entries,
    st.builds(Fraction, small_entries, st.integers(min_value=1, max_value=3)))


@given(st.integers(min_value=1, max_value=4).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.lists(small_entries, min_size=d, max_size=d),
                      min_size=d, max_size=d), min_size=d, max_size=d),
    st.lists(small_scalars, min_size=d, max_size=d),
    st.lists(small_scalars, min_size=d, max_size=d))))
def test_sparse_mu_matches_the_dense_triple_loop(case):
    tensor, a, b = case
    op = BiadditiveOp(free_monoid(len(a)), tensor=tensor)
    got, want = op.mu(tuple(a), tuple(b)), _dense_mu(tensor, a, b)
    assert got == want
    # an untouched coordinate stays the int 0, a touched one takes the
    # type its products give
    assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("entry", [Fraction(1, 2), 1.7, 2.7, "1/3", "two", None])
def test_non_integral_entries_are_refused_not_truncated(entry):
    # a truncating int() would read 1/2 as 0 and 1.7 as 1
    with pytest.raises(InputError, match=r"tensor entry \(1, 0, 1\) is .*, not an? "):
        BiadditiveOp(free_monoid(2), tensor=[[[1, 0], [0, 0]], [[0, entry], [0, 1]]])
    m = cyclic_group_monoid(2)
    with pytest.raises(InputError, match=r"table entry \(1, 0\) is .*, not an? "):
        BiadditiveOp(m, table=[[0, 0], [entry, 1]])


def test_integral_entries_of_any_numeric_type_are_accepted():
    op = BiadditiveOp(free_monoid(1), tensor=[[[Fraction(4, 2)]]])
    assert op.tensor == (((2,),),) and type(op.tensor[0][0][0]) is int
    assert BiadditiveOp(free_monoid(1), tensor=[[[3.0]]]).tensor == (((3,),),)
    table = BiadditiveOp(cyclic_group_monoid(2), table=[[0, 0.0], [Fraction(0), 1]]).table
    assert table == ((0, 0), (0, 1)) and all(type(x) is int for r in table for x in r)


def test_mu_refuses_an_operand_of_the_wrong_length():
    op = BiadditiveOp(free_monoid(2), tensor=(((1, 0), (0, 0)), ((0, 0), (0, 1))))
    for a, b in (((1,), (1, 1)), ((1, 1), (1, 1, 1))):
        with pytest.raises(InputError, match="in dimension 2"):
            op.mu(a, b)


def _line_membership_oracle(values, x):
    """Membership in the monoid of nonnegative integer combinations of integers."""
    nonzero = [v for v in values if v]
    if any(v > 0 for v in nonzero) and any(v < 0 for v in nonzero):
        g = 0
        for v in nonzero:
            g = gcd(g, abs(v))
        return x % g == 0
    if not nonzero or (x > 0) != (nonzero[0] > 0):
        return x == 0
    steps, target = [abs(v) for v in nonzero], abs(x)
    reach = [True] + [False] * target
    for t in range(1, target + 1):
        reach[t] = any(s <= t and reach[t - s] for s in steps)
    return reach[target]


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
       st.integers(min_value=-40, max_value=40))
def test_line_membership_matches_the_oracle(values, x):
    m = LatticeMonoid(1, [(v,) for v in values])
    assert m.contains((x,)) == _line_membership_oracle(values, x)


def test_membership_is_memoized_per_distinct_vector(monkeypatch):
    # a symmetric product on the carrier <2, 3> x <2, 3> of N^2 whose
    # generator products are past the pool's sums of 3 generators: the
    # closure check decides each distinct product once, and each mixed
    # product, such as (16, 16), is asked twice.  Every product is a
    # multiple of 2 or 3 on each axis, so a nonsingular basis of generators
    # covers it and no search runs; (5, 5), (5, 7) and (7, 5) are on no
    # basis's lattice, so each is read off a class entry of a basis: (5, 5)
    # is (3, 3) plus (2, 2), which lies in N*{2e_1, 2e_2}, and still no
    # search runs
    from monoidorder.functionals import verify_theorem_main
    calls, finds = {}, {}
    searches = []  # keep every search alive so that ids are not reused
    member, find = LatticeMonoid._member, CombinationSearch.find

    def counted(self, key):
        calls[key] = calls.get(key, 0) + 1
        return member(self, key)

    def counted_find(self, target):
        searches.append(self)
        key = (id(self), tuple(target))
        finds[key] = finds.get(key, 0) + 1
        return find(self, target)

    monkeypatch.setattr(LatticeMonoid, "_member", counted)
    monkeypatch.setattr(CombinationSearch, "find", counted_find)
    tensor = (((5, 0), (4, 4)), ((4, 4), (0, 5)))
    op = BiadditiveOp(LatticeMonoid(2, [(2, 0), (3, 0), (0, 2), (0, 3)]), tensor=tensor)
    verify_theorem_main(op)
    assert calls and max(calls.values()) == 1
    assert len(calls) == 9
    m = op.carrier
    assert [subset for subset, _, _ in m._cache["bases"]] == [(0, 2), (0, 3), (1, 2)]
    assert finds == {} and "combinations" not in m._cache
    memo = m._cache["contains"]
    assert len(memo) <= 41
    for x in ((5, 5), (5, 7), (5, 5), (7, 5), (5, 7)):
        assert m.contains(x)
    assert max(calls.values()) == 1 and len(calls) == 12
    assert finds == {} and "combinations" not in m._cache
    fresh = LatticeMonoid(m.dim, m.generators)
    for x, answer in memo.items():
        assert fresh.contains(x) == answer


def _bfs_pool(m, max_coeff_sum):
    """The breadth-first pool of ray sums that ``element_pool`` read before
    the shared enumerator, filtered by a real membership decision."""
    zero = tuple(0 for _ in range(m.dim))
    pool, frontier = {zero}, [zero]
    for _ in range(max_coeff_sum):
        nxt = []
        for x in frontier:
            for g in m.rays:
                y = vadd(x, g)
                if y not in pool:
                    pool.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(v for v in pool if m.contains(v))


def _bfs_candidates(m, budget):
    """The generator sums by coefficient sum, then lexicographic, as a
    breadth-first search builds them."""
    seen, out = set(), []
    frontier = {tuple(0 for _ in range(m.dim))}
    for _ in range(budget):
        nxt = {vadd(x, g) for x in frontier for g in m.generators} - seen
        out += sorted(nxt)
        seen |= nxt
        frontier = nxt
    return out


small_lattices = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-2, 2)] * d), min_size=2, max_size=5))


@given(small_lattices)
def test_generator_sums_keep_both_orders_and_are_members(gens):
    # the pool and the sums by level read one enumerator; every sum it
    # builds enters the membership memo, and a fresh search agrees
    dim = len(gens[0])
    m = LatticeMonoid(dim, gens)
    levels = list(itertools.chain.from_iterable(itertools.islice(m.ray_sums(), 4)))
    assert levels == _bfs_candidates(LatticeMonoid(dim, gens), 4)
    assert m.element_pool(3) == _bfs_pool(LatticeMonoid(dim, gens), 3)
    fresh = LatticeMonoid(dim, gens)
    for x, member in m._cache["contains"].items():
        assert member and fresh.contains(x)


@pytest.mark.parametrize("name,m", cone_corpus())
def test_open_cone_pool_keeps_only_members(name, m):
    assert m.element_pool(3) == _bfs_pool(m, 3)


def _twos_and_threes(gens):
    """2g and 3g for every generator g: the same lattice and cone, but no r
    of them form a basis of the lattice, so a point that none of their
    nonsingular bases covers is read off a class table or runs the search."""
    return [tuple(k * v for v in g) for g in gens for k in (2, 3)]


def test_combination_search_nodes_on_the_theorem_sweep():
    # depth-first nodes do not jitter, so they gate the membership search's
    # work.  Sums of generators enter the membership memo as they are
    # built, and every generator product past the pool is a multiple of 2
    # or 3 on each axis, which a nonsingular basis of generators covers: the
    # sweeps build no search.  Each carrier takes 2g and 3g for every
    # generator g of N^3 and of the 2x2 matrices, so it has no unimodular
    # basis, and a point with an entry 5 or 1 is on no basis's lattice: the
    # members (5, 5, 5) and (5, 5, 5, 5) are read off a class entry, such as
    # (3, 3, 3) plus (2, 2, 2) in N*{2e_1, 2e_2, 2e_3}, and build no search;
    # the non-members run it.  When only class 0 of each basis was read, the
    # searches of each member and non-member pair visited 12 and 18 nodes
    from monoidorder.functionals import verify_theorem_main
    from monoidorder.monoids import diagonal_tensor, matrix_monoid_2x2, matrix_product_tensor
    diagonal = BiadditiveOp(LatticeMonoid(3, _twos_and_threes(free_monoid(3).generators)),
                            tensor=diagonal_tensor(3, [2, 5, 5]))
    matrix = BiadditiveOp(LatticeMonoid(4, _twos_and_threes(matrix_monoid_2x2().generators)),
                          tensor=matrix_product_tensor())
    for op in (diagonal, matrix):
        verify_theorem_main(op)
        assert "combinations" not in op.carrier._cache
    assert matrix.carrier.contains((2, 2, 2, 3))
    assert "combinations" not in matrix.carrier._cache
    for op, member, nonmember, nodes in ((diagonal, (5, 5, 5), (1, 5, 5), 2),
                                         (matrix, (5, 5, 5, 5), (2, 1, 1, 1), 5)):
        assert op.carrier.contains(member)
        assert "combinations" not in op.carrier._cache
        assert not op.carrier.contains(nonmember)
        assert op.carrier.combinations.nodes == nodes
    fresh = LatticeMonoid(4, matrix.carrier.generators)
    search = CombinationSearch(fresh.generators, fresh.cone.h_rep)
    for x, answer in matrix.carrier._cache["contains"].items():
        assert (search.find(x) is not None) == answer


def test_free_carriers_decide_membership_without_the_search(monkeypatch):
    # the generators of N^3 and of the 2x2 matrices have no integer
    # relation, so membership is one integer solve: no combination search
    # runs, and on N^3 no cone is built
    from monoidorder.monoids import matrix_product_op
    finds = []
    find = CombinationSearch.find
    monkeypatch.setattr(CombinationSearch, "find",
                        lambda self, target: finds.append(target) or find(self, target))
    m = free_monoid(3)
    for x in itertools.product(range(-2, 3), repeat=3):
        assert m.contains(x) == (min(x) >= 0)
    assert not m.contains((Fraction(1, 2), 0, 0))
    assert "cone" not in m._cache and "combinations" not in m._cache
    assert matrix_product_op().validate() == []
    assert finds == []


free_lattices = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=d))


@settings(max_examples=80)
@given(free_lattices, st.data())
def test_free_membership_agrees_with_the_search(gens, data):
    # independent generators: the integer solve and the complete search
    # give the same answer on members and on drawn points
    dim = len(gens[0])
    m = LatticeMonoid(dim, gens)
    assume(len(m.lattice.basis) == len(gens))
    search = CombinationSearch(gens, m.cone.h_rep)
    coeffs = data.draw(st.lists(st.integers(0, 3), min_size=len(gens), max_size=len(gens)))
    member = tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(dim))
    assert m.contains(member)
    for x in [member] + data.draw(st.lists(st.tuples(*[st.integers(-6, 6)] * dim),
                                           max_size=8)):
        assert LatticeMonoid(dim, gens).contains(x) == (search.find(x) is not None)


FIVE = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, 1, -1), (5, 4, 7)]


def test_unimodular_membership_does_not_grow_with_the_element(monkeypatch, searches_built,
                                                             lattices_built):
    # FIVE's unit vectors, its first 3-subset, are a unimodular basis that
    # covers k * (153, 220, 198), so each k is read off x's own entries: no
    # search and no Hermite form are built, and one adjugate is ever
    # computed.  (The search, in input order, visits 882,722 nodes at k = 1.)
    adjugates = []
    int_adjugate = monoids.int_adjugate
    monkeypatch.setattr(monoids, "int_adjugate",
                        lambda rows: adjugates.append(rows) or int_adjugate(rows))
    m = LatticeMonoid(3, FIVE)
    for k in (1, 10, 100):
        assert m.contains((153 * k, 220 * k, 198 * k))
        assert m.contains((400 * k, 500 * k, 600 * k))
    assert searches_built == [] and "combinations" not in m._cache
    assert lattices_built == [] and adjugates == [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]]


def test_a_point_off_every_unimodular_basis_reaches_the_search(searches_built):
    # each generator of <2, 3> is a nonsingular basis, of 2Z and of 3Z: 4
    # and 6 are read off them, but 1 and 5 are on neither lattice.  5 = 3 +
    # 2 is read off the class table of {2}, and the non-member 1 is decided
    # by the complete search
    m = LatticeMonoid(1, [(2,), (3,)])
    assert m.contains((4,)) and m.contains((6,))
    assert searches_built == []
    assert not m.contains((1,))
    assert len(searches_built) == 1
    assert m.contains((5,)) and not m.contains((-2,))
    assert m._cache["bases"] == [((0,), ((1,),), 2), ((1,), ((1,),), 3)]
    assert len(searches_built) == 1


SNF6 = [(-2, 3, -2, 4, 4, 3), (3, -3, -1, 3, 4, 4), (0, 4, -2, 4, 4, 4), (0, 0, 2, -1, 0, -2),
        (4, 4, 0, 3, -1, 2), (4, -3, 4, -4, 2, -4), (4, -4, 4, 2, 4, -3), (3, -3, -2, -3, 4, 3),
        (2, 2, 0, -1, 3, 3), (-2, 1, 2, 3, 4, 1)]


def test_wide_lattice_members_are_read_off_class_tables(searches_built, lattices_built):
    # SNF6's 210 nonsingular bases have |det| from 8 to 20,085, 30 of them
    # at most 512.  Of 30 drawn sums of its generators (coefficients 0..3),
    # 26 lie in N*B for no basis B; each is read off a class entry of a
    # basis with |det| <= 512, so no Hermite form and no search is built
    # (the search took seconds on them).  Tables are built lazily, so not
    # every basis with |det| <= 512 gets one
    rng = seeded(6)
    m = LatticeMonoid(6, SNF6)
    members = [tuple(sum(c * g[j] for c, g in zip(coeffs, SNF6)) for j in range(6))
               for coeffs in ([rng.randint(0, 3) for _ in SNF6] for _ in range(30))]
    for x in members:
        assert m.contains(x)
    bases = m._cache["bases"]
    assert sum(not any(_in_basis_monoid(x, basis) for basis in bases) for x in members) == 26
    assert searches_built == [] and lattices_built == []
    tabled = [abs(det) for subset, _, det in bases if subset in m._cache["class_tables"]]
    assert tabled and max(tabled) <= monoids.CLASS_TABLE_MAX_DET
    assert len(tabled) < sum(abs(det) <= monoids.CLASS_TABLE_MAX_DET for _, _, det in bases)


def test_a_basis_of_negative_determinant_reads_its_sign(searches_built, lattices_built):
    # (4, 4) lies in N*{(0, 2), (2, 0)} and on no other basis's lattice:
    # that basis has det -4 and x . adj = (-8, -8), so its coefficients
    # (2, 2) are read with det's sign, and no Hermite form or search is built
    m = LatticeMonoid(2, [(0, 2), (2, 0), (0, 3), (3, 0)])
    assert m.contains((4, 4))
    assert [det for _, _, det in m._cache["bases"]] == [-4]
    assert searches_built == [] and lattices_built == []


def test_searches_built_on_an_order_fresh_corpus(searches_built, lattices_built,
                                                 cones_built):
    # carriers shaped like the order-fresh benchmark's (dimension 2 or 3,
    # entries -1..1, full rank, 3 to 5 nonzero generators), each asked about
    # four sums of generators with coefficients 0..2: the members that no
    # nonsingular basis covers are read off its class table, so no Hermite
    # form and no search is built.  When membership ran the search on every
    # non-free carrier, the same corpus built 109 searches, one per non-free
    # carrier; when it read only unimodular bases, 15 searches and a Hermite
    # form on every carrier; and when it read only class 0 of each basis, 7
    # searches and 7 Hermite forms.  One leq and one approx per carrier are
    # decided on the bases, so no double description is built either (one
    # per carrier when the order read the cone's facet normals)
    rng = seeded(40)
    carriers = 0
    while carriers < 120:
        dim = rng.choice((2, 3))
        gens = [tuple(rng.randint(-1, 1) for _ in range(dim)) for _ in range(rng.randint(3, 5))]
        m = LatticeMonoid(dim, gens)
        if not all(any(g) for g in gens) or len(IntegerLattice(dim, gens).basis) != dim:
            continue
        carriers += 1
        sums = []
        for _ in range(4):
            c = [rng.randint(0, 2) for _ in gens]
            sums.append(tuple(sum(ci * g[j] for ci, g in zip(c, gens)) for j in range(dim)))
            assert m.contains(sums[-1])
        m.leq(sums[0], sums[1])
        m.approx(sums[2], sums[3])
    assert searches_built == [] and lattices_built == [] and cones_built == []


def test_a_point_outside_the_cone_is_refused_with_no_double_description(
        searches_built, cones_built):
    # on <(2, 0), (3, 0), (0, 1)>, (-1, 0) is on no basis's class 0, and
    # the facet x >= 0 of the cone of (2, 0), (0, 1), opposite (2, 0), is
    # >= 0 on every generator: it refuses the point with no double
    # description and no search.  (1, 0) is in the cone and no member; only
    # the search refuses it, and the search reads the facet normals, so
    # exactly one double description is built
    m = LatticeMonoid(2, [(2, 0), (3, 0), (0, 1)])
    assert not m.contains((-1, 0))
    assert cones_built == [] and searches_built == []
    assert m._cache["facets"] == [(1, 0)]
    assert not m.contains((1, 0))
    assert len(cones_built) == 1 and len(searches_built) == 1


@st.composite
def lineality_carriers(draw):
    """A lattice (d <= 4, 2-6 generators with entries -3..3, some with the
    negations of up to two of them, so with units) or an open cone (d <= 4,
    given by 1-5 rays or 1-5 inequality normals with entries -2..2, each
    facet that is no implicit equality excluded or not)."""
    d = draw(st.integers(1, 4))
    entry = st.integers(-2, 2)
    kind = draw(st.sampled_from(["lattice", "rays", "inequalities"]))
    if kind == "lattice":
        gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=2, max_size=6))
        return kind, LatticeMonoid(d, gens + [vneg(g) for g in gens[:draw(st.integers(0, 2))]])
    vectors = draw(st.lists(st.tuples(*[entry] * d), min_size=1, max_size=5))
    make = RationalCone.from_rays if kind == "rays" else RationalCone.from_inequalities
    cone = make(vectors, d)
    facets = [h for h in cone.h_rep if vneg(h) not in cone.h_rep]
    return kind, OpenConeMonoid(cone, [h for h in facets if draw(st.booleans())])


@settings(max_examples=200)
@given(lineality_carriers())
def test_lineality_is_read_off_the_units(case):
    # the carrier rule (the integer kernel of the integer kernel of the
    # units' coordinates) against the facet normals' integer kernel on the
    # span basis, element for element: reductions print from this basis.
    # And against the cone's double description and the rank of its
    # h-representation, on both carrier kinds
    kind, m = case
    lin = m.lineality_coordinates()
    assert lin == oracle_lineality_coordinates(m)
    reference = m.cone.lineality_basis
    event(f"{kind}, open normals: {bool(m.open_normals)}, lineality {len(reference)}, "
          f"{'every' if len(reference) == len(m.span_basis) else 'not every'} ray a unit")
    assert len(lin) == len(reference)
    for c in lin:
        v = vcombine(c, m.span_basis)
        assert any(v)
        assert rational_rank(reference + [v]) == len(reference)
    assert (not lin) == (len(hermite_normal_form(m.cone.h_rep)) == m.dim)
    assert m.lineality_coordinates() is lin  # built once


def _in_basis_monoid(x, basis):
    """Is x in ``N*B``, B of full rank, by its coefficients ``x . adj(B) / det(B)``?"""
    _, columns, det = basis
    values = [sum(a * b for a, b in zip(x, column)) for column in columns]
    return all(v % det == 0 and v // det >= 0 for v in values)


def test_basis_membership_agrees_with_the_search():
    # 20,000 queries on drawn carriers of dimension at most 4 with at most
    # 6 generators, entries -3..3, some with a zero or a repeated generator,
    # pointed or not; some take 2g and 3g for up to 3 drawn g, so their
    # nonsingular bases have |det| > 1, some of it negative, and some draw
    # every generator from the span of fewer than d vectors, so their rank
    # is below d and the walk reads Hermite coordinates: half the queries
    # are sums of generators, half are drawn points, and membership equals
    # the reference search.  Some members are read off a class entry of a
    # basis other than class 0's origin, before any search is built
    rng = seeded(20261019)
    seen, queries, members = set(), 0, 0
    while queries < 20000:
        d, n = rng.randint(1, 4), rng.randint(1, 6)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n)]
        shape = rng.random()
        if shape < 0.15:
            gens = _twos_and_threes(gens[:3])
        elif shape < 0.3 and d > 1:
            span = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d - 1)]
            gens = [tuple(sum(rng.randint(-1, 1) * b[j] for b in span) for j in range(d))
                    for _ in range(max(n, d))]
        n = len(gens)
        if n > 1 and rng.random() < 0.2:
            gens[-1] = rng.choice(gens[:-1])
        if rng.random() < 0.2:
            gens[0] = (0,) * d
        if not any(any(g) for g in gens):
            continue
        m = LatticeMonoid(d, gens)
        reference = CombinationSearch(gens, m.cone.h_rep)
        seen.add("not pointed" if m.lineality_coordinates() else "pointed")
        seen.update({"zero"} if (0,) * d in gens else set())
        seen.update({"repeat"} if len(set(gens)) < n else set())
        for _ in range(20):
            if rng.random() < 0.5:
                c = [rng.randint(0, 2) for _ in gens]
                x = tuple(sum(ci * g[j] for ci, g in zip(c, gens)) for j in range(d))
            else:
                x = tuple(rng.randint(-4, 4) for _ in range(d))
            answer = m.contains(x)
            assert answer == (reference.find(x) is not None), (gens, x)
            members += answer
            queries += 1
            bases = m._cache.get("bases", ())
            if (answer and "combinations" not in m._cache and bases and len(bases[0][0]) == d
                    and not any(_in_basis_monoid(x, basis) for basis in bases)):
                seen.add("class entry")  # a member that no class 0 reads, and no search
        for subset, _, det in m._cache.get("bases", ()):
            seen.update({"|det| > 1"} if abs(det) > 1 else set())
            seen.update({"det < 0"} if det < 0 else set())
            seen.update({"lower rank, n >= d"} if len(subset) < d <= n else set())
    assert seen == {"pointed", "not pointed", "zero", "repeat",
                    "|det| > 1", "det < 0", "lower rank, n >= d", "class entry"}
    assert 0 < members < queries


def test_a_class_entry_reads_members_and_is_checked():
    # on <2, 3>, 5 lies in N*B for neither basis; the class table of {2}
    # holds 0 and 3, the first member of the odd class, and 5 = 3 + 1*2 is
    # read off it.  A planted wrong entry fails the re-substitution
    m = LatticeMonoid(1, [(2,), (3,)])
    assert m.contains((5,)) and "combinations" not in m._cache
    assert m._cache["class_tables"] == {(0,): {(0,): ((0,), (0, 0)), (1,): ((3,), (0, 1))}}
    m._cache["class_tables"][(0,)][(1,)] = ((3,), (1, 0))
    with pytest.raises(InternalCheckError, match="basis certificate failed"):
        m.contains((7,))


def test_a_basis_past_the_cap_gets_no_class_table(searches_built):
    # both bases of <600, 601> have |det| > 512, so 1201 = 600 + 601, on
    # neither basis's lattice, is decided by the search, and no table is built
    m = LatticeMonoid(1, [(600,), (601,)])
    assert m.contains((1201,))
    assert "class_tables" not in m._cache and len(searches_built) == 1


def test_a_corrupt_adjugate_column_is_caught():
    # the coefficients read off a nonsingular basis are re-substituted
    # before a True answer: a planted wrong column raises
    m = free_monoid(2)
    assert m.contains((1, 2))
    [(subset, columns, det)] = m._cache["bases"]
    m._cache["bases"][0] = (subset, ((1, 1),) + columns[1:], det)
    with pytest.raises(InternalCheckError, match="basis certificate failed"):
        m.contains((1, 1))


@st.composite
def cone_test_cases(draw):
    """A lattice carrier (d <= 4, 1-6 generators with entries -2..2), and
    points to test: integer and rational ones with entries -3..3, off the
    generators' span too on a carrier of lower rank."""
    d = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=6))
    entry = st.fractions(-3, 3, max_denominator=3)
    points = draw(st.lists(st.tuples(*[st.integers(-3, 3) | entry] * d), min_size=4,
                           max_size=8))
    return LatticeMonoid(d, gens), points


def test_the_cone_test_agrees_with_the_double_description():
    # the cone test read off the bases (boundary_status), leq and approx,
    # against the double description of the generators' cone: membership
    # in it, of b - a, and equal facet-normal values (class_key), on drawn
    # carriers of every shape
    seen = set()

    @settings(max_examples=300)
    @given(cone_test_cases())
    def check(case):
        m, points = case
        d, gens = m.dim, m.generators
        cone = RationalCone.from_rays(gens, d)
        rank = len(IntegerLattice(d, gens).basis)
        seen.update({"lower rank"} if rank < d else set())
        seen.update({"zero generator"} if (0,) * d in gens else set())
        seen.update({"repeated generator"} if len(set(gens)) < len(gens) else set())
        seen.update({"not pointed"} if cone.lineality_basis else set())
        for x in points:
            inside = cone.member(x)
            assert m.boundary_status(x) == ("inside" if inside else "outside"), (gens, x)
            seen.add("inside" if inside else "outside")
            seen.update({"rational"} if any(type(v) is not int for v in x) else set())
            if rank < d and rational_rank(list(gens) + [x]) > rank:
                seen.add("off the span")
        pool = m.element_pool(2)
        for a, b in zip(pool, reversed(pool)):
            assert m.leq(a, b) == cone.member(vsub(b, a)), (gens, a, b)
            assert m.approx(a, b) == (m.class_key(a) == m.class_key(b)), (gens, a, b)

    check()
    assert seen == {"lower rank", "zero generator", "repeated generator", "not pointed",
                    "inside", "outside", "rational", "off the span"}


def test_a_cone_test_yes_is_re_substituted():
    # a wrong adjugate column planted into the adjugates that membership and
    # the cone walk share gives (1, 1) the coefficients (2, 1) on the unit
    # vectors: the re-substitution of the "yes" catches it
    m = free_monoid(2)
    assert m.boundary_status((1, 2)) == "inside"
    [(subset, (det, columns))] = m._cache["adjugates"].items()
    m._cache["adjugates"][subset] = (det, ((1, 1),) + columns[1:])
    with pytest.raises(InternalCheckError, match="cone certificate failed"):
        m.boundary_status((1, 1))


def test_a_cone_walk_that_revisits_a_basis_is_an_internal_error():
    # the cone of (1, 0), (0, 1), (-1, 1) has the facets y >= 0 and
    # x + y >= 0.  From the unit vectors, (-2, -2) has a negative
    # coefficient on (1, 0), and the facet x >= 0 opposite it fails on
    # (-1, 1), which enters; on {(0, 1), (-1, 1)} the facet x + y >= 0
    # refuses the point.  A planted adjugate of that basis, with det 1 and
    # columns (-1, 0) and (-1, 2), sends (-1, 1) out and (1, 0) back in: the
    # walk would cycle, and revisiting the unit vectors raises
    m = LatticeMonoid(2, [(1, 0), (0, 1), (-1, 1)])
    assert m.boundary_status((1, 1)) == "inside"
    m._cache["adjugates"][(1, 2)] = (1, ((-1, 0), (-1, 2)))
    with pytest.raises(InternalCheckError, match="revisited a basis"):
        m.boundary_status((-2, -2))
    fresh = LatticeMonoid(2, m.generators)
    assert fresh.boundary_status((-2, -2)) == "outside"
    assert fresh._cache["facets"] == [(1, 1)]


# the cone of the 16 generators (x, y, 1) over a polygon; (19, -29, 6) lies
# just outside the edge from (2, -5) to (4, -4)
POLY16 = [(x, y, 1) for x, y in ((5, 0), (5, 2), (4, 4), (2, 5), (0, 5), (-2, 5), (-4, 4),
                                 (-5, 2), (-5, 0), (-5, -2), (-4, -4), (-2, -5), (0, -5),
                                 (2, -5), (4, -4), (5, -2))]


def test_a_point_just_outside_a_wide_cone_takes_few_adjugates(adjugates_made):
    # the cone test read the bases in combinations order and made 103
    # adjugates before one had the separating facet; the exchange walk
    # makes 13.  Its facet normal is kept and refuses the next point with
    # no adjugate
    m = LatticeMonoid(3, POLY16)
    assert m.boundary_status((19, -29, 6)) == "outside"
    assert len(adjugates_made) <= 15
    [normal] = m._cache["facets"]
    assert all(sum(a * b for a, b in zip(normal, g)) >= 0 for g in POLY16)
    assert sum(a * b for a, b in zip(normal, (19, -29, 6))) < 0
    del adjugates_made[:]
    assert m.boundary_status((38, -58, 12)) == "outside" and adjugates_made == []


def test_a_carrier_of_lower_rank_tries_no_singular_d_subset_past_the_first(
        adjugates_made, lattices_built):
    # a rank-3 carrier of 12 generators in dimension 4: all C(12, 4) = 495
    # d-subsets are singular, and they were all tried before the first
    # r-subset; the rank, read once the second proves singular, skips them
    gens = [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 0, 2), (1, 0, 1, 2),
            (0, 1, 1, 2), (2, 1, 0, 3), (1, 2, 0, 3), (0, 1, 2, 3), (2, 0, 1, 3),
            (1, 1, 1, 3), (3, 1, 0, 4)]
    m = LatticeMonoid(4, gens)
    assert m.boundary_status((1, 1, 1, 3)) == "inside"
    assert len(adjugates_made) <= 10
    assert m.boundary_status((1, 1, 1, 2)) == "outside"
    assert m.boundary_status((-1, 0, 0, -1)) == "outside"
    # a full-rank carrier whose first d-subset is singular still reads
    # every d-subset in its own entries, with no lattice built
    del adjugates_made[:], lattices_built[:]
    m = LatticeMonoid(2, [(1, 0), (2, 0), (0, 1)])
    assert m.boundary_status((1, 1)) == "inside" and m._full_rank
    assert len(adjugates_made) == 2 and lattices_built == []


def test_a_full_rank_carrier_whose_second_d_subset_is_independent_reads_no_rank(
        monkeypatch):
    # the first d-subset is singular and the second is not: the bases go
    # on in the generators' own entries without reading their rank
    _make_unreachable(monkeypatch, monoids._independent, "the generators' rank")
    for d, gens in ((2, [(1, 0), (2, 0), (0, 1)]),
                    (3, [(1, 0, 0), (0, 1, 0), (2, 0, 0), (0, 0, 1), (1, 1, 1)])):
        m = LatticeMonoid(d, gens)
        assert m.boundary_status((1,) * d) == "inside" and m._full_rank
        assert m.leq((0,) * d, (1,) * d) and not m.leq((1,) * d, (0,) * d)


def _unimodular(rng, d):
    """A random U in GL_d(Z): a product of elementary row operations and
    sign flips, with entries kept small."""
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i != j:
            q = rng.choice((-1, 1))
            u[i] = [a + q * b for a, b in zip(u[i], u[j])]
        if rng.random() < 0.3:
            u[i] = [-a for a in u[i]]
    return u


def _frame_answers(m, points, pairs, frame):
    """What the cone walk decides on m, each point and pair read through
    ``frame``: boundary_status, leq, approx and both reduction ranks; a
    query that raises :class:`InputError` (a member refused) reads as
    "refused"."""
    def guarded(f, *args):
        try:
            return f(*args)
        except InputError:
            return "refused"
    return ([m.boundary_status(frame(x)) for x in points]
            + [guarded(m.leq, frame(a), frame(b)) for a, b in pairs]
            + [guarded(m.approx, frame(a), frame(b)) for a, b in pairs]
            + [guarded(lambda level: nabla(m, level).rank, level) for level in (1, 2)])


def _frame_differences(seed):
    """On 60 drawn lattice carriers (d 2-3, 3-6 generators with entries
    -2..2, some with units), the carriers whose answers change when the
    generators are permuted and every vector is mapped by a drawn
    U in GL_d(Z), and those where a query was refused."""
    rng = seeded(seed)
    differ = refused = 0
    for _ in range(60):
        d = rng.choice((2, 3))
        gens = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(3, 6))]
        if rng.random() < 0.3:
            gens.append(vneg(gens[0]))
        if not any(map(any, gens)):
            continue
        u = _unimodular(rng, d)
        moved = [tuple(sum(a * b for a, b in zip(row, g)) for row in u) for g in gens]
        rng.shuffle(moved)
        m, m_moved = LatticeMonoid(d, gens), LatticeMonoid(d, moved)
        points = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(8)]
        pool = m.element_pool(2)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(6)]
        mapped = _frame_answers(m_moved, points, pairs,
                                lambda x: tuple(sum(a * b for a, b in zip(row, x)) for row in u))
        answers = _frame_answers(m, points, pairs, tuple)
        differ += answers != mapped
        refused += "refused" in answers + mapped
    return differ, refused


def test_the_cone_walk_answers_the_same_in_every_frame(monkeypatch):
    # leq, approx, boundary_status and the reduction ranks do not depend on
    # the order of the generators or on the lattice basis they are written
    # in, though the walk starts from another basis in each frame.  A
    # planted walk that answers from its start basis only, "yes" if that
    # basis holds the point and else the facet opposite its first negative
    # coefficient, changes answers between frames, and the same drawing
    # catches it
    assert _frame_differences(23) == (0, 0)

    def start_basis_only(rows, y, basis, adjugates):
        det, columns = adjugates[basis]
        s = 1 if det > 0 else -1
        values = [sum(a * b for a, b in zip(y, c)) for c in columns]
        h = next((j for j, v in enumerate(values) if s * v < 0), None)
        return (basis, values, det) if h is None else (None, tuple(s * t for t in columns[h]), 0)

    monkeypatch.setattr(monoids, "cone_walk", start_basis_only)
    assert _frame_differences(23)[0] > 0


# ---------------------------------------------------------------------------
# carrier constructors validate their inputs


def test_finite_monoid_wants_an_element():
    with pytest.raises(InputError, match="at least one element"):
        FiniteMonoid([])


def test_finite_monoid_wants_neutral_first():
    with pytest.raises(InputError):
        FiniteMonoid([[1, 1], [1, 1]])


def test_finite_monoid_wants_commutative_associative():
    with pytest.raises(InputError):
        FiniteMonoid([[0, 1, 2], [1, 2, 1], [2, 0, 0]])


def _associative_by_triples(table) -> bool:
    """The n^3 associativity sweep the constructor ran before Light's test."""
    n = len(table)
    return all(table[table[i][j]][k] == table[i][table[j][k]]
               for i, j, k in itertools.product(range(n), repeat=3))


@st.composite
def commutative_unital_tables(draw):
    """A product of monogenic monoids, or a copy with one symmetric entry
    off row and column 0 replaced, which is mostly not associative."""
    table = draw(monogenic_product_tables())
    if draw(st.booleans()):
        n = len(table)
        i, j = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
        table[i][j] = table[j][i] = draw(st.integers(0, n - 1))
    return table


@settings(max_examples=200)
@given(commutative_unital_tables())
@example([[0, 1, 2], [1, 2, 0], [2, 0, 0]])  # (1 + 1) + 2 == 0, 1 + (1 + 2) == 1
def test_lights_test_decides_associativity_as_the_triple_sweep(table):
    if _associative_by_triples(table):
        FiniteMonoid(table)
    else:
        with pytest.raises(InputError, match=r"^addition table is not associative$"):
            FiniteMonoid(table)


def test_lattice_monoid_rejects_bad_generators():
    with pytest.raises(InputError):
        LatticeMonoid(2, [(1, 0, 0)])


# ---------------------------------------------------------------------------
# biadditive operations: validation and enumeration


@pytest.mark.parametrize("name,m", finite_corpus())
def test_saturating_and_trivial_ops_validate(name, m):
    zero = BiadditiveOp(m, table=[[0] * m.n for _ in range(m.n)])
    assert zero.validate() == []


def test_validation_rejects_non_biadditive_table():
    m = truncated_free_monoid(1, cap=2)  # elements 0,1,2 with saturation
    # mu(a, b) = min(a + b, 2) is additive in neither argument jointly with 0
    table = [[m.add(i, j) for j in range(3)] for i in range(3)]
    failures = BiadditiveOp(m, table=table).validate()
    assert failures
    assert failures[0][0] in ("left-additivity", "right-additivity")


def _swept_failures(m, table):
    """Both distributive laws on all n^3 triples, failures in sweep order."""
    add, failures = m.table, []
    for a, b, c in itertools.product(m.elements(), repeat=3):
        if table[add[a][b]][c] != add[table[a][c]][table[b][c]]:
            failures.append(("left-additivity", a, b, c))
        if table[a][add[b][c]] != add[table[a][b]][table[a][c]]:
            failures.append(("right-additivity", a, b, c))
    return failures


VALIDATED_CARRIERS = finite_corpus() + [
    ("chain-semilattice-3", FiniteMonoid([[0, 1, 2], [1, 1, 2], [2, 2, 2]])),
    ("z2-absorber", FiniteMonoid([[0, 1, 2], [1, 0, 2], [2, 2, 2]])),
    ("truncated-2-cap1", truncated_free_monoid(2, cap=1)),
    ("C1,1xC0,2", FiniteMonoid(product_table([monogenic_table(1, 1),
                                               monogenic_table(0, 2)]))),
]


@st.composite
def validated_tables(draw):
    """A carrier and a value table, with up to three entries overwritten:
    one of its biadditive tables, or its addition table (which on a
    saturating carrier meets both laws with a generator in the added-to
    slot, but not with 0)."""
    m = draw(st.sampled_from([m for _, m in VALIDATED_CARRIERS]))
    bases = [op.table for op in enumerate_biadditive_ops(m)] + [m.table]
    table = [list(row) for row in draw(st.sampled_from(bases))]
    for _ in range(draw(st.integers(0, 3))):
        a, b, v = (draw(st.integers(0, m.n - 1)) for _ in range(3))
        table[a][b] = v
    return m, table


@settings(max_examples=300)
@given(validated_tables())
def test_validation_lists_the_failures_of_the_full_sweep(case):
    m, table = case
    failures = BiadditiveOp(m, table=table).validate()
    event("valid" if not failures else "invalid")
    assert failures == _swept_failures(m, table)


def test_validation_of_the_125_element_product_checks_generator_slots_only():
    # the n^3 sweep reads 2 n^3 addition rows; the generator slots read
    # about n^2 per slot, with g + 1 slots (the generators and 0)
    m = truncated_free_monoid(3, cap=4)
    op = saturating_product_op(m)
    n, g = m.n, len(m.generators())
    assert (n, g) == (125, 3)

    class CountedRows(tuple):
        reads = 0

        def __getitem__(self, i):
            CountedRows.reads += 1
            return tuple.__getitem__(self, i)

    m.table = CountedRows(m.table)
    assert op.validate() == []
    assert 0 < CountedRows.reads <= 2 * n * n * (g + 1)


# the failure lists of validate() on vector carriers, as read off
# op.ray_products: the lattice's T[1][1] = (1, 0) takes the product of any
# two of (0, 1), (1, 1) and the repeated (0, 1) out of the carrier, each
# pair listed with its generator indices in row order; the half-plane's
# T[1][1] = (-1, 0) takes the squares of both lineality rays out of its
# closure, in v_rep order
LATTICE_OUTSIDE = ([(2, 0), (0, 1), (1, 1), (0, 1)], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]])


def test_validate_lists_every_generator_product_outside_a_lattice():
    gens, t = LATTICE_OUTSIDE
    assert BiadditiveOp(LatticeMonoid(2, gens), tensor=t).validate() == [
        ("generator-product-outside", i, j, [1, 0]) for i in (1, 2, 3) for j in (1, 2, 3)]


def test_validate_lists_every_ray_product_outside_an_open_cone_closure():
    cone = RationalCone.from_rays([(1, 0), (0, 1), (0, -1)], 2)
    t = [[[0, 0], [0, 0]], [[0, 0], [-1, 0]]]
    assert BiadditiveOp(OpenConeMonoid(cone, [(1, 0)]), tensor=t).validate() == [
        ("ray-product-outside-closure", [0, -1], [0, -1], [-1, 0]),
        ("ray-product-outside-closure", [0, 1], [0, 1], [-1, 0])]


@st.composite
def vector_carrier_ops(draw):
    """A tensor with entries -2..2 on a lattice (d <= 3, 1-5 generators with
    entries -2..2, zero and repeated generators allowed) or on an open cone
    (d <= 3, 1-4 rays, each facet excluded or not)."""
    d = draw(st.integers(min_value=1, max_value=3))
    entry = st.integers(min_value=-2, max_value=2)
    vectors = st.lists(st.tuples(*[entry] * d), min_size=1, max_size=4)
    if draw(st.booleans()):
        gens = draw(vectors)
        if draw(st.booleans()):
            gens.append(draw(st.sampled_from(gens)))
        carrier = LatticeMonoid(d, gens)
    else:
        rays = draw(vectors.filter(lambda rs: any(map(any, rs))))
        cone = RationalCone.from_rays(rays, d)
        facets = [h for h in cone.h_rep if tuple(-x for x in h) not in cone.h_rep]
        carrier = OpenConeMonoid(cone, [h for h in facets if draw(st.booleans())])
    t = [[[draw(entry) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    return BiadditiveOp(carrier, tensor=t)


@settings(max_examples=150)
@given(vector_carrier_ops())
@example(BiadditiveOp(LatticeMonoid(2, LATTICE_OUTSIDE[0]), tensor=LATTICE_OUTSIDE[1]))
@example(BiadditiveOp(LatticeMonoid(1, [(0,), (2,), (0,)]), tensor=[[[-2]]]))
def test_ray_products_agree_with_mu(op):
    # one entry per pair of distinct rays, (distinct rays)^2 in all
    rays = set(op.carrier.rays)
    assert set(op.ray_products) == {(r, s) for r in rays for s in rays}
    for (r, s), p in op.ray_products.items():
        assert p == op.mu(r, s)
        assert all(type(x) is int for x in p)


def _brute_force_biadditive_tables(m):
    """All biadditive tables by direct definition, for tiny carriers."""
    n = m.n
    out = []
    for flat in itertools.product(range(n), repeat=n * n):
        table = [list(flat[i * n:(i + 1) * n]) for i in range(n)]

        def mu(x, y):
            return table[x][y]

        good = True
        for x in range(n):
            if mu(x, 0) != 0 or mu(0, x) != 0:
                good = False
                break
        if good:
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        if mu(x, m.add(y, z)) != m.add(mu(x, y), mu(x, z)) or \
                                mu(m.add(x, y), z) != m.add(mu(x, z), mu(y, z)):
                            good = False
                            break
                    if not good:
                        break
                if not good:
                    break
        if good:
            out.append(tuple(tuple(r) for r in table))
    return out


TINY_CARRIERS = [
    ("flag", FiniteMonoid([[0, 1], [1, 1]])),
    ("cyclic-3", FiniteMonoid([[(i + j) % 3 for j in range(3)]
                               for i in range(3)])),
    ("truncated-1-cap1", truncated_free_monoid(1, cap=1)),
    # two generators each: a join semilattice chain, and Z/2 with an absorber
    ("chain-semilattice-3", FiniteMonoid([[0, 1, 2], [1, 1, 2], [2, 2, 2]])),
    ("z2-absorber", FiniteMonoid([[0, 1, 2], [1, 0, 2], [2, 2, 2]])),
]


@pytest.mark.parametrize("name,m", TINY_CARRIERS)
def test_enumeration_matches_brute_force(name, m):
    want = set(_brute_force_biadditive_tables(m))
    got = {op.table for op in enumerate_biadditive_ops(m)}
    assert got == want


@pytest.mark.parametrize("name,m", TINY_CARRIERS)
def test_unital_enumeration_matches_brute_force(name, m):
    tables = _brute_force_biadditive_tables(m)
    for unit in m.elements():
        want = {t for t in tables
                if all(t[unit][a] == a == t[a][unit] for a in m.elements())}
        got = {op.table for op in enumerate_biadditive_ops(m, unital=unit)}
        assert got == want


def _expand(add, rows, ea: list, eb: list) -> int:
    """The biadditive extension at one element pair from generator values,
    summed over every pair of generators in the two expressions."""
    total = 0
    for i in ea:
        row = rows[i]
        for j in eb:
            total = add[total][row[j]]
    return total


def _expand_oracle_tables(m, unital=None) -> list:
    """The sorted biadditive tables, unital ones when ``unital`` is given,
    by the enumeration's former leaf: every assignment of generator values
    whose columns meet the unit's sums is extended by ``_expand``, checked
    against the unit, and validated on all n^3 triples."""
    gens, expr, add, elems = m.generators(), m.expressions(), m.table, m.elements()
    g = len(gens)
    position = {x: i for i, x in enumerate(gens)}
    gen_index = [[position[x] for x in expr[a]] for a in elems]
    counts = [expr[unital].count(h) for h in gens] if unital is not None else [0] * g

    def column_ok(j, column):  # sum over i of counts[i] * (g_i g_j) == g_j
        return not any(counts) or m.sum_elements(
            v for v, c in zip(column, counts) for _ in range(c)) == gens[j]

    columns = [[col for col in itertools.product(elems, repeat=g) if column_ok(j, col)]
               for j in range(g)]
    out = set()
    for choice in itertools.product(*columns):
        rows = [[choice[j][i] for j in range(g)] for i in range(g)]
        table = tuple(tuple(_expand(add, rows, gen_index[a], gen_index[b]) for b in elems)
                      for a in elems)
        if unital is not None and any(table[unital][a] != a or table[a][unital] != a
                                      for a in elems):
            continue
        if all(table[add[a][b]][c] == add[table[a][c]][table[b][c]]
               and table[a][add[b][c]] == add[table[a][b]][table[a][c]]
               for a, b, c in itertools.product(elems, repeat=3)):
            out.add(table)
    return sorted(out)


def _enumeration_cases():
    """(name, carrier, unital) triples small enough for the oracle: the
    all-ones unit of {0..cap}^c for c * cap <= 6 and c <= 3 (with c >= 4
    one unital search takes seconds: 5.4 s on {0, 1}^4), and no unit where the
    n^(g^2) assignments stay below 10^4; every unit and none on the cyclic
    groups of order <= 7, on the finite corpus, and on small carriers with
    two generators whose laws reject most assignments (of 81, 81, 256 and
    1,296, the oracle keeps 20, 2, 4 and 48 tables without a unit)."""
    cases = []
    for c, cap in itertools.product(range(1, 4), range(1, 7)):
        if c * cap <= 6:
            m = truncated_free_monoid(c, cap=cap)
            name = f"truncated-{c}-cap{cap}"
            cases.append((name, m, m._cache["tuple_index"][(1,) * c]))
            if m.n ** (c * c) < 10 ** 4:
                cases.append((name, m, None))
    carriers = [(f"cyclic-{k}", cyclic_group_monoid(k)) for k in range(1, 8)]
    carriers += [(name, m) for name, m in TINY_CARRIERS
                 if name in ("chain-semilattice-3", "z2-absorber")]
    carriers += [("x".join(f"C{i},{p}" for i, p in f),
                  FiniteMonoid(product_table([monogenic_table(*x) for x in f])))
                 for f in ([(1, 1), (0, 2)], [(1, 2), (0, 2)])]
    for name, m in carriers + finite_corpus():
        cases += [(name, m, unit) for unit in [None, *m.elements()]]
    return cases


@pytest.mark.parametrize("m,unital", [pytest.param(m, unital, id=f"{name}-unit{unital}")
                                      for name, m, unital in _enumeration_cases()])
def test_enumeration_equals_the_expand_oracle(m, unital):
    got = [op.table for op in enumerate_biadditive_ops(m, unital=unital)]
    assert got == _expand_oracle_tables(m, unital)


def _recomputed_node_count(m, unital) -> int:
    """The node count of the unital enumeration's search with each column's
    unit-weighted sum recomputed from the assignment at every node, as the
    search once did: the same column-major order, the same backward
    feasibility sets and the same completeness check."""
    gens, expr, add = m.generators(), m.expressions(), m.table
    g = len(gens)
    pairs = [(i, j) for j in range(g) for i in range(g)]
    counts = [expr[unital].count(h) for h in gens]
    total = sum(counts)
    feasible = []
    for j in range(g):
        back = [set() for _ in range(total + 1)]
        back[total] = {gens[j]}
        for t in reversed(range(total)):
            back[t] = {p for p in range(m.n)
                       if any(add[p][v] in back[t + 1] for v in range(m.n))}
        feasible.append(back)
    assign = {}
    nodes = 0

    def column_state(j):
        s = count = 0
        for i in range(g):
            if counts[i] == 0:
                continue
            if (i, j) not in assign:
                return s, count, False
            for _ in range(counts[i]):
                s = add[s][assign[(i, j)]]
                count += 1
        return s, count, True

    def dfs(idx):
        nonlocal nodes
        if idx == len(pairs):
            return
        i, j = pairs[idx]
        for v in range(m.n):
            nodes += 1
            assign[(i, j)] = v
            ok = True
            if counts[i]:
                s, count, complete = column_state(j)
                ok = s in feasible[j][count] and (not complete or s == gens[j])
            if ok:
                dfs(idx + 1)
            del assign[(i, j)]

    dfs(0)
    return nodes


@pytest.mark.parametrize("m,unital", [
    pytest.param(m, unital, id=f"{name}-unit{unital}")
    for name, m, unital in _enumeration_cases()
    + [(name, m, unit) for name, m in TINY_CARRIERS for unit in m.elements()]
    if unital is not None])
def test_running_column_sums_visit_the_recomputed_search_nodes(m, unital):
    # the budget counts nodes: it is met at the recomputed count and
    # exceeded one below it, with the same tables and the same error
    nodes = _recomputed_node_count(m, unital)
    got = [op.table for op in enumerate_biadditive_ops(m, unital=unital, node_budget=nodes)]
    assert got == [op.table for op in enumerate_biadditive_ops(m, unital=unital)]
    if nodes:  # a carrier without generators has no pair to assign
        with pytest.raises(ResourceBudgetError,
                           match=f"^biadditive enumeration exceeded {nodes - 1} nodes$"):
            enumerate_biadditive_ops(m, unital=unital, node_budget=nodes - 1)


def test_unital_enumeration_truncated_line():
    m = truncated_free_monoid(1, cap=2)
    unit = m._cache["tuple_index"][(1,)]
    ops = enumerate_biadditive_ops(m, unital=unit)
    expected = saturating_product_op(m)
    assert len(ops) == 1
    assert ops[0].table == expected.table


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_free_monoid_order_is_coordinatewise(ax, ay, bx, by):
    m = free_monoid(2)
    assert leq(m, (ax, ay), (bx, by)) == (ax <= bx and ay <= by)
    assert approx(m, (ax, ay), (bx, by)) == ((ax, ay) == (bx, by))


def test_the_intro_example_extends_one_table_per_carrier(monkeypatch):
    # the unit laws are decided on the generator values, so only the leaf
    # that passes them has its table built (27 leaves are built at 3
    # coordinates when the unit is checked on the table)
    extensions = []
    extend = monoids._extend
    monkeypatch.setattr(monoids, "_extend",
                        lambda *args: extensions.append(1) or extend(*args))
    for coords in (1, 2, 3):
        m = truncated_free_monoid(coords, cap=2)
        extensions.clear()
        ops = enumerate_biadditive_ops(m, unital=m._cache["tuple_index"][(1,) * coords])
        assert [op.table for op in ops] == [saturating_product_op(m).table]
        assert len(extensions) <= 1


def _protocol_ops():
    """An operation on each carrier kind: closed or not, commutative or not."""
    flag = FiniteMonoid([[0, 1], [1, 1]], names=["o", "t"])
    return [
        ("cyclic-5", monoids.cyclic_product_op(5)),
        ("flag-meet", BiadditiveOp(flag, table=[[0, 0], [0, 1]])),
        ("saturating-2", saturating_product_op(truncated_free_monoid(2, cap=2))),
        ("matrix", monoids.matrix_product_op()),
        ("repeated-generator", BiadditiveOp(LatticeMonoid(2, [(1, 0), (0, 1), (1, 0)]),
                                            tensor=monoids.diagonal_tensor(2, [1, 2]))),
        ("not-closed", BiadditiveOp(free_monoid(2), tensor=[[[0, 0], [1, -1]],
                                                            [[0, 0], [0, 0]]])),
        ("half-plane", BiadditiveOp(half_open_half_plane(),
                                    tensor=monoids.half_plane_product_tensor())),
    ]


@pytest.mark.parametrize("name,op", _protocol_ops(), ids=[n for n, _ in _protocol_ops()])
def test_every_carrier_supplies_the_protocol(name, op):
    # what verify_theorem_main reads off the carrier agrees with the
    # definitions on every carrier kind: the pool is members, the product
    # table is op.mu, approx is equality exactly where the carrier says,
    # and closed generators sum to every pool element with products inside
    m = op.carrier
    pool = m.element_pool(2)
    for x in pool:
        m.check_element(x)
    assert m.product_table(op, pool) == [[op.mu(a, b) for b in pool] for a in pool]
    assert [m.element_key(x) for x in pool] == [x if m.order_is_total else tuple(x)
                                                for x in pool]
    assert m.approx_is_equality == all(approx(m, a, b) == (a == b) for a in pool for b in pool)
    gens = m.closed_generators(op)
    assert (gens is None) == (name in ("not-closed", "half-plane"))
    if gens is not None:
        assert op.validate() == []
        for g, h in itertools.product(gens, repeat=2):
            m.check_element(op.mu(g, h))
        # the pool elements that are sums of the generators (the empty sum
        # is 0 on a vector carrier, whose tensor makes mu(0, x) == 0)
        sums = set(gens) | (set() if m.order_is_total else {(0,) * m.dim})
        for _ in pool:
            sums |= {m.sum_elements([s, g]) if m.order_is_total else vadd(s, g)
                     for s in sums for g in gens} & set(pool)
        assert sums == set(pool)
