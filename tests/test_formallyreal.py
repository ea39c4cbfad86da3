"""Exact real-root counting and sum-of-squares membership over Q(x)."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidorder import formallyreal
from monoidorder.core import InputError, InternalCheckError, primitive
from monoidorder.formallyreal import (POINTWISE_FACT, RationalFunction,
                                      RationalPolynomial, SturmChain,
                                      _exact_quotient, _int_derivative,
                                      _int_sub,
                                      categorize, is_sos_membership,
                                      isolate_real_roots,
                                      parse_rational_function, poly_gcd,
                                      refine_interval,
                                      squarefree_decomposition,
                                      sturm_root_count,
                                      theorem_skew_hypothesis)

from conftest import cauchy_root_bound, oracle_cauchy_isolation, seeded

X = RationalPolynomial.variable()
ONE = RationalPolynomial.constant(1)


def _poly(*coeffs):
    """Coefficients given highest-degree first, as in handwriting."""
    return RationalPolynomial(tuple(Fraction(c) for c in reversed(coeffs)))


def _linear(root):
    return _poly(1, -Fraction(root))


small_frac = st.fractions(min_value=-5, max_value=5, max_denominator=6)
coeff_lists = st.lists(small_frac, min_size=0, max_size=5)


def _from_list(cs):
    return RationalPolynomial(tuple(cs))


def _divmod(p, q):
    """Euclidean division in ``Fraction`` arithmetic: quotient, remainder."""
    rem = list(p.coefficients)
    quo = [Fraction(0)] * max(0, len(rem) - q.degree)
    while rem and len(rem) - 1 >= q.degree:
        shift = len(rem) - 1 - q.degree
        quo[shift] = factor = rem[-1] / q.leading
        for i, c in enumerate(q.coefficients):
            rem[shift + i] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return RationalPolynomial(quo), RationalPolynomial(rem)


def _derivative(p):
    return RationalPolynomial([i * c for i, c in enumerate(p.coefficients)][1:])


def _monic(p):
    return p.scale(1 / p.leading)


def _defined_at(f, x):
    return f.denominator.evaluate(x) != 0


def _variations(chain, x):
    """Sign variations of ``chain`` at rational ``x``, evaluated always."""
    x = Fraction(x)
    return chain._variations(x.numerator, x.denominator)


def _squarefree_part(p):
    """Monic polynomial with the same distinct roots, each simple."""
    out = ONE
    for g, _ in squarefree_decomposition(p)[1]:
        out = out * g
    return out


# ---------------------------------------------------------------------------
# polynomial arithmetic


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(a, b, c):
    p, q, r = _from_list(a), _from_list(b), _from_list(c)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(coeff_lists, coeff_lists)
def test_divmod_invariant(a, b):
    p, q = _from_list(a), _from_list(b)
    if q.degree < 0:
        return
    quo, rem = _divmod(p, q)
    assert quo * q + rem == p
    assert rem.degree < q.degree


@given(coeff_lists, coeff_lists)
def test_derivative_product_rule(a, b):
    p, q = _from_list(a), _from_list(b)
    assert _derivative(p * q) == _derivative(p) * q + p * _derivative(q)


@given(coeff_lists, small_frac)
def test_evaluation_is_ring_homomorphism(a, t):
    p = _from_list(a)
    q = X * p + ONE
    assert q.evaluate(t) == t * p.evaluate(t) + 1


def test_gcd_of_known_factorizations():
    a = _linear(1) * _linear(-2)
    b = _linear(1) * _linear(3)
    assert poly_gcd(a, b) == _linear(1)
    assert poly_gcd(a, _poly(1)) == ONE


# ---------------------------------------------------------------------------
# polynomials and functions are immutable values


value_coeffs = st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=2),
                        max_size=3)
# two drawn lists, or one list and itself with trailing zeros (the same
# polynomial), so that both equal and unequal values are drawn
value_pairs = st.one_of(
    st.tuples(value_coeffs, value_coeffs),
    st.tuples(value_coeffs, st.integers(0, 2)).map(lambda t: (t[0], t[0] + [0] * t[1])))


def _assert_values(u, v, same):
    """``u`` and ``v`` compare as values that are equal exactly when
    ``same``; equal values hash equal and dedupe in a set."""
    assert (u == v) == same and (u != v) == (not same)
    if same:
        assert hash(u) == hash(v) and len({u, v}) == 1


def _assert_immutable(value, field):
    for change in (lambda: setattr(value, field, None), lambda: delattr(value, field),
                   lambda: setattr(value, "other", None)):
        with pytest.raises(AttributeError):
            change()


@given(value_pairs)
def test_a_polynomial_is_a_value_of_its_coefficients(pair):
    p, q = RationalPolynomial(pair[0]), RationalPolynomial(pair[1])
    _assert_values(p, q, p.coefficients == q.coefficients)
    _assert_values(p, RationalPolynomial(list(p.coefficients) + [0]), True)
    assert repr(p) == f"RationalPolynomial(coefficients={p.coefficients!r})"
    assert p != p.coefficients and p.coefficients != p and p != tuple(pair[0])
    coefficients = p.coefficients
    _assert_immutable(p, "coefficients")
    assert p.coefficients is coefficients


@given(value_pairs, value_coeffs, value_coeffs)
def test_a_rational_function_is_a_value_of_its_canonical_form(pair, b, c):
    den = RationalPolynomial(b) if any(b) else ONE
    cofactor = RationalPolynomial(c) if any(c) else X
    f = RationalFunction(RationalPolynomial(pair[0]), den)
    g = RationalFunction(RationalPolynomial(pair[1]), den)
    parts = (f.numerator.coefficients, f.denominator.coefficients)
    _assert_values(f, g, parts == (g.numerator.coefficients, g.denominator.coefficients))
    _assert_values(f, RationalFunction(f.numerator * cofactor, f.denominator * cofactor), True)
    assert repr(f) == (f"RationalFunction(numerator={f.numerator!r}, "
                       f"denominator={f.denominator!r})")
    assert f != (f.numerator, f.denominator) and f != parts and f != f.numerator
    _assert_immutable(f, "numerator")
    _assert_immutable(f, "denominator")
    assert (f.numerator.coefficients, f.denominator.coefficients) == parts


def test_value_reprs_keep_the_dataclass_form():
    assert repr(RationalFunction.constant(2)) == (
        "RationalFunction(numerator=RationalPolynomial(coefficients=(Fraction(2, 1),)), "
        "denominator=RationalPolynomial(coefficients=(Fraction(1, 1),)))")


# ---------------------------------------------------------------------------
# squarefree structure


def test_squarefree_decomposition_known_example():
    p = _poly(1, 0, -2, 0, -3, 0, 0)  # x^6 - 2x^4 - 3x^2
    lead, parts = squarefree_decomposition(p)
    assert lead == 1
    assert [(f.text(), m) for f, m in parts] == [("x^4 - 2*x^2 - 3", 1),
                                                 ("x", 2)]


def test_squarefree_decomposition_random_products():
    rng = seeded(31)
    for _ in range(25):
        roots = rng.sample([-3, -2, -1, 0, 1, 2, 3], k=rng.randint(1, 3))
        mults = [rng.randint(1, 3) for _ in roots]
        p = RationalPolynomial.constant(Fraction(rng.randint(1, 4)))
        for r, m in zip(roots, mults):
            for _ in range(m):
                p = p * _linear(r)
        lead, parts = squarefree_decomposition(p)
        # rebuild and compare
        rebuilt = RationalPolynomial.constant(lead)
        for f, m in parts:
            for _ in range(m):
                rebuilt = rebuilt * f
        assert rebuilt == p
        # multiplicities group the roots exactly
        by_mult = {}
        for r, m in zip(roots, mults):
            by_mult.setdefault(m, []).append(r)
        for f, m in parts:
            assert sorted(Fraction(r) for r in by_mult[m]) == \
                sorted(r for r in by_mult[m])
            for r in by_mult[m]:
                assert f.evaluate(r) == 0
            assert f.degree == len(by_mult[m])


def _reference_gcd(a, b):
    """Monic gcd by Euclid's algorithm in ``Fraction`` arithmetic."""
    while not b.is_zero():
        a, b = b, _divmod(a, b)[1]
    return a if a.is_zero() else a.scale(1 / a.leading)


def _reference_quotient(a, b):
    q, r = _divmod(a, b)
    assert r.is_zero()
    return q


def _reference_yun(p):
    """Yun's decomposition on the monic ``p``, in ``Fraction`` arithmetic."""
    lead = p.leading
    p = p.scale(1 / lead)
    if p.degree == 0:
        return lead, []
    dp = _derivative(p)
    a = _reference_gcd(p, dp)
    b, c = _reference_quotient(p, a), _reference_quotient(dp, a)
    d = c - _derivative(b)
    out, i = [], 1
    while b.degree > 0:
        g = _reference_gcd(b, d)
        if g.degree > 0:
            out.append((g, i))
        b = _reference_quotient(b, g)
        d = _reference_quotient(d, g) - _derivative(b)
        i += 1
    return lead, out


_planted_factor = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    min_size=1, max_size=2).map(lambda cs: RationalPolynomial(tuple(cs) + (1,)))


@st.composite
def _planted_products(draw):
    """``c * prod f_i^m_i``: degree <= 12, multiplicities 1-4, c of either sign."""
    p = RationalPolynomial.constant(draw(st.fractions(
        min_value=-6, max_value=6, max_denominator=5).filter(bool)))
    for f in draw(st.lists(_planted_factor, max_size=4)):
        m = draw(st.integers(1, 4))
        if p.degree + m * f.degree <= 12:
            p = p * f.pow(m)
    return p


@given(_planted_products(), _planted_products(), _planted_products())
def test_integer_yun_and_gcd_equal_the_fraction_reference(p, q, shared):
    assert squarefree_decomposition(p) == _reference_yun(p)
    a, b = p * shared, q * shared
    if a.degree <= 12 and b.degree <= 12:
        assert poly_gcd(a, b) == _reference_gcd(a, b)
    assert poly_gcd(p, RationalPolynomial(())) == _reference_gcd(
        p, RationalPolynomial(()))


def test_non_exact_integer_division_raises():
    with pytest.raises(InternalCheckError):
        _exact_quotient((1, 0, 1), (1, 1))  # x^2 + 1 by x + 1
    with pytest.raises(InternalCheckError):
        _exact_quotient((1, 0, 1), (0, 2))  # leading 1 not a multiple of 2
    with pytest.raises(InternalCheckError):
        _poly(1, 0, 1).exact_div(_linear(-1))
    assert _exact_quotient((-1, 0, 1), (1, 1)) == (-1, 1)
    assert _poly(Fraction(1, 2), 0, Fraction(-1, 2)).exact_div(
        _poly(3, 3)) == _poly(Fraction(1, 6), Fraction(-1, 6))


def test_squarefree_and_odd_parts():
    sq = _linear(1) * _linear(1) * _linear(-1) * _linear(-1) * _linear(-1)
    assert _squarefree_part(sq) == _monic(_linear(1) * _linear(-1))
    _, factors = squarefree_decomposition(sq)
    assert [g for g, m in factors if m % 2 == 1] == [_monic(_linear(-1))]


def test_power_matches_binomials_and_repeated_products():
    assert (X + ONE).pow(1000).coefficients == tuple(
        Fraction(math.comb(1000, k)) for k in range(1001))
    for base in (_poly(Fraction(1, 7), Fraction(1, 3)),
                 _poly(Fraction(-2, 5), 0, Fraction(3, 4)), _poly(-6)):
        acc = ONE
        for n in range(10):
            assert base.pow(n) == acc
            acc = acc * base
    assert RationalPolynomial([]).pow(0) == ONE
    assert RationalPolynomial([]).pow(3).is_zero()


def _power_by_squaring(base, n):
    """``base ** n`` by repeated squaring of the polynomial product."""
    out = ONE
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        base = base * base
    return out


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(rationals.filter(bool), rationals, st.integers(0, 80))
def test_a_linear_power_by_binomials_equals_the_squaring(a, b, n):
    # (a*x + b)^n is expanded by the binomial theorem: its coefficients
    # are the ones that repeated squaring gives
    base = _poly(a, b)
    assert base.degree == 1
    assert base.pow(n).coefficients == _power_by_squaring(base, n).coefficients


# ---------------------------------------------------------------------------
# Sturm counting against constructed factorizations


def test_root_counts_frozen():
    assert sturm_root_count(_poly(1, 0, -2)) == 2          # x^2 - 2
    assert sturm_root_count(_poly(1, 0, 1)) == 0           # x^2 + 1
    assert sturm_root_count(_poly(1, 0, -1, 0), 0, 2) == 1  # x^3 - x on (0, 2]
    assert sturm_root_count(_poly(1, 0, -1, 0), -1, 1) == 2  # roots 0 and 1
    with pytest.raises(InputError):
        sturm_root_count(RationalPolynomial(()))


def _random_known_poly(rng):
    """Product of known linear factors and rootless quadratics, degree <= 6."""
    roots = []
    p = RationalPolynomial.constant(Fraction(rng.choice([1, 2, -1, 3])))
    degree_budget = 6
    while degree_budget > 0 and rng.random() < 0.8:
        if rng.random() < 0.6:
            r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            mult = rng.randint(1, min(2, degree_budget))
            for _ in range(mult):
                p = p * _linear(r)
            roots.extend([r] * mult)
            degree_budget -= mult
        elif degree_budget >= 2:
            b = rng.randint(-2, 2)
            c = rng.randint(1, 4)
            if b * b - 4 * c < 0:  # irreducible over the reals
                p = p * _poly(1, b, c)
                degree_budget -= 2
        else:
            break
    return p, roots


def test_sturm_vs_factorization_oracle_hundred_polys():
    rng = seeded(47)
    built = 0
    while built < 100:
        p, roots = _random_known_poly(rng)
        if p.degree < 1:
            continue
        built += 1
        distinct = sorted(set(roots))
        assert sturm_root_count(p) == len(distinct)
        lo, hi = Fraction(rng.randint(-5, 0)), Fraction(rng.randint(0, 5))
        want = sum(1 for r in distinct if lo < r <= hi)
        assert sturm_root_count(p, lo, hi) == want


def test_isolating_intervals_partition_roots():
    rng = seeded(53)
    for _ in range(20):
        p, roots = _random_known_poly(rng)
        if p.degree < 1:
            continue
        distinct = sorted(set(roots))
        intervals = isolate_real_roots(p)
        assert len(intervals) == len(distinct)
        for (lo, hi), r in zip(sorted(intervals), distinct):
            assert lo < r <= hi
        tail = SturmChain(p).tail
        assert all(-tail < r < tail for r in distinct)


def test_refine_interval_shrinks_around_root():
    p = _poly(1, 0, -2)  # root sqrt(2)
    (lo, hi) = [iv for iv in isolate_real_roots(p) if iv[1] > 0][0]
    lo2, hi2 = refine_interval(p, (lo, hi), Fraction(1, 1000))
    assert hi2 - lo2 <= Fraction(1, 1000)
    assert lo2 * lo2 < 2 < hi2 * hi2 or p.evaluate(hi2) == 0


def _rational_sturm_sequence(p):
    """The textbook Sturm sequence of the square-free part, in Fractions."""
    seed = _squarefree_part(p)
    seq = [seed]
    if seed.degree > 0:
        seq.append(_derivative(seed))
        while seq[-1].degree > 0:
            rem = _divmod(seq[-2], seq[-1])[1]
            if rem.is_zero():
                break
            seq.append(-rem)
    return seq


def _fraction_variations(entries, x):
    values = [RationalPolynomial(tuple(Fraction(c) for c in e)).evaluate(x)
              for e in entries]
    signs = [(v > 0) - (v < 0) for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _random_rational_poly(rng):
    return RationalPolynomial(tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for _ in range(rng.randint(2, 8))))


def test_integer_sign_evaluation_matches_fraction_evaluation():
    rng = seeded(59)
    checked = 0
    while checked < 60:
        if checked % 2:
            p, roots = _random_rational_poly(rng), None
        else:
            p, roots = _random_known_poly(rng)
        if p.degree < 1:
            continue
        checked += 1
        chain = SturmChain(p)
        entries = chain.chain
        reference = _rational_sturm_sequence(p)
        # each integer entry is a positive multiple of the rational entry
        assert len(entries) == len(reference)
        for ints, q in zip(entries, reference):
            assert all(isinstance(c, int) for c in ints)
            ratio = Fraction(ints[-1]) / q.leading
            assert ratio > 0
            assert tuple(ratio * c for c in q.coefficients) == ints
        points = [Fraction(rng.randint(-10**6, 10**6),
                           rng.randint(10**5, 10**7)) for _ in range(4)]
        points += [Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                   for _ in range(3)]
        points += sorted(set(roots or ()))
        for x in points:
            assert _variations(chain, x) == _fraction_variations(entries, x)
            assert _variations(chain, x) == _fraction_variations(
                [q.coefficients for q in reference], x)
        # beyond every root of every entry the signs are those at infinity
        far = 1 + max(cauchy_root_bound(q) for q in reference)
        assert chain.minus_infinity == _fraction_variations(entries, -far)
        assert chain.plus_infinity == _fraction_variations(entries, far)
        ends = [None] + sorted(points)
        for lo, hi in zip(ends, ends[1:] + [None]):
            got = chain.count(lo, hi)
            lo_x = -far if lo is None else lo
            hi_x = far if hi is None else hi
            assert got == (_fraction_variations(entries, lo_x)
                           - _fraction_variations(entries, hi_x))
            if roots is not None:
                assert got == sum(1 for r in set(roots)
                                  if (lo is None or lo < r)
                                  and (hi is None or r <= hi))


def test_chain_of_a_square_free_polynomial_runs_one_remainder_sequence(
        monkeypatch):
    # the chain Yun's decomposition builds for its first gcd is the chain
    p = _linear(1) * _linear(-2) * _poly(3, 0, 1)
    seeds = []
    entries = formallyreal._sturm_entries

    def counted(seed):
        seeds.append(seed)
        return entries(seed)

    monkeypatch.setattr(formallyreal, "_sturm_entries", counted)
    square_free = SturmChain(p.scale(-5))
    assert len(seeds) == 1
    assert _monic(RationalPolynomial(square_free.chain[0])) == _monic(p)
    assert square_free.chain == SturmChain(p * p).chain
    assert sturm_root_count(square_free) == 2
    assert isolate_real_roots(square_free) == isolate_real_roots(p)


def _two_evaluation_isolation(chain):
    """Bisection of ``[-tail, tail]`` that evaluates both ends of every
    count, as isolation did before counts were carried with intervals."""
    def count(lo, hi):
        return _variations(chain, lo) - _variations(chain, hi)

    bound = Fraction(chain.tail)
    out, stack = [], [(-bound, bound, count(-bound, bound))]
    while stack:
        a, b, c = stack.pop()
        if c == 1:
            out.append((a, b))
        elif c > 1:
            mid = (a + b) / 2
            left = count(a, mid)
            stack.append((mid, b, c - left))
            stack.append((a, mid, left))
    return out


def _two_evaluation_refinement(chain, interval, width):
    lo, hi = interval
    while hi - lo > width:
        mid = (lo + hi) / 2
        if _variations(chain, lo) - _variations(chain, mid) == 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


def test_isolation_and_refinement_equal_the_two_evaluation_bisection():
    # refinement from non-dyadic ends: the root 1/2 of (x - 1/2)(x - 2)(x + 1)
    # in (1/3, 5/7], halved on the grid 1/3 + j * 8/(21 * 2^t)
    chain = SturmChain(_linear(Fraction(1, 2)) * _linear(2) * _linear(-1))
    start = (Fraction(1, 3), Fraction(5, 7))
    lo, hi = refine_interval(chain, start, Fraction(1, 100))
    assert (lo, hi) == _two_evaluation_refinement(chain, start, Fraction(1, 100))
    assert lo < Fraction(1, 2) <= hi and hi - lo == Fraction(8, 21 * 2 ** 6)
    assert ((lo - Fraction(1, 3)) * 168).denominator == 1
    assert refine_interval(chain, start, 1) == start
    # roots on dyadic grid points (0, +-1, +-1/2, ...) and at powers of two,
    # next to the ends of isolation's start ``[-tail, tail]``
    rng = seeded(83)
    pool = [0, 1, -1, 2, -2, 4, -4, 8, -8, 64, -64, 3, -5,
            Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4), Fraction(-3, 8)]
    for trial in range(80):
        if trial % 2:
            p = _random_known_poly(rng)[0]
        else:
            p = RationalPolynomial.constant(rng.choice([1, -3, Fraction(2, 5)]))
            for r in rng.sample(pool, rng.randint(1, 4)):
                p = p * _linear(r).pow(rng.randint(1, 2))
            if rng.random() < 0.3:
                p = p * _poly(1, 0, rng.choice([1, 4, 64]))
        if p.degree < 1:
            continue
        chain = SturmChain(p)
        want = _two_evaluation_isolation(chain)
        assert isolate_real_roots(chain) == want
        for interval in want:
            for width in (Fraction(1, 4), Fraction(1, 2 ** 20)):
                assert refine_interval(chain, interval, width) == \
                    _two_evaluation_refinement(chain, interval, width)
            # halved widths, from a refined interval
            refined = refine_interval(chain, interval, Fraction(1, 4))
            for _ in range(4):
                width = (refined[1] - refined[0]) / 2
                want_refined = _two_evaluation_refinement(chain, refined, width)
                refined = refine_interval(chain, refined, width)
                assert refined == want_refined
            # non-dyadic endpoints around the same root
            lo, hi = refine_interval(chain, interval, Fraction(1, 2 ** 30))
            for den_lo, den_hi in ((3, 7), (5, 9), (12, 15)):
                outer = (Fraction(math.floor(lo * den_lo) - 1, den_lo),
                         Fraction(math.ceil(hi * den_hi) + 1, den_hi))
                if chain.count(*outer) != 1:
                    continue
                for width in (Fraction(1, 3), Fraction(2, 7 ** 9)):
                    assert refine_interval(chain, outer, width) == \
                        _two_evaluation_refinement(chain, outer, width)
        tail = chain.tail
        for x in (tail, tail + 1, 2 * tail, tail - Fraction(1, 3), 0):
            assert chain.variations_at(x) == _variations(chain, x)
            assert chain.variations_at(-x) == _variations(chain, -x)


# ---------------------------------------------------------------------------
# simplest rationals


def simplest_between(lo, hi):
    """The simplest rational in the open interval ``(lo, hi)``, read by
    :func:`formallyreal._simplest` off the ends as integer pairs."""
    a, b = Fraction(lo), Fraction(hi)
    return Fraction(*formallyreal._simplest((a.numerator, a.denominator),
                                            (b.numerator, b.denominator)))


def test_simplest_between_frozen():
    assert simplest_between(Fraction(1, 4), Fraction(1, 3)) == Fraction(2, 7)
    assert simplest_between(Fraction(-1, 2), Fraction(1, 2)) == 0
    assert simplest_between(Fraction(5, 2), Fraction(7, 2)) == 3
    # unreduced ends, and an infinite end as None
    assert formallyreal._simplest((2, 8), (4, 12)) == (2, 7)
    assert formallyreal._simplest(None, (-3, 2)) == (-2, 1)
    assert formallyreal._simplest(None, (0, 1)) == (-1, 1)
    assert formallyreal._simplest((5, 2), None) == (3, 1)
    assert formallyreal._simplest((-1, 3), None) == (0, 1)
    assert formallyreal._simplest(None, None) == (0, 1)


@given(st.fractions(min_value=-10, max_value=10, max_denominator=40),
       st.fractions(min_value=-10, max_value=10, max_denominator=40))
def test_simplest_between_is_minimal_denominator(a, b):
    if a >= b:
        return
    s = simplest_between(a, b)
    assert a < s < b
    for q in range(1, s.denominator + 1):
        lo_p = math.floor(a * q) + 1
        # any fraction p/q strictly inside with a smaller denominator, or
        # with the same one and a smaller absolute value, would contradict
        # minimality in the (denominator, |x|, + before -) order
        assert not any(a < Fraction(p, q) < b
                       and (q < s.denominator or abs(p) < abs(s.numerator))
                       for p in range(lo_p, math.ceil(b * q) + 1))


# ---------------------------------------------------------------------------
# rational functions and the parser


def test_rational_function_normalization():
    f = parse_rational_function("(x^2-1)/(x-1)")
    assert f.text() == "x + 1"
    g = parse_rational_function("(2*x)/(4)")
    assert g.evaluate(2) == 1
    assert poly_gcd(g.numerator, g.denominator) == ONE
    assert g.denominator.coefficients[-1] == 1  # monic denominator


@given(coeff_lists, coeff_lists, small_frac)
def test_rational_function_field_ops(a, b, t):
    p, q = _from_list(a), _from_list(b)
    if q.degree < 0:
        return
    f = RationalFunction(p, q)
    g = RationalFunction(q, ONE)
    h = f * g + f
    if all(_defined_at(fn, t) for fn in (f, g, h)):
        assert h.evaluate(t) == f.evaluate(t) * g.evaluate(t) + f.evaluate(t)


def test_parser_reports_position_and_expectation():
    for text in ["x^", "(x", "", "3//x", "x + * 2"]:
        with pytest.raises(InputError) as err:
            parse_rational_function(text)
        assert "position" in str(err.value)
    with pytest.raises(InputError):
        parse_rational_function("1/0")


def test_parse_text_roundtrip():
    for expr in ["x^2", "(x^4+3)/(x^2+1)", "x^2 + 2", "(x^2+1)/(x^2+2)",
                 "7", "0", "(3*x - 1)/(x^2 + 5)"]:
        f = parse_rational_function(expr)
        again = parse_rational_function(f.text())
        assert again == f


@pytest.mark.parametrize("expr,coefficients", [
    ("x^2+2", [2, 0, 1]),
    ("(x-3)^4+7*x", [81, -101, 54, -12, 1]),
])
def test_a_constant_denominator_makes_no_gcd(monkeypatch, expr, coefficients):
    # every intermediate function of the parse has the denominator 1, which
    # is coprime to every numerator (4 gcds for x^2+2 when each one is taken)
    calls = []
    gcd = formallyreal.poly_gcd
    monkeypatch.setattr(formallyreal, "poly_gcd",
                        lambda a, b: calls.append(1) or gcd(a, b))
    f = parse_rational_function(expr)
    assert (f.numerator, f.denominator) == (RationalPolynomial(coefficients), ONE)
    assert calls == []


# ---------------------------------------------------------------------------
# sum-of-squares membership


def test_membership_frozen_examples():
    x = parse_rational_function("x")
    res = is_sos_membership(x)
    assert not res["member"]
    assert res["witness"] == -1 and res["witness_value"] == -1
    assert is_sos_membership(parse_rational_function("x^2"))["member"]
    assert is_sos_membership(parse_rational_function("(x^2+1)/(x^2+2)"))["member"]
    assert is_sos_membership(parse_rational_function("0"))["member"]
    neg = is_sos_membership(parse_rational_function("-1"))
    assert not neg["member"] and neg["witness_value"] < 0


def test_membership_witnesses_are_exactly_negative():
    rng = seeded(61)
    for _ in range(40):
        num = _random_known_poly(rng)[0]
        den = _random_known_poly(rng)[0]
        if den.degree < 0 or num.degree + den.degree > 8:
            continue
        f = RationalFunction(num, den)
        res = is_sos_membership(f)
        if not res["member"]:
            w = res["witness"]
            assert _defined_at(f, w)
            assert f.evaluate(w) == res["witness_value"]
            assert res["witness_value"] < 0


@pytest.mark.parametrize("expr,witness", [
    ("(x-3)^200-1", Fraction(3)),
    ("(2*x-7)^2-1", Fraction(7, 2)),
    ("((2*x-7)^2-1)/(3*x^2+1)", Fraction(7, 2)),
    ("(x-1)/(x^2-4)", Fraction(-3)),
    ("-(x^2+1)/(5*x-1)^2", Fraction(0)),
])
def test_the_membership_witness_is_valued_in_integers(monkeypatch, expr, witness):
    # the self-check of a "no" values f at its witness on f's integer
    # numerator and denominator, by homogeneous Horner, with no Fraction
    # evaluation of f or of a polynomial; the value is f's, by that oracle
    f = parse_rational_function(expr)

    def refused(*args):
        raise AssertionError("a Fraction evaluation ran")

    with monkeypatch.context() as patch:
        patch.setattr(RationalFunction, "evaluate", refused)
        patch.setattr(RationalPolynomial, "evaluate", refused)
        res = is_sos_membership(f)
    assert (res["member"], res["witness"]) == (False, witness)
    assert type(res["witness_value"]) is Fraction
    assert res["witness_value"] == f.evaluate(witness) < 0


def test_a_split_that_is_not_fs_trips_the_membership_check():
    # the integer split must lead as f's numerator and denominator do
    f = parse_rational_function("(x^2-2)/(3*x+1)")
    N, D = formallyreal._int_split(f)
    assert formallyreal._shifted_value(f, N, D, Fraction(1, 2), 0) == f.evaluate(Fraction(1, 2))
    with pytest.raises(InternalCheckError, match="are not f's"):
        formallyreal._shifted_value(f, N, tuple(2 * c for c in D), Fraction(1, 2), 0)
    with pytest.raises(InternalCheckError, match="pole"):
        formallyreal._shifted_value(f, N, D, Fraction(-1, 3), 0)


@settings(max_examples=60)
@given(st.integers(1, 300), st.integers(-5, 5), st.integers(1, 3))
def test_membership_witness_of_a_shifted_power_is_the_first_negative_integer(n, a, b):
    # (x-a)^n - b is -b < 0 at x = a, so some integer is a witness; the
    # witness is the first one in the order 0, 1, -1, 2, -2, ...
    res = is_sos_membership(parse_rational_function(f"(x-({a}))^{n}-{b}"))
    x = 0
    while (x - a) ** n - b >= 0:
        x = -x if x > 0 else 1 - x
    assert not res["member"]
    assert (res["witness"], res["witness_value"]) == (x, (x - a) ** n - b)


def test_membership_accepts_constructed_squares():
    rng = seeded(67)
    for _ in range(15):
        p = _random_known_poly(rng)[0]
        q = _random_known_poly(rng)[0]
        if q.degree < 0 or (p.degree + q.degree) > 3:
            continue
        f = RationalFunction(p * p, q * q + ONE)
        assert is_sos_membership(f)["member"]


def test_pointwise_fact_is_flagged():
    assert isinstance(POINTWISE_FACT, str) and "Pourchet" in POINTWISE_FACT


# ---------------------------------------------------------------------------
# the skew-hypothesis bound


def test_skew_hypothesis_frozen():
    res = theorem_skew_hypothesis(parse_rational_function("x^2"))
    assert res["k"] == 1 and res["witness"] == 0
    res0 = theorem_skew_hypothesis(parse_rational_function("0"))
    assert res0["k"] == 1 and res0["witness"] == 0
    quartic = theorem_skew_hypothesis(parse_rational_function("(x^4+3)/(x^2+1)"))
    assert quartic["k"] == 3
    assert quartic["witness"] == 1
    assert quartic["bound"] == 4


@pytest.mark.parametrize("text, k, witness, value", [
    ("(8+16*x-2*x^2-8*x^3-2*x^4)^2/((3-x)^2+1)+3", 4, -1, Fraction(-1, 17)),
    ("(2+2*x+3*x^2-2*x^3)^2/((1-x^2)^2+1)+5", 6, 2, Fraction(-3, 5)),
])
def test_the_shift_witness_does_not_depend_on_the_isolation_grid(
        monkeypatch, text, k, witness, value):
    # the witness is the least point of the order, so isolating the roots
    # of the shifted numerator from the chain's power-of-two bound, on the
    # grid of sqf(m) * sqf(D)'s Cauchy bound (the rule isolation once
    # followed here) or on that of sqf(m)'s own gives the same one
    f = parse_rational_function(text)
    res = theorem_skew_hypothesis(f)
    assert (res["k"], res["witness"], res["witness_value"]) == (k, witness, value)
    assert _shift_witness_at(f, k) == witness
    N, D = _split(f)
    m, Dp = primitive(_int_sub(N, [k * c for c in D])), primitive(D)
    sf = formallyreal._int_product(
        h for h, _ in formallyreal._yun(m)[0] + formallyreal._yun(Dp)[0])
    isolate = formallyreal._isolate
    for bound in (cauchy_root_bound(sf), None):
        grids = []

        def on_the_cauchy_grid(chain):
            grids.append((oracle_cauchy_isolation(chain, bound), isolate(chain)))
            return grids[-1][0]

        monkeypatch.setattr(formallyreal, "_isolate", on_the_cauchy_grid)
        assert _shift_witness_at(f, k) == witness
        # the brackets the witness was read from are not the program's
        assert grids and all(cauchy != own for cauchy, own in grids)


def test_skew_hypothesis_minimality_on_random_instances():
    rng = seeded(71)
    done = 0
    while done < 20:
        p = _random_known_poly(rng)[0]
        q = _random_known_poly(rng)[0]
        if q.degree < 1 or p.degree > 6 or q.degree > 6:
            continue
        f = RationalFunction(p * p, q * q + ONE)  # a genuine square
        shift = rng.randint(0, 2)
        f = f + RationalFunction(RationalPolynomial.constant(Fraction(shift)),
                                 ONE)
        done += 1
        res = theorem_skew_hypothesis(f)
        k = res["k"]
        assert k >= 1
        minus_k = f - RationalFunction(
            RationalPolynomial.constant(Fraction(k)), ONE)
        refuted = is_sos_membership(minus_k)
        assert not refuted["member"]
        assert refuted["witness_value"] < 0
        if k > 1:
            minus_prev = f - RationalFunction(
                RationalPolynomial.constant(Fraction(k - 1)), ONE)
            assert is_sos_membership(minus_prev)["member"]


def test_large_shift_search_divides_no_rational_polynomial(monkeypatch):
    # work counters do not jitter: the sample at 0 refutes 100001, so the
    # search makes one integer decision, at 100000, and that sample is the
    # witness: no witness is built and no membership call is made; the
    # library has no ``Fraction`` polynomial division left to make
    f = parse_rational_function("x^2+100000")
    decisions, witnesses, memberships = [], [], []
    decide = formallyreal._shift_probe
    witness = formallyreal._shift_witness
    membership = formallyreal.is_sos_membership

    def counted_decision(n, d, k):
        decisions.append(k)
        return decide(n, d, k)

    def counted_witness(m, yun, d, d_yun):
        witnesses.append((m, d))
        return witness(m, yun, d, d_yun)

    def counted_membership(g):
        memberships.append(g)
        return membership(g)

    monkeypatch.setattr(formallyreal, "_shift_probe", counted_decision)
    monkeypatch.setattr(formallyreal, "_shift_witness", counted_witness)
    monkeypatch.setattr(formallyreal, "is_sos_membership", counted_membership)
    res = theorem_skew_hypothesis(f)
    assert not hasattr(RationalPolynomial, "divmod")
    assert decisions == [100000]
    assert witnesses == []
    assert memberships == []
    assert (res["k"], res["witness"], res["witness_value"]) == (100001, 0, -1)


def _count_chain_builds(monkeypatch):
    """Count the remainder sequences run, one per ``_sturm_entries`` or
    ``_int_gcd`` call: in all, ``(ran_yun, square_free, builds)`` per
    probe, and ``builds`` per witness."""
    builds, probes, witnesses = [0], [], []
    entries = formallyreal._sturm_entries
    int_gcd = formallyreal._int_gcd
    decide = formallyreal._shift_probe
    witness = formallyreal._shift_witness

    def counted_entries(seed):
        builds[0] += 1
        return entries(seed)

    def counted_gcd(a, b):
        builds[0] += 1
        return int_gcd(a, b)

    def counted_decision(n, d, k):
        before = builds[0]
        out = decide(n, d, k)
        ran_yun, m = out[2] is not None, out[1]
        square_free = ran_yun and len(int_gcd(m, _int_derivative(m))) == 1
        probes.append((ran_yun, square_free, builds[0] - before))
        return out

    def counted_witness(*args):
        before = builds[0]
        out = witness(*args)
        witnesses.append(builds[0] - before)
        return out

    monkeypatch.setattr(formallyreal, "_sturm_entries", counted_entries)
    monkeypatch.setattr(formallyreal, "_int_gcd", counted_gcd)
    monkeypatch.setattr(formallyreal, "_shift_probe", counted_decision)
    monkeypatch.setattr(formallyreal, "_shift_witness", counted_witness)
    return builds, probes, witnesses


@pytest.mark.parametrize("text, k, decided, witnesses_built", [
    # the sample at 0 refutes 100001, and the one probe, at 100000, is the
    # member x^2 + 1/2; that sample is the witness
    ("x^2+200001/2", 100001, [100000], []),
    # p^2/(q^2+1) + 5/2 with p = (2x - 3)(x^5 - 2x^3 + x^2 + 3x - 1), degree
    # 12: a sample refutes 4 and the probes 3, 1, 2 find k = 3; no sample is
    # below 3, so the witness isolates on the refuting probe's chain
    ("((2*x-3)*(x^5-2*x^3+x^2+3*x-1))^2/((x^2-x+2)^2+1)+5/2", 3, [3, 1, 2], [0]),
])
def test_a_square_free_probe_runs_one_remainder_sequence(
        monkeypatch, text, k, decided, witnesses_built):
    # Yun's first gcd is read off the Sturm chain of the shifted numerator,
    # and that chain counts its odd roots when it is square-free; the
    # denominator has no real root, so a witness isolates on that chain
    f = parse_rational_function(text)
    builds, probes, witnesses = _count_chain_builds(monkeypatch)
    ks = []
    decide = formallyreal._shift_probe

    def recorded(n, d, shift):
        ks.append(shift)
        return decide(n, d, shift)

    monkeypatch.setattr(formallyreal, "_shift_probe", recorded)
    res = theorem_skew_hypothesis(f)
    assert res["k"] == k
    assert ks == decided
    assert probes == [(True, True, 1)] * len(decided)
    assert witnesses == witnesses_built
    # and one more for the denominator's decomposition, before any probe
    assert builds[0] == len(decided) + 1


def test_a_repeated_root_probe_builds_one_chain_of_its_square_free_part(
        monkeypatch):
    # (9x^4 + 1)/(x^2 + 1) - 1 = x^2 (9x^2 - 1)/(x^2 + 1) is negative only
    # on 0 < |x| < 1/3, where no integer sample falls: the denominator has
    # no real root, so the witness isolates on one chain of x (9x^2 - 1),
    # not of x (9x^2 - 1) (x^2 + 1); the root 1/3 is made exact, and 1/4
    # is the least point of the order below it
    f = parse_rational_function("(9*x^4+1)/(x^2+1)")
    builds, probes, witnesses = _count_chain_builds(monkeypatch)
    _bounded_evaluations(monkeypatch, 1000)
    seeds, witness_seeds = [], []
    entries = formallyreal._sturm_entries
    witness = formallyreal._shift_witness

    def recorded_entries(seed):
        seeds.append(seed)
        return entries(seed)

    def recorded_witness(*args):
        before = len(seeds)
        out = witness(*args)
        witness_seeds.extend(seeds[before:])
        return out

    monkeypatch.setattr(formallyreal, "_sturm_entries", recorded_entries)
    monkeypatch.setattr(formallyreal, "_shift_witness", recorded_witness)
    res = theorem_skew_hypothesis(f)
    assert (res["k"], res["witness"], res["witness_value"]) == \
        (1, Fraction(1, 4), Fraction(-7, 272))
    assert [square_free for _, square_free, _ in probes] == [False]
    assert witnesses == [1]
    assert witness_seeds == [(0, -1, 0, 9)]  # 9x^3 - x, degree 3
    assert builds[0] == sum(n for *_, n in probes) + witnesses[0] + 1


@pytest.mark.parametrize("text, member", [
    ("(x^2-2)/(x^2+1)", False),
    ("(x^2+2)/(x^2+1)", True),
    ("(x-1)*(x+3)*(x^2+x+1)", False),
])
def test_membership_on_a_square_free_product_runs_one_remainder_sequence(
        monkeypatch, text, member):
    f = parse_rational_function(text)
    builds, _, _ = _count_chain_builds(monkeypatch)
    assert is_sos_membership(f)["member"] is member
    assert builds == [1]


def _split(f):
    """The integer numerator and denominator the shift search uses."""
    num, den = f.numerator, f.denominator
    ints = formallyreal.as_int_vector(num.coefficients + den.coefficients)
    return ints[:num.degree + 1], ints[num.degree + 1:]


def _shift_witness_at(f, k):
    """The witness that the root-isolating path builds for ``f - k``."""
    N, D = _split(f)
    m = primitive(_int_sub(N, [k * c for c in D]))
    Dp = primitive(D)
    return formallyreal._shift_witness(m, None, Dp, formallyreal._yun(Dp))


def _least_negative_point(f, k, dens=16, reach=20):
    """The first rational ``x`` with ``f(x) - k < 0``, ``f`` defined, in the
    order (denominator, |x|, + before -), walked by brute force over
    denominators up to ``dens`` and ``|x| <= reach``; ``None`` past that."""
    for q in range(1, dens + 1):
        for a in range(reach * q + 1):
            if math.gcd(a, q) != 1:
                continue
            for x in ((Fraction(a, q), Fraction(-a, q)) if a else (Fraction(0),)):
                if _defined_at(f, x) and f.evaluate(x) < k:
                    return x
    return None


def _is_least_negative_point(f, k, w, dens=16, reach=20):
    """``w`` is the brute-force least point, or lies past the walk's reach
    with no point of the walk negative."""
    want = _least_negative_point(f, k, dens, reach)
    if want is None:
        return w.denominator > dens or abs(w) > reach
    return w == want


def _linear_scan_shift(f):
    """The least refuted shift found by trying k = 1, 2, ... in turn."""
    walk = (c for n in itertools.count() for c in ((n, -n) if n else (0,)))
    x0 = next(Fraction(c) for c in walk if _defined_at(f, c))
    cap = max(1, math.floor(f.evaluate(x0)) + 1)
    for k in range(1, cap + 1):
        verdict = is_sos_membership(f - RationalFunction.constant(k))
        if not verdict["member"]:
            return {"k": k, "witness": verdict["witness"],
                    "witness_value": verdict["witness_value"],
                    "sample_point": x0, "bound": cap,
                    "criterion": POINTWISE_FACT}
    raise AssertionError("the linear scan passed its evaluation bound")


def test_shift_search_equals_the_linear_scan_on_planted_functions():
    rng = seeded(73)
    for _ in range(16):
        p = RationalPolynomial(tuple(Fraction(rng.randint(-3, 3))
                                     for _ in range(rng.randint(1, 5))))
        q = RationalPolynomial(tuple(Fraction(rng.randint(-3, 3))
                                     for _ in range(rng.randint(1, 5))))
        f = (RationalFunction(p * p, q * q + ONE)
             + RationalFunction.constant(rng.randint(0, 40)))
        assert f.numerator.degree <= 8 and f.denominator.degree <= 8
        assert theorem_skew_hypothesis(f) == _linear_scan_shift(f)


def _shift_search_inputs(rng):
    """Planted sos-shift shapes, denominators with real roots of odd and of
    even multiplicity, constants and zero."""
    out = [RationalFunction.constant(c)
           for c in (0, 1, 5, Fraction(7, 2), Fraction(-3, 2), -4)]
    for _ in range(80):  # p^2/(q^2+1) + s with p(b/a) = 0, degree <= 12
        p = _poly(rng.randint(1, 3), -rng.randint(-4, 4))
        for _ in range(rng.randint(0, 3)):
            p = p * _poly(*[rng.randint(-3, 3) for _ in range(2)]
                          + [rng.choice((-2, -1, 1, 2))])
        q = RationalPolynomial(tuple(Fraction(rng.randint(-3, 3))
                                     for _ in range(rng.randint(1, 5))))
        out.append(RationalFunction(p * p, q * q + ONE)
                   + RationalFunction.constant(rng.randint(0, 6)))
    for _ in range(60):  # odd-multiplicity denominator roots
        num, _ = _random_known_poly(rng)
        den = _linear(rng.randint(-3, 3)).pow(rng.choice((1, 3)))
        if not num.is_zero():
            out.append(RationalFunction(num, den * _random_known_poly(rng)[0]))
    for _ in range(60):  # even-multiplicity denominator roots
        num = _poly(rng.randint(1, 3), rng.randint(-3, 3), rng.randint(1, 9))
        den = _linear(Fraction(rng.randint(-4, 4), rng.randint(1, 2))).pow(2)
        if rng.random() < 0.5:
            den = den * _poly(1, 0, rng.randint(1, 3))
        out.append(RationalFunction(num, den)
                   + RationalFunction.constant(rng.randint(0, 3)))
    for _ in range(30):  # p^2/(q^2+1)^2 + s: no real root, not square-free
        p = RationalPolynomial(tuple(Fraction(rng.randint(-3, 3))
                                     for _ in range(rng.randint(1, 4))))
        q = _poly(rng.choice((-2, -1, 1, 2)), rng.randint(-3, 3))
        out.append(RationalFunction(p * p, (q * q + ONE).pow(2))
                   + RationalFunction.constant(rng.randint(0, 6)))
    for _ in range(30):  # refuted at k = c on t (x-a)^2 (x-b)(x-e) / den
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        e = b + rng.randint(1, 3)
        # t times the least value of (x-a)^2 (x-b)(x-e) is above -1 and
        # den >= 1, so f - (c - 1) > 0 while f - c < 0 between b and e
        t = 1 / (1 + Fraction((e - b) ** 2, 4) * max(abs(b - a), abs(e - a)) ** 2)
        q = _poly(rng.randint(-2, 2), rng.randint(-3, 3))
        den = (q * q + ONE).pow(rng.choice((1, 2)))
        num = (_linear(a).pow(2) * _linear(b) * _linear(e)).scale(t)
        out.append(RationalFunction(num, den)
                   + RationalFunction.constant(rng.randint(1, 4)))
    for _ in range(30):  # refuted at k = c on t (x-b)(x-b-1) / den only
        # between b and b + 1, where no integer sample falls: t < 4 and den
        # >= 1 there, over a denominator without real roots or over (x-r)^2
        # at an integer r at least 1 away from [b, b + 1]
        b, t = rng.randint(-3, 3), Fraction(rng.randint(1, 7), 2)
        if rng.random() < 0.5:
            den = _linear(rng.choice((b - rng.randint(1, 3),
                                      b + 1 + rng.randint(1, 3)))).pow(2)
        else:
            q = _poly(rng.randint(-2, 2), rng.randint(-3, 3))
            den = (q * q + ONE).pow(rng.choice((1, 2)))
        out.append(RationalFunction((_linear(b) * _linear(b + 1)).scale(t), den)
                   + RationalFunction.constant(rng.randint(1, 4)))
    return out


def test_shift_search_equals_the_linear_scan_on_varied_functions(monkeypatch):
    # the draws reach every branch of the witness rule: a denominator with
    # real roots, and one without, square-free or not, under a refuting
    # numerator square-free or not; the rule runs only on draws with no
    # integer sample below k, such as those negative only between b and
    # b + 1
    branches = set()
    witness = formallyreal._shift_witness

    def recorded_witness(m, yun, d, d_yun):
        square_free = [len(formallyreal._int_gcd(c, _int_derivative(c))) == 1
                       for c in (m, d)]
        real_roots = sturm_root_count(RationalPolynomial(d)) > 0
        branches.add((real_roots, *square_free))
        return witness(m, yun, d, d_yun)

    monkeypatch.setattr(formallyreal, "_shift_witness", recorded_witness)
    inputs = _shift_search_inputs(seeded(89))
    assert len(inputs) >= 200
    for f in inputs:
        assert theorem_skew_hypothesis(f) == _linear_scan_shift(f)
    assert {(False, m, d) for m in (True, False) for d in (True, False)} <= branches
    assert any(real_roots for real_roots, *_ in branches)


def _sos_shift_shapes(rng):
    """``(f, s + 1)`` for ``f = p^2/(q^2+1) + s`` as the sos-shift benchmark
    recipe draws them: ``p = (a x - b) r`` with ``r`` of degree ``rdeg`` and
    ``q`` of degree ``qdeg`` per shape ``(rdeg, qdeg, s)``, then ``(x -
    b)^2 + s`` for the large shifts.  ``f - s`` is nonnegative and vanishes
    at ``b/a``, so ``s + 1`` is the least refuted shift."""
    out = []
    for rdeg, qdeg, shift in ((2, 1, 3), (3, 2, 2), (4, 3, 1), (5, 2, 2),
                              (2, 3, 4), (3, 1, 3)):
        a, b = rng.randint(1, 3), rng.randint(-4, 4)
        r, q = ([rng.randint(-3, 3) for _ in range(n)] + [rng.choice((-2, -1, 1, 2))]
                for n in (rdeg, qdeg))
        p, q = RationalPolynomial([-b, a]) * RationalPolynomial(r), RationalPolynomial(q)
        out.append((RationalFunction(p * p, q * q + ONE)
                    + RationalFunction.constant(shift), shift + 1))
    for shift in (120, 160, 200, 240):
        p = _linear(rng.randint(-5, 5))
        out.append((RationalFunction(p * p) + RationalFunction.constant(shift),
                    shift + 1))
    return out


def test_planted_shifts_take_one_probe_and_rarely_isolate_a_root(monkeypatch):
    # work counters on 100 draws of the sos-shift recipe: a sample near the
    # planted root refutes s + 1, so the search probes about once per
    # theorem, and a sample below k is the witness on all but a few; a
    # search that gallops from 1 makes 8.3 probes per theorem there and
    # isolates roots for every witness
    probes, witnesses = [], []
    decide, witness = formallyreal._shift_probe, formallyreal._shift_witness

    def counted_decision(*args):
        probes.append(args[2])
        return decide(*args)

    def counted_witness(*args):
        witnesses.append(args[0])
        return witness(*args)

    monkeypatch.setattr(formallyreal, "_shift_probe", counted_decision)
    monkeypatch.setattr(formallyreal, "_shift_witness", counted_witness)
    rng = seeded(101)
    drawn = [item for _ in range(10) for item in _sos_shift_shapes(rng)]
    assert len(drawn) == 100
    for f, k in drawn:
        assert theorem_skew_hypothesis(f)["k"] == k
    assert len(probes) <= 150
    assert len(witnesses) <= 10


def _bounded_evaluations(monkeypatch, limit):
    """Fail once more than ``limit`` homogeneous evaluations run between
    resets of the returned counter, so that a witness search that does not
    stop (say, at a rational root it cannot exclude) fails the test."""
    calls = [0]
    value = formallyreal._homogeneous_value

    def counted(*args):
        calls[0] += 1
        assert calls[0] <= limit, "the witness search does not stop"
        return value(*args)

    monkeypatch.setattr(formallyreal, "_homogeneous_value", counted)
    return calls


def _planted_rational_roots(rng):
    """A product of 2-3 linear factors with roots ``p/q``, ``q <= 7``, some
    of them squared, times a rootless quadratic or a constant."""
    f = RationalPolynomial.constant(rng.choice((1, -1, 2, Fraction(-1, 3))))
    for _ in range(rng.randint(2, 3)):
        root = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        f = f * _linear(root).pow(rng.choice((1, 1, 2)))
    if rng.random() < 0.5:
        f = f * _poly(1, rng.randint(-1, 1), rng.randint(1, 3))
    return RationalFunction(f)


def test_witnesses_are_the_least_negative_points_of_the_order(monkeypatch):
    # the witness of a refuted membership and of the least refuted shift is
    # the least rational, in (denominator, |x|, + before -) order, where f
    # is defined and f - k is negative: checked against a walk of that
    # order on sos-shift shapes, random products and quotients, and planted
    # rational roots, which the search must make exact to pass them
    calls = _bounded_evaluations(monkeypatch, 5000)
    assert is_sos_membership(
        parse_rational_function("(x-1/3)*(x-1/2)"))["witness"] == Fraction(2, 5)
    rng = seeded(103)
    inputs = [f for _ in range(4) for f, _ in _sos_shift_shapes(rng)]
    while len(inputs) < 100:  # random products and quotients
        num, den = _random_known_poly(rng)[0], _random_known_poly(rng)[0]
        if not num.is_zero() and num.degree + den.degree <= 8:
            inputs.append(RationalFunction(num, den))
    inputs += [_planted_rational_roots(rng) for _ in range(100)]
    # bisection lands exactly on the root -5/4 of 4x + 5
    inputs.append(parse_rational_function("(x+12)*(4*x+5)"))
    refuted = 0
    for f in inputs:
        calls[0] = 0
        res = is_sos_membership(f)
        if not res["member"]:
            refuted += 1
            assert _is_least_negative_point(f, 0, res["witness"]), f.text()
        shifted = theorem_skew_hypothesis(f)
        assert _is_least_negative_point(f, shifted["k"], shifted["witness"]), f.text()
    assert refuted >= 100


def _power_products(rng):
    """A product of powers ``(a*x - b)^k``, ``a`` in 1..5, and rootless
    quadratics, degree at most 16; then, or not, minus a shift, and
    sometimes over a rootless quadratic."""
    p, degree = RationalPolynomial.constant(rng.choice((1, 2, Fraction(1, 3), -1))), 0
    while rng.random() < 0.85:
        if rng.random() < 0.7:
            k = rng.choice((1, 2, 2, 3, 4, 4))
            factor = _poly(rng.randint(1, 5), -rng.randint(-12, 12)).pow(k)
        else:
            b = rng.randint(-3, 3)
            k, factor = 2, _poly(1, b, b * b // 4 + rng.randint(1, 4))
        if degree + k > 16:
            break
        p, degree = p * factor, degree + k
    f = RationalFunction(p)
    shift = rng.choice((0, 0, 1, 3, Fraction(1, 4), Fraction(1, 9), Fraction(2, 7)))
    f = f - RationalFunction.constant(shift)
    if rng.random() < 0.3:
        f = f / RationalFunction(_poly(1, 0, rng.randint(1, 5)))
    return f


def test_witnesses_equal_those_isolated_on_the_cauchy_grid(monkeypatch):
    # isolation starts from the chain's power-of-two bound; bisecting from
    # the Cauchy bound instead, as it once did, puts the brackets elsewhere
    # but gives the same verdicts, shifts, witnesses and values
    rng = seeded(127)
    inputs = [_power_products(rng) for _ in range(500)]

    def answers():
        return ([is_sos_membership(f) for f in inputs],
                [theorem_skew_hypothesis(f) for f in inputs])

    own = answers()
    isolated = []

    def on_the_cauchy_grid(chain):
        isolated.append(chain)
        return oracle_cauchy_isolation(chain)

    monkeypatch.setattr(formallyreal, "_isolate", on_the_cauchy_grid)
    memberships, shifts = own
    assert answers() == own
    assert 50 <= sum(res["member"] for res in memberships) <= 450
    assert sum(res["witness"].denominator > 1 for res in memberships + shifts
               if res["witness"] is not None) >= 40
    assert len(isolated) >= 80


def test_the_sample_witness_is_the_one_root_isolation_finds(monkeypatch):
    # wherever a sample below k answers, the root-isolating path at the
    # same k finds the same point: integers come first in the order, and
    # the samples walk them in it, skipping only poles
    built = []
    witness = formallyreal._shift_witness

    def recorded(*args):
        built.append(args)
        return witness(*args)

    monkeypatch.setattr(formallyreal, "_shift_witness", recorded)
    rng = seeded(109)
    inputs = (_shift_search_inputs(seeded(107))
              + [f for _ in range(5) for f, _ in _sos_shift_shapes(rng)])
    calls = _bounded_evaluations(monkeypatch, 5000)
    answered = 0
    for f in inputs:
        del built[:]
        calls[0] = 0
        res = theorem_skew_hypothesis(f)
        if not built:
            answered += 1
            assert res["witness"].denominator == 1
            assert _shift_witness_at(f, res["k"]) == res["witness"]
    assert answered >= 200


def test_the_final_check_in_integers_equals_the_fraction_value():
    # the value at the witness is formed in integers, by homogeneous Horner
    # on the integer numerator and denominator, and equals f(w) - k in
    # Fraction arithmetic: on the expressions of the sos snapshots, those
    # that categorize evaluates, and drawn sos-shift shapes
    texts = ["x", "(x^4+3)/(x^2+1)", "x^2", "(x^2+1)/(x^2+2)", "x^2+2",
             "0", "1", "2", "7"]
    inputs = [parse_rational_function(t) for t in texts] + _shift_search_inputs(seeded(97))
    for f in inputs:
        res = theorem_skew_hypothesis(f)
        assert res["witness_value"] == f.evaluate(res["witness"]) - res["k"] < 0
        assert type(res["witness_value"]) is Fraction


def test_a_split_that_is_not_fs_trips_the_final_check(monkeypatch):
    # the denominator's leading coefficient doubled: the search runs on
    # another function, and the final check catches it on f's own leads
    f = parse_rational_function("(x^4+3)/(x^2+1)")
    split = formallyreal.as_int_vector
    monkeypatch.setattr(formallyreal, "as_int_vector",
                        lambda p: split(p)[:-1] + (2 * split(p)[-1],))
    with pytest.raises(InternalCheckError, match="not f's"):
        theorem_skew_hypothesis(f)


# ---------------------------------------------------------------------------
# instance categorization


def test_categorize_rationals():
    res = categorize("Q")
    assert res["category"] == 3
    ks = [(e["element"], e["k"]) for e in res["evidence"]]
    assert ks == [("0", 1), ("1", 2), ("2", 3), ("7", 8)]


def test_categorize_rational_functions():
    res = categorize("Q(x)")
    assert res["category"] == 3
    ks = [(e["element"], e["k"]) for e in res["evidence"]]
    assert ks == [("x^2", 1), ("(x^2+1)/(x^2+2)", 1),
                  ("(x^4+3)/(x^2+1)", 3), ("x^2+2", 3)]


def test_categorize_rejects_unknown_instance():
    with pytest.raises(InputError):
        categorize("octonions")
