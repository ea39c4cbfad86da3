"""Sums-of-squares membership in the rational function field, decided exactly.

A rational function over the rationals is a sum of squares of rational
functions exactly when it is nonnegative at every real point where it is
defined (the pointwise direction is elementary; the converse is the
classical theorem of Pourchet, used here as an external fact and flagged
in every report).  Pointwise nonnegativity of ``num/den`` reduces to
positive semidefiniteness of the polynomial ``num * den``, which is
decided by square-free decomposition plus Sturm root counting: a
polynomial is positive semidefinite if and only if its leading
coefficient is positive and its odd-multiplicity part has no real root.
On top of the verdict sit the downward-shift search (least natural ``k``
making ``f - k`` fail membership) and the field categorization report.

Arithmetic.  Rational polynomials store ``Fraction`` coefficients, but the
membership path computes in integers: ``num * den`` is multiplied as
primitive integer polynomials; gcds, exact quotients and Yun's
square-free decomposition run over Z[x] with the primitive
pseudo-remainder sequence; Sturm chains and witness candidates are
signed by homogeneous integer Horner.  One remainder sequence serves
each polynomial: the Sturm chain of a primitive ``p`` ends in ``gcd(p,
p')``, so Yun's decomposition reads its first gcd off that chain and
hands the chain on, and a square-free ``p`` is counted and searched with
it.  Root isolation and refinement keep their endpoints as integer
numerators over one denominator, a power-of-two multiple of the start's,
and sign them unreduced, so bisection forms no ``Fraction``;
refinement signs the square-free seed alone, not the chain.  ``f - k``
needs no gcd at all: for canonical ``n/d``, ``gcd(n - k*d, d) = gcd(n,
d) = 1``, so the shift search decides each probe on the integer
numerator ``n - k*d`` alone, and builds the witness at the answer from
the refuting probe.  The self-checks run on every call, in exact
arithmetic: each integer quotient must divide exactly, the
decomposition must reconstruct its input (compared in integers), and a
witness must evaluate negative: on ``f`` itself in ``Fraction``
arithmetic, or, for a shift's witness, on the integer numerator and
denominator the search used, by homogeneous Horner with one
``Fraction`` formed at the end, after their leading coefficients are
checked against ``f``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import floor, lcm
from typing import Optional, Sequence, Union

from .exactmath import InputError, InternalCheckError, primitive

Rat = Union[int, Fraction]


# ---------------------------------------------------------------------------
# dense univariate polynomials over the rationals


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense polynomial with exact rational coefficients, low degree first."""

    coefficients: tuple

    def __init__(self, coefficients: Sequence[Rat]):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading(self) -> Fraction:
        if self.is_zero():
            raise InputError("the zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    @classmethod
    def constant(cls, c: Rat) -> "RationalPolynomial":
        return cls([Fraction(c)])

    @classmethod
    def variable(cls) -> "RationalPolynomial":
        return cls([0, 1])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return RationalPolynomial([a + b for a, b in zip_longest(
            self.coefficients, other.coefficients, fillvalue=0)])

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial([-c for c in self.coefficients])

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        if self.is_zero() or other.is_zero():
            return RationalPolynomial([])
        a, b = self.coefficients, other.coefficients
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RationalPolynomial(out)

    def scale(self, c: Rat) -> "RationalPolynomial":
        return RationalPolynomial([Fraction(c) * x for x in self.coefficients])

    def exact_div(self, other: "RationalPolynomial") -> "RationalPolynomial":
        """The quotient by a divisor, divided exactly in integers and scaled
        back (:class:`InternalCheckError` when ``other`` does not divide)."""
        if other.is_zero():
            raise InputError("polynomial division by zero")
        a, b = _integer_multiple(self), _integer_multiple(other)
        q = _exact_quotient(a, b)
        if not q:
            return RationalPolynomial([])
        ratio = self.leading * b[-1] / (other.leading * a[-1])
        return RationalPolynomial([ratio * c for c in q])

    def evaluate(self, x: Rat) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def pow(self, n: int) -> "RationalPolynomial":
        """``self ** n``: the power of a primitive integer multiple, by
        squaring in integers, times ``(leading / ints[-1]) ** n``."""
        if self.is_zero():
            return RationalPolynomial([1] if n == 0 else [])
        ints = _integer_multiple(self)
        ratio = (self.leading / ints[-1]) ** n
        out, base = (1,), ints
        while n:
            if n & 1:
                out = _int_mul(out, base)
            n >>= 1
            if n:
                base = _int_mul(base, base)
        return RationalPolynomial([ratio * c for c in out])

    # -- presentation -------------------------------------------------------

    def text(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                body = xpart if mag == 1 else f"{mag}*{xpart}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# integer coefficient tuples: gcds and square-free decomposition over Z[x]
#
# A polynomial over the rationals is scaled by a positive factor to a
# primitive integer tuple, low degree first.  Gcds, exact quotients and
# Yun's decomposition then run without normalizing a single ``Fraction``;
# results convert back to monic rational polynomials at the end.


def _integer_multiple(p: RationalPolynomial) -> tuple:
    """Primitive integer coefficients that are a positive multiple of ``p``."""
    den = lcm(*(c.denominator for c in p.coefficients))
    return primitive([c.numerator * (den // c.denominator)
                      for c in p.coefficients])


def _monic(ints: tuple) -> RationalPolynomial:
    """The monic rational polynomial proportional to nonzero ``ints``."""
    lead = ints[-1]
    return RationalPolynomial([Fraction(c, lead) for c in ints])


def _positive_lead(ints: tuple) -> tuple:
    """``ints`` or its negative, whichever has a positive leading entry."""
    return ints if ints[-1] > 0 else tuple(-c for c in ints)


def _int_sub(a: tuple, b: tuple) -> tuple:
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _int_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def _int_derivative(a: tuple) -> tuple:
    return tuple(i * c for i, c in enumerate(a))[1:]


def _exact_quotient(a: tuple, b: tuple) -> tuple:
    """``a / b`` over the integers for primitive nonzero ``b`` dividing ``a``.

    By Gauss's lemma a primitive divisor of an integer polynomial leaves an
    integer quotient, so every step divides exactly; a step that does not,
    or a nonzero remainder, raises :class:`InternalCheckError`.
    """
    lead, db = b[-1], len(b) - 1
    rem = list(a)
    q = [0] * max(0, len(rem) - db)
    while len(rem) - 1 >= db:
        top = rem.pop()
        if top:
            factor, left = divmod(top, lead)
            if left:
                raise InternalCheckError("division expected to be exact was not")
            shift = len(rem) - db
            q[shift] = factor
            for i, c in enumerate(b[:-1]):
                rem[shift + i] -= factor * c
    if any(rem):
        raise InternalCheckError("division expected to be exact was not")
    return tuple(q)


def _negated_remainder(a: tuple, b: tuple) -> tuple:
    """A positive multiple of ``-(a mod b)`` over the integers, primitive.

    Pseudo-division by ``b`` made to lead positively: each elimination
    step multiplies the running remainder by that positive leading
    coefficient, so the integer remainder is a positive multiple of the
    rational one.  Returns ``()`` when ``b`` divides ``a``.
    """
    b = _positive_lead(b)
    lead, db = b[-1], len(b) - 1
    rem = list(a)
    while len(rem) - 1 >= db:
        top = rem.pop()
        shift = len(rem) - db
        rem = [lead * c for c in rem]
        for i, c in enumerate(b[:-1]):
            rem[shift + i] -= top * c
        while rem and rem[-1] == 0:
            rem.pop()
    return primitive([-c for c in rem]) if rem else ()


def _int_gcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd of integer polynomials (sign unspecified), by the
    primitive pseudo-remainder sequence (Brown, J. ACM 1971); ``()`` when
    both are zero."""
    while b:
        a, b = b, _negated_remainder(a, b)
    return primitive(a)


def poly_gcd(a: RationalPolynomial, b: RationalPolynomial) -> RationalPolynomial:
    """Monic greatest common divisor (zero when both are zero), computed as
    the gcd of the primitive integer multiples (:func:`_int_gcd`)."""
    g = _int_gcd(_integer_multiple(a), _integer_multiple(b))
    return _monic(g) if g else RationalPolynomial([])


def _yun(ints: tuple) -> tuple:
    """Yun's decomposition (SYMSAC 1976) of primitive nonzero ``ints``:
    ``([(factor, multiplicity), ...], chain)``, factors square-free,
    pairwise coprime, nonconstant, primitive and leading positively.

    The first gcd, ``gcd(p, p')``, is the last entry of the Sturm chain of
    ``p`` (``ints`` made to lead positively), up to sign: both run the
    same primitive pseudo-remainder sequence.  So it is read off that
    chain, which is returned as well, for a caller that needs the chain
    of ``p`` itself.  When that gcd is a unit, ``p`` is square-free and
    its own decomposition.  Gcds are primitive, so each quotient is an
    exact integer division, checked; so is the product of the factors'
    powers against ``ints``."""
    p = _positive_lead(ints)
    chain = _sturm_entries(p)
    a = chain[-1]
    if len(a) == 1:
        out = [(p, 1)] if len(p) > 1 else []
    else:
        out = []
        b = _exact_quotient(p, a)
        c = _exact_quotient(_int_derivative(p), a)
        d = _int_sub(c, _int_derivative(b))
        i = 1
        while len(b) > 1:
            g = _int_gcd(b, d)
            if len(g) > 1:
                out.append((_positive_lead(g), i))
            b = _exact_quotient(b, g)
            c = _exact_quotient(d, g)
            d = _int_sub(c, _int_derivative(b))
            i += 1
    if _int_product(g for g, m in out for _ in range(m)) != p:
        raise InternalCheckError("square-free decomposition failed to reconstruct")
    return out, chain


def _int_product(polys) -> tuple:
    out = (1,)
    for g in polys:
        out = _int_mul(out, g)
    return out


def squarefree_decomposition(p: RationalPolynomial):
    """Yun decomposition ``p = leading * prod factor_i ^ i``: ``(leading,
    [(factor, multiplicity), ...])`` with monic factors (:func:`_yun`)."""
    if p.is_zero():
        raise InputError("the zero polynomial has no square-free decomposition")
    return p.leading, [(_monic(g), m) for g, m in _yun(_integer_multiple(p))[0]]


# ---------------------------------------------------------------------------
# Sturm chains and root counting


def _powers(d: int, m: int) -> list:
    """``[1, d, d^2, ..., d^m]``."""
    out = [1]
    for _ in range(m):
        out.append(out[-1] * d)
    return out


def _homogeneous_value(c: tuple, n: int, powers: list) -> int:
    """``d^m * c(n/d)`` for integer ``c`` of degree ``m``, with ``d^j`` at
    ``powers[j]``: homogeneous Horner, in plain integers.  For ``d > 0`` it
    has the sign of ``c(n/d)``."""
    m = len(c) - 1
    acc = c[m]
    for i in range(m - 1, -1, -1):
        acc = acc * n + c[i] * powers[m - i]
    return acc


def _sturm_entries(seed: tuple) -> list:
    """The integer Sturm chain of primitive, positively leading ``seed``:
    it, its primitive derivative, then primitive pseudo-remainders.  The
    last entry is ``gcd(seed, seed')`` up to sign, so a constant when
    ``seed`` is square-free; only then is the chain a Sturm chain."""
    chain = [seed]
    if len(seed) > 1:
        chain.append(primitive(_int_derivative(seed)))
        while len(chain[-1]) > 1:
            rem = _negated_remainder(chain[-2], chain[-1])
            if not rem:
                break
            chain.append(rem)
    return chain


def _infinity_variations(chain, positive: bool) -> int:
    """Sign variations of ``chain`` at ``+infinity`` (``positive``) or at
    ``-infinity``, where each entry has the sign of its leading term."""
    signs = [(c[-1] > 0) == (positive or len(c) % 2 == 1) for c in chain]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _root_count(left: int, right: int) -> int:
    """Distinct roots between points with ``left`` and ``right`` variations."""
    if left < right:
        raise InternalCheckError("negative root count from the variation chain")
    return left - right


def _fujiwara_tail(c: tuple) -> int:
    """``2^(e+2)``, strictly above every root's absolute value: with ``2^e
    >= |c_(n-k)/c_n|^(1/k)`` for all ``k``, Fujiwara's bound is ``2^(e+1)``."""
    n, top = len(c) - 1, abs(c[-1]).bit_length()
    e = max([0] + [-((top - 1 - abs(c[n - k]).bit_length()) // k)
                   for k in range(1, n + 1) if c[n - k]])
    return 2 ** (e + 2)


def _chain_for(seed: tuple, chain: list) -> list:
    """``chain`` when it is the chain of ``seed``, else the chain of ``seed``."""
    return chain if chain[0] == seed else _sturm_entries(seed)


def _distinct_root_count(seed: tuple, chain: list) -> int:
    """Distinct real roots of square-free ``seed``, read from its chain's
    signs at the infinities, with no point evaluated; ``chain`` serves
    when it is the chain of ``seed`` (:func:`_chain_for`)."""
    chain = _chain_for(seed, chain)
    return _root_count(_infinity_variations(chain, False),
                       _infinity_variations(chain, True))


def _odd_root_count(factors, chain) -> int:
    """Distinct real roots of odd multiplicity of a product of Yun factors:
    those of the odd-multiplicity factors' product.  ``chain`` is the one
    :func:`_yun` returned; it serves when the product was square-free, as
    the odd part is then the product itself."""
    return _distinct_root_count(_int_product(g for g, m in factors if m % 2), chain)


class SturmChain:
    """Sturm chain of the square-free part of a polynomial, in integers.

    The chain starts with the square-free part and its derivative; each
    further entry is minus the remainder of the two before it (computed as
    a primitive pseudo-remainder sequence, after Collins).  Every entry is
    stored as integer coefficients, low degree first, scaled from the
    rational entry by a positive factor, so it has the same sign at every
    point.  The sign at ``x = n/d`` with ``d > 0`` of an entry
    ``c_0 + ... + c_m x^m`` is the sign of ``sum c_i n^i d^(m-i)``, which
    is ``d^m`` times its value; homogeneous Horner evaluates that sum in
    plain integers, so no ``Fraction`` is normalized while counting.

    Sign variations are counted with zero entries dropped, which makes the
    variation count right-continuous; the count of distinct real roots in
    the half-open interval ``(lo, hi]`` is then the difference of the
    variation counts at the endpoints, with root endpoints handled by the
    same convention; the counts at the infinities are kept, as is ``tail``
    (:func:`_fujiwara_tail`).  The chain :func:`_yun` builds for ``p`` is
    kept when ``p`` proves square-free, so a square-free ``p`` costs one
    remainder sequence.
    """

    def __init__(self, p: RationalPolynomial):
        if p.is_zero():
            raise InputError("cannot build a root-counting chain for zero")
        factors, chain = _yun(_integer_multiple(p))
        self._adopt(_chain_for(_int_product(g for g, _ in factors), chain))

    @classmethod
    def _of(cls, chain: list) -> "SturmChain":
        """The chain whose integer entries are ``chain`` already."""
        out = cls.__new__(cls)
        out._adopt(chain)
        return out

    def _adopt(self, chain: list):
        self.chain = chain
        self.minus_infinity = _infinity_variations(chain, False)
        self.plus_infinity = _infinity_variations(chain, True)
        self.tail = _fujiwara_tail(chain[0])

    def _variations(self, n: int, d: int) -> int:
        """Sign variations at ``n/d`` for integers ``n`` and ``d > 0``, the
        fraction not necessarily reduced."""
        powers = _powers(d, len(self.chain[0]) - 1)
        signs = []
        for c in self.chain:
            acc = _homogeneous_value(c, n, powers)
            if acc:
                signs.append(acc > 0)
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def _grid_variations(self, n: int, d: int) -> int:
        """Sign variations at ``n/d`` (integers, ``d > 0``), evaluated only
        inside ``(-tail, tail)``, compared in integers.  The count changes
        only at roots of the seed, so beyond every root it is the count at
        the infinity on that side."""
        if n <= -self.tail * d:
            return self.minus_infinity
        if n >= self.tail * d:
            return self.plus_infinity
        return self._variations(n, d)

    def variations_at(self, x: Rat) -> int:
        """Sign variations at finite ``x`` (:meth:`_grid_variations`)."""
        x = Fraction(x)
        return self._grid_variations(x.numerator, x.denominator)

    def count(self, lo: Optional[Rat] = None, hi: Optional[Rat] = None) -> int:
        """Distinct real roots in ``(lo, hi]``; ``None`` means infinite."""
        return _root_count(
            self.minus_infinity if lo is None else self.variations_at(lo),
            self.plus_infinity if hi is None else self.variations_at(hi))


def _chain_of(p) -> SturmChain:
    """``p`` itself when it is a chain already, else the chain of ``p``."""
    return p if isinstance(p, SturmChain) else SturmChain(p)


def sturm_root_count(p, lo: Optional[Rat] = None,
                     hi: Optional[Rat] = None) -> int:
    """Distinct real roots of ``p`` in ``(lo, hi]``; ``None`` means infinite.

    ``p`` is a polynomial or a :class:`SturmChain` built for one.
    """
    return _chain_of(p).count(lo, hi)


def cauchy_root_bound(p) -> Fraction:
    """All real roots of ``p`` (or of integers ``p``) lie inside ``(-B, B)``."""
    c = p if isinstance(p, tuple) else _integer_multiple(p)
    if len(c) <= 1:
        return Fraction(1)
    return 1 + Fraction(max(abs(x) for x in c[:-1]), abs(c[-1]))


def isolate_real_roots(p) -> list:
    """Disjoint rational intervals ``(lo, hi]``, one distinct real root each.

    ``p`` is a polynomial or a :class:`SturmChain` built for one.  The
    bisection of ``[-B, B]`` (``B`` the Cauchy bound) keeps pending
    intervals on a stack, left half on top, so they come out left to right
    however deep close roots make it go.  Each carries its endpoints'
    counts, so a step evaluates the chain at its midpoint only, and not
    outside ``(-tail, tail)``, where the counts are known.  Endpoints stay
    on an integer grid: numerators over ``den(B) * 2^t`` at depth ``t``,
    so a midpoint is one integer sum, and no ``Fraction`` is formed before
    the intervals are returned.
    """
    chain = _chain_of(p)
    return _isolate(chain, cauchy_root_bound(chain.chain[0]))


def _isolate(chain: SturmChain, bound: Fraction) -> list:
    """:func:`isolate_real_roots` from ``[-bound, bound]``, ``bound`` above
    every root of the chain's seed.  The grid, and so the intervals that
    come out, depends on ``bound``."""
    if len(chain.chain[0]) <= 1:
        return []
    b = bound.numerator
    out = []
    stack = [(-b, b, bound.denominator, chain.minus_infinity, chain.plus_infinity)]
    while stack:
        lo, hi, d, at_lo, at_hi = stack.pop()
        count = _root_count(at_lo, at_hi)
        if count == 1:
            out.append((Fraction(lo, d), Fraction(hi, d)))
        elif count > 1:
            mid, lo, hi, d = lo + hi, 2 * lo, 2 * hi, 2 * d
            at_mid = chain._grid_variations(mid, d)
            stack.append((mid, hi, d, at_mid, at_hi))
            stack.append((lo, mid, d, at_lo, at_mid))
    return out


def refine_interval(p, interval, width: Fraction):
    """Shrink a one-root interval ``(lo, hi]`` below the requested width.

    ``p`` is a polynomial or a :class:`SturmChain` built for one.  The root
    is a simple root of the chain's square-free seed, so the seed changes
    sign there: a halving keeps ``(lo, mid]`` when the seed vanishes at
    ``mid`` or has there the other sign than just right of ``lo``, and so
    signs the seed alone at its midpoint, not the whole chain.  Just right
    of ``lo`` the seed has its sign at ``lo``, or its derivative's when
    ``lo`` is a root itself.  As in :func:`isolate_real_roots`, the
    endpoints are integer numerators over one denominator, ``lcm(den(lo),
    den(hi)) * 2^t`` after ``t`` halvings.
    """
    lo, hi, width = Fraction(interval[0]), Fraction(interval[1]), Fraction(width)
    seed, derivative = _chain_of(p).chain[:2]
    d = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    powers = _powers(d, len(seed) - 1)
    right_of_a = (_homogeneous_value(seed, a, powers)
                  or _homogeneous_value(derivative, a, powers))
    while (b - a) * width.denominator > width.numerator * d:
        mid, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        at_mid = _homogeneous_value(seed, mid, _powers(d, len(seed) - 1))
        if at_mid == 0 or (at_mid > 0) != (right_of_a > 0):
            b = mid
        else:
            a, right_of_a = mid, at_mid
    return Fraction(a, d), Fraction(b, d)


# ---------------------------------------------------------------------------
# simplest rationals inside an interval


def simplest_between(lo: Rat, hi: Rat) -> Fraction:
    """Minimal-denominator rational in the open interval ``(lo, hi)``.

    Denominator ties resolve to the smallest absolute value, then to the
    positive sign, which keeps witness points reproducible.
    """
    a, b = Fraction(lo), Fraction(hi)
    if not a < b:
        raise InputError("interval is empty")
    if a < 0 < b:
        return Fraction(0)
    if b <= 0:
        return -_simplest_nonneg(-b, -a)
    return _simplest_nonneg(a, b)


def _simplest_nonneg(a: Fraction, b: Fraction) -> Fraction:
    """Minimal-denominator rational in open ``(a, b)`` with ``0 <= a < b``."""
    ia = a.numerator // a.denominator
    if ia + 1 < b:
        return Fraction(ia + 1)
    if a == ia:
        # (integer, b) with b - ia <= 1: the answer is ia + 1/n
        n = int(1 / (b - ia)) + 1
        return ia + Fraction(1, n)
    return ia + 1 / _simplest_nonneg(1 / (b - ia), 1 / (a - ia))


# ---------------------------------------------------------------------------
# rational functions


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of rational polynomials in canonical form.

    Canonical means: numerator and denominator coprime, denominator monic.
    The zero function is ``0/1``.
    """

    numerator: RationalPolynomial
    denominator: RationalPolynomial

    def __init__(self, numerator: RationalPolynomial,
                 denominator: Optional[RationalPolynomial] = None):
        if denominator is None:
            denominator = RationalPolynomial([1])
        if denominator.is_zero():
            raise InputError("denominator must be nonzero")
        if numerator.is_zero():
            numerator = RationalPolynomial([])
            denominator = RationalPolynomial([1])
        else:
            # a constant denominator is coprime to everything, and a monic
            # one needs no scaling
            if denominator.degree > 0:
                g = poly_gcd(numerator, denominator)
                if g.degree > 0:
                    numerator = numerator.exact_div(g)
                    denominator = denominator.exact_div(g)
            lc = denominator.leading
            if lc != 1:
                numerator = numerator.scale(1 / lc)
                denominator = denominator.scale(1 / lc)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    @classmethod
    def constant(cls, c: Rat) -> "RationalFunction":
        return cls(RationalPolynomial.constant(c))

    @classmethod
    def variable(cls) -> "RationalFunction":
        return cls(RationalPolynomial.variable())

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.numerator, self.denominator)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.numerator * other.numerator,
                                self.denominator * other.denominator)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise InputError("division by the zero function")
        return RationalFunction(self.numerator * other.denominator,
                                self.denominator * other.numerator)

    def evaluate(self, x: Rat) -> Fraction:
        d = self.denominator.evaluate(x)
        if d == 0:
            raise InputError(f"function undefined at {x}")
        return self.numerator.evaluate(x) / d

    def text(self) -> str:
        if self.denominator.degree == 0 and self.denominator.coefficients == (Fraction(1),):
            return self.numerator.text()
        return f"({self.numerator.text()})/({self.denominator.text()})"


# ---------------------------------------------------------------------------
# parsing


# Caps on what the parser forms, so that a short expression cannot ask for
# unbounded work: no exponent above MAX_DEGREE, no numerator or denominator
# of degree above MAX_DEGREE (checked before each product, quotient, sum or
# power is formed), and no coefficient whose numerator or denominator has
# more than MAX_BITS bits (an integer literal has at most MAX_DIGITS digits,
# and 10**MAX_DIGITS < 2**MAX_BITS).
MAX_DEGREE = 1000
MAX_BITS = 4096
MAX_DIGITS = 1233


def _coefficient_bits(f: RationalFunction) -> int:
    """The most bits of a numerator or denominator of a coefficient of f."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for p in (f.numerator, f.denominator) for c in p.coefficients),
               default=0)


class _Parser:
    """Recursive-descent parser for rational-function expressions.

    Grammar: sums/differences of terms; terms multiply/divide factors;
    factors are signed atoms with optional integer ``^`` powers; atoms are
    nonnegative integers, ``x``, or parenthesized expressions.  Input past
    ``MAX_DEGREE`` or ``MAX_BITS`` is an :class:`InputError`, raised before
    the offending degree is formed; a power is also refused ahead when
    ``n * (bits + log2(terms))`` of its base exceeds ``MAX_BITS``, a bound
    on the size of its coefficients.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, expected: str):
        raise InputError(
            f"parse error at position {self.pos}: expected {expected}")

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"'{ch}'")
        self.pos += 1

    def parse(self) -> RationalFunction:
        out = self.expr()
        if self.peek() != "":
            self.error("end of input")
        return out

    @staticmethod
    def _fits(num_degree: int, den_degree: int) -> None:
        """Refuse a numerator or denominator of degree above the cap."""
        d = max(num_degree, den_degree)
        if d > MAX_DEGREE:
            raise InputError(
                f"expression reaches degree {d}; the cap is {MAX_DEGREE}")

    @staticmethod
    def _small(f: RationalFunction) -> RationalFunction:
        """f, unless a coefficient is too large."""
        if _coefficient_bits(f) > MAX_BITS:
            raise InputError(
                f"expression has a coefficient of more than {MAX_BITS} bits")
        return f

    def expr(self) -> RationalFunction:
        out = self.term()
        while self.peek() in ("+", "-"):
            opc = self.peek()
            self.pos += 1
            rhs = self.term()
            an, ad = out.numerator.degree, out.denominator.degree
            bn, bd = rhs.numerator.degree, rhs.denominator.degree
            self._fits(max(an + bd, bn + ad), ad + bd)
            out = self._small(out + rhs if opc == "+" else out - rhs)
        return out

    def term(self) -> RationalFunction:
        out = self.factor()
        while self.peek() in ("*", "/"):
            opc = self.peek()
            self.pos += 1
            rhs = self.factor()
            an, ad = out.numerator.degree, out.denominator.degree
            bn, bd = rhs.numerator.degree, rhs.denominator.degree
            if opc == "*":
                self._fits(an + bn, ad + bd)
                out = out * rhs
            else:
                if rhs.is_zero():
                    self.error("a nonzero divisor")
                self._fits(an + bd, ad + bn)
                out = out / rhs
            out = self._small(out)
        return out

    def factor(self) -> RationalFunction:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -sign
            self.pos += 1
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            n = self.integer()
            if n > MAX_DEGREE:
                raise InputError(
                    f"exponent {n} is above the cap of {MAX_DEGREE}")
            num, den = base.numerator, base.denominator
            self._fits(n * num.degree, n * den.degree)
            terms = len(num.coefficients) + len(den.coefficients)
            if n * (_coefficient_bits(base) + terms.bit_length()) > MAX_BITS:
                raise InputError(
                    f"power {n} could give a coefficient of more than "
                    f"{MAX_BITS} bits")
            base = self._small(RationalFunction(num.pow(n), den.pow(n)))
        if sign < 0:
            base = -base
        return base

    def atom(self) -> RationalFunction:
        c = self.peek()
        if c == "(":
            self.take("(")
            out = self.expr()
            self.take(")")
            return out
        if c == "x":
            self.pos += 1
            return RationalFunction.variable()
        if c.isdigit():
            return RationalFunction.constant(self.integer())
        self.error("a number, 'x', or '('")

    def integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("digits")
        if self.pos - start > MAX_DIGITS:
            self.error(f"an integer of at most {MAX_DIGITS} digits")
        return int(self.text[start:self.pos])


def parse_rational_function(text: str) -> RationalFunction:
    """Parse expressions like ``(x^4+3)/(x^2+1)`` into canonical form.

    Input past ``MAX_DEGREE`` or ``MAX_BITS`` is an :class:`InputError`.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# sums-of-squares membership


POINTWISE_FACT = (
    "pointwise nonnegativity upgraded to a sum of squares by the classical "
    "theorem of Pourchet on rational function fields (external fact)")


def is_sos_membership(f: RationalFunction) -> dict:
    """Membership of ``f`` in the sums of squares of the function field.

    Decided through pointwise nonnegativity of ``num * den``: positive
    leading coefficient and no real root of odd multiplicity.  A negative
    verdict carries a rational witness point with exactly negative value.
    One square-free decomposition of ``num * den`` (a positive multiple,
    multiplied in integers) serves both the odd-multiplicity count and the
    witness search; when ``num * den`` is square-free, the Sturm chain the
    decomposition built serves both as well, so one remainder sequence
    runs in all.
    """
    if f.is_zero():
        return {"member": True, "witness": None, "witness_value": None,
                "criterion": POINTWISE_FACT,
                "detail": "the zero function is the empty sum"}
    num, den = f.numerator, f.denominator
    lead = num.leading * den.leading
    lead_ok = lead > 0
    # a positive multiple of num * den, multiplied in integers
    g = _int_mul(_integer_multiple(num), _integer_multiple(den))
    factors, chain = _yun(g)
    if lead_ok:
        odd_roots = _odd_root_count(factors, chain)
        if odd_roots == 0:
            return {"member": True, "witness": None, "witness_value": None,
                    "criterion": POINTWISE_FACT,
                    "detail": f"leading coefficient {lead} > 0 and no "
                              "real root of odd multiplicity"}
    sf = _int_product(h for h, _ in factors)
    witness = _negative_point(g, SturmChain._of(_chain_for(sf, chain)),
                              cauchy_root_bound(sf))
    value = f.evaluate(witness)
    if value >= 0:
        raise InternalCheckError("witness point does not evaluate negative")
    return {"member": False, "witness": witness, "witness_value": value,
            "criterion": POINTWISE_FACT,
            "detail": ("negative leading behaviour" if not lead_ok else
                       f"{odd_roots} real roots of odd multiplicity")}


def _negative_point(g: tuple, chain: SturmChain, grid: Fraction) -> Fraction:
    """A point with ``g < 0``, minimal denominator first, deterministic.

    ``g`` is a nonzero integer polynomial, low degree first, and ``chain``
    the Sturm chain of its square-free part ``s``, or of a factor ``r`` of
    ``s`` whose cofactor is positive on the whole line.  Then ``r`` has the
    roots and the signs of ``s``, and at each root the sign of ``s'`` as
    its own derivative's, so its chain counts the same roots in every
    ``(lo, hi]`` and refinement keeps the same halves.  Isolation runs on
    the grid of ``grid``, the Cauchy bound of ``s``, and so returns the
    intervals of ``s`` either way.  Candidates: the simplest rationals in
    the gaps between isolated real roots, plus points beyond the root
    bound of ``g`` on each side.  They are signed in the order
    (denominator, absolute value), the nonnegative one first on ties, and
    the first negative one is returned.  Each candidate's sign is that of
    ``g``, by homogeneous Horner.  0 comes first in that order, so it is
    signed before any root is isolated.
    """
    def negative(x):
        return _homogeneous_value(g, x.numerator, _powers(x.denominator, len(g) - 1)) < 0

    if negative(Fraction(0)):
        return Fraction(0)
    bound = cauchy_root_bound(g)
    candidates = [Fraction(int(bound) + 1), Fraction(-int(bound) - 1)]
    intervals = sorted(_isolate(chain, grid))
    if intervals:
        quarter = Fraction(1, 4)
        refined = [refine_interval(chain, iv, quarter) for iv in intervals]
        # force strict gaps between consecutive isolating intervals
        changed = True
        while changed:
            changed = False
            for i in range(len(refined) - 1):
                if refined[i][1] >= refined[i + 1][0]:
                    w = (refined[i][1] - refined[i][0]) / 2
                    refined[i] = refine_interval(chain, refined[i], w)
                    refined[i + 1] = refine_interval(chain, refined[i + 1], w)
                    changed = True
        candidates.append(simplest_between(-bound - 1, refined[0][0]))
        candidates.append(simplest_between(refined[-1][1], bound + 1))
        for left, right in zip(refined, refined[1:]):
            if left[1] < right[0]:
                candidates.append(simplest_between(left[1], right[0]))
            # half-open isolation: the left interval's upper end is strictly
            # between the two roots unless it is the left root itself
            candidates.append(left[1])
    for x in sorted(set(candidates), key=lambda t: (t.denominator, abs(t), t < 0)):
        if negative(x):
            return x
    # every open region between consecutive distinct roots holds one
    # candidate, so a sign-negative region cannot have been missed
    raise InternalCheckError("failed to locate a negative point")


def _shift_probe(N: tuple, D: tuple, k: int) -> tuple:
    """Whether ``f - k`` is a sum of squares, for canonical ``f = N/D``
    scaled to integers, ``D`` without real roots of odd multiplicity, as
    ``(member, m, yun)``: ``m`` is the primitive numerator ``N - k*D`` and
    ``yun`` its :func:`_yun` result, ``None`` when the decision needed none.

    As ``gcd(N - k*D, D) = gcd(N, D) = 1``, the odd-multiplicity real
    roots of ``(N - k*D) * D`` are those of ``N - k*D``: none, with a
    positive lead and so an even degree, decides membership.
    """
    m = _int_sub(N, [k * c for c in D])
    if not m:
        return True, m, None
    m = primitive(m)
    if m[-1] < 0 or len(m) % 2 == 0:
        return False, m, None
    yun = _yun(m)
    return _odd_root_count(*yun) == 0, m, yun


def _shift_witness(m: tuple, yun, D: tuple, d_yun) -> Fraction:
    """The witness of ``f - k = m/D`` (both primitive, ``d_yun`` the
    :func:`_yun` result of ``D``) that :func:`is_sos_membership` finds.

    It searches ``g = m * D``, which is primitive by Gauss's lemma, so the
    very ``g`` that membership multiplies; as ``gcd(m, D) = 1``, the
    square-free part of ``g`` is ``sqf(m) * sqf(D)``, and isolation runs
    on the grid of its Cauchy bound.  When ``sqf(D)`` has no real root
    (counted on its chain, which is ``D``'s own when ``D`` is square-free),
    it is positive on the whole line, so the chain of ``sqf(m)`` isolates
    and refines in its place (:func:`_negative_point`): the refuting
    probe's chain when ``m`` is square-free, else one chain of ``sqf(m)``.
    A ``D`` with real roots keeps the chain of ``sqf(m) * sqf(D)``.
    """
    factors, chain = yun or _yun(m)
    d_factors, d_chain = d_yun
    sf_m = _int_product(h for h, _ in factors)
    sf_d = _int_product(h for h, _ in d_factors)
    sf = _int_mul(sf_m, sf_d)
    seed = sf if _distinct_root_count(sf_d, d_chain) else sf_m
    return _negative_point(_int_mul(m, D), SturmChain._of(_chain_for(seed, chain)),
                           cauchy_root_bound(sf))


def _int_value(c: tuple, x: int) -> int:
    """``c(x)`` for integer ``c`` and ``x``, by Horner."""
    acc = 0
    for a in reversed(c):
        acc = acc * x + a
    return acc


def theorem_skew_hypothesis(f: RationalFunction) -> dict:
    """Least natural ``k`` with ``f - k`` outside the sums of squares.

    Termination bound: at a sample point ``x0`` where ``f`` is defined,
    ``f(x0) - k < 0`` once ``k > f(x0)``, so the answer is at most ``cap =
    floor(f(x0)) + 1``.  ``x0`` is the first of ``0, 1, -1, 2, -2, ...``
    off the denominator's roots, so one of the first ``deg(den) + 1``.

    Monotonicity: for ``k' < k``, ``(f - k') - (f - k) = k - k'`` is a
    positive rational, hence a sum of squares, and sums of squares are
    closed under addition; so the refuted shifts are upward closed and the
    search gallops: it probes ``k = 1, 2, 4, ...`` (the last clipped to
    ``cap``) until one is refuted, then bisects the gap above the last
    member.  A denominator root of odd multiplicity refutes every shift.

    Cost: at most ``2 * ceil(log2 cap)`` probes (one when ``cap = 1``),
    each a decision in integers on the shifted numerator alone
    (:func:`_shift_probe`), then the witness at the answer is built from
    the refuting probe's numerator, factors and chain
    (:func:`_shift_witness`): when the denominator has no real root, it
    isolates on the probe's chain if the numerator is square-free, else on
    one chain of its square-free part, never on a chain that includes the
    denominator.  The result equals that of a linear scan
    ``k = 1, 2, ...`` with :func:`is_sos_membership`.  The witness must
    make ``f - k`` negative, evaluated on the integer numerator and
    denominator the search used, by homogeneous Horner, with one
    ``Fraction`` formed at the end; those two must lead as ``f``'s own
    numerator and denominator do.  Otherwise :class:`InternalCheckError`
    is raised.
    """
    num, den = f.numerator, f.denominator
    # num and den scaled by one positive factor; den is monic, so no zero
    # at the end of the joined coefficients is stripped
    ints = _integer_multiple(RationalPolynomial(num.coefficients + den.coefficients))
    N, D = ints[:num.degree + 1], ints[num.degree + 1:]
    x0 = next(c for c in ((i + 1) // 2 * (-1) ** (i + 1)
                          for i in range(den.degree + 1))
              if _int_value(D, c))
    cap = max(1, floor(Fraction(_int_value(N, x0), _int_value(D, x0))) + 1)
    Dp = primitive(D)
    d_yun = _yun(Dp)
    member, k = 0, 1  # f - j is a sum of squares for every 1 <= j <= member
    if _odd_root_count(*d_yun):  # every shift is refuted
        probe = (False, primitive(_int_sub(N, D)), None)
    else:
        probe = _shift_probe(N, D, k)
    while probe[0]:
        if k == cap:
            raise InternalCheckError(
                "the evaluation bound failed to stop the downward search")
        member, k = k, min(2 * k, cap)
        probe = _shift_probe(N, D, k)
    refuted, refuting = k, probe
    while refuted - member > 1:
        mid = (member + refuted) // 2
        probe = _shift_probe(N, D, mid)
        if probe[0]:
            member = mid
        else:
            refuted, refuting = mid, probe
    _, m, yun = refuting
    witness = _shift_witness(m, yun, Dp, d_yun)
    # f(w) - k at w = p/q in integers: with the homogeneous values n_q =
    # q^deg(N) N(w) and d_q = q^deg(D) D(w), f(w) = N(w) / D(w) is
    # n_q q^deg(D) / (d_q q^deg(N)); one Fraction is formed, at the end.
    # N and D are the search's own, so the split of f into them is checked
    # first on f's leading coefficients
    if N and N[-1] * den.leading != D[-1] * num.leading:
        raise InternalCheckError("the integer numerator and denominator are not f's")
    p, q = witness.numerator, witness.denominator
    deg_n, deg_d = max(len(N) - 1, 0), len(D) - 1
    powers = _powers(q, max(deg_n, deg_d))
    n_q = _homogeneous_value(N, p, powers) if N else 0
    bottom = _homogeneous_value(D, p, powers) * powers[deg_n]
    if not bottom:
        raise InternalCheckError("the witness is a pole of the function")
    value = Fraction(n_q * powers[deg_d] - refuted * bottom, bottom)
    if value >= 0:
        raise InternalCheckError("the least refuted shift is a sum of squares")
    return {"k": refuted, "witness": witness, "witness_value": value,
            "sample_point": Fraction(x0), "bound": cap,
            "criterion": POINTWISE_FACT}


def categorize(instance: str) -> dict:
    """Category report for the supported ordered fields.

    ``Q`` and ``Q(x)`` both land in the category where ``-1`` stays outside
    the sums of squares even after damped shifts: every sampled element
    admits a natural ``k`` with ``element - k`` outside, and ``-1`` fails
    membership outright.
    """
    if instance == "Q":
        texts = ["0", "1", "2", "7"]
    elif instance == "Q(x)":
        texts = ["x^2", "(x^2+1)/(x^2+2)", "(x^4+3)/(x^2+1)", "x^2+2"]
    else:
        raise InputError(
            f"unsupported field instance {instance!r}: only 'Q' and 'Q(x)'")
    minus_one = is_sos_membership(RationalFunction.constant(-1))
    if minus_one["member"]:
        raise InternalCheckError("-1 cannot be a sum of squares here")
    evidence = []
    for text in texts:
        fn = parse_rational_function(text)
        shifted = theorem_skew_hypothesis(fn)
        evidence.append({"element": text, "k": shifted["k"],
                         "witness": shifted["witness"]})
    return {
        "instance": instance,
        "category": 3,
        "minus_one_member": False,
        "minus_one_witness": minus_one["witness"],
        "evidence": evidence,
        "criterion": POINTWISE_FACT,
        "note": "every sampled element drops out of the sums of squares "
                "after subtracting a natural number, so damped shifts "
                "never absorb -1",
    }
