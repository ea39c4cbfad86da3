"""Coordinatewise lattice-ordered abelian groups and f-ring checks.

Carriers are finite products of the integers or rationals with the
coordinatewise order, where meet and join are coordinatewise min and
max.  A bilinear operation whose products of disjointly supported
positive elements stay disjoint from the complement is support
preserving; for coordinatewise carriers this pins the tensor to its
diagonal, which upgrades localizability and makes the operation
associative and commutative on the nose.  The module also builds the
fixed three-coordinate operation that satisfies the weaker
disjoint-products-vanish axiom while failing associativity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .exactmath import InputError, InternalCheckError, RationalCone
from .functionals import verify_theorem_main
from .localizability import is_strongly_localizable, is_weakly_localizable
from .monoids import BiadditiveOp, OpenConeMonoid, free_monoid


class LatticeGroup:
    """Free abelian group of fixed arity with the coordinatewise order."""

    def __init__(self, dim: int, scalar: str = "integer"):
        if dim <= 0:
            raise InputError("dimension must be positive")
        if scalar not in ("integer", "rational"):
            raise InputError("scalar kind must be 'integer' or 'rational'")
        self.dim = dim
        self.scalar = scalar

    def coerce(self, x) -> tuple:
        """``x`` as a tuple of the carrier's scalars, or :class:`InputError`.

        Fast path: a vector of the right arity whose entries all have
        exactly the scalar type (``int`` for integer carriers, ``Fraction``
        for rational ones) is returned as a tuple unchanged.  Every other
        input (``bool``, ``str``, ``float``, subclasses, wrong arity) goes
        through ``Fraction`` and back, with the same results and errors.
        """
        x = tuple(x)
        kind = int if self.scalar == "integer" else Fraction
        if len(x) == self.dim and all(type(t) is kind for t in x):
            return x
        v = tuple(Fraction(t) for t in x)
        if len(v) != self.dim:
            raise InputError("element arity mismatch")
        if self.scalar == "integer":
            if any(t.denominator != 1 for t in v):
                raise InputError(f"{x!r} is not an integer vector")
            return tuple(int(t) for t in v)
        return v

    @property
    def zero(self) -> tuple:
        base = 0 if self.scalar == "integer" else Fraction(0)
        return tuple(base for _ in range(self.dim))

    def meet(self, x, y):
        return tuple(min(a, b) for a, b in zip(self.coerce(x), self.coerce(y)))


# ---------------------------------------------------------------------------
# support-preserving bilinear operations


def _tensor_entry(x, index: tuple) -> int:
    """A structure constant as an ``int``; non-integral entries are refused."""
    try:
        q = Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InputError(f"tensor entry {index} is {x!r}, not a number") from None
    if q.denominator != 1:
        raise InputError(f"tensor entry {index} is {x!r}, not an integer")
    return int(q)


@dataclass
class FRingCandidate:
    """Bilinear operation on a coordinatewise carrier, positive on the orthant."""

    group: LatticeGroup
    tensor: tuple

    def __post_init__(self):
        d = self.group.dim
        t = tuple(tuple(tuple(_tensor_entry(x, (i, j, k))
                              for k, x in enumerate(row))
                        for j, row in enumerate(slab))
                  for i, slab in enumerate(self.tensor))
        if len(t) != d or any(len(s) != d for s in t) or \
                any(len(r) != d for s in t for r in s):
            raise InputError("tensor shape mismatch")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if t[i][j][k] < 0:
                        raise InputError(
                            "operation leaves the positive orthant on the "
                            f"basis pair ({i}, {j}): component {k} is negative")
        object.__setattr__(self, "tensor", t)
        # the nonzero entries (i, j, k, T[i][j][k]) in i, j, k order
        self._entries = tuple((i, j, k, x) for i, slab in enumerate(t)
                              for j, row in enumerate(slab)
                              for k, x in enumerate(row) if x)

    def mu(self, a, b) -> tuple:
        g = self.group
        return g.coerce(self.product(g.coerce(a), g.coerce(b)))

    def product(self, a, b) -> tuple:
        """``mu`` on two vectors of the right arity, with no coercion: int
        vectors give an int vector, and an untouched coordinate is int 0."""
        out = [0] * self.group.dim
        for i, j, k, t in self._entries:
            x = a[i]
            if x:
                y = b[j]
                if y:
                    out[k] += x * y * t
        return tuple(out)


def _support(v) -> int:
    """The positive support of a nonnegative vector as a bitmask (bit k for
    coordinate k); a negative entry is an internal fault."""
    mask = 0
    for k, x in enumerate(v):
        if x:
            if x < 0:
                raise InternalCheckError(
                    f"box product {tuple(v)!r} has a negative entry")
            mask |= 1 << k
    return mask


def is_extended_f_ring(cand: FRingCandidate, box_bound: int = 3) -> dict:
    """Disjointness preservation of the operation, decided exactly.

    The defining condition is: whenever ``a`` and ``b`` are positive with
    ``a meet b = 0``, both ``mu(c, a) meet b`` and ``mu(a, c) meet b``
    vanish for every positive ``c``.  On a coordinatewise carrier,
    ``a meet b = 0`` means disjoint supports, and with a nonnegative
    tensor the support of ``mu(c, a)`` over all positive ``c`` is exactly
    the set of output coordinates reachable from the support of ``a``;
    single-coordinate choices of ``a``, ``b`` and ``c`` therefore witness
    every violation, so the condition holds if and only if every nonzero
    tensor entry sits on the full diagonal.

    A bounded box sweep guards the reduction.  It visits the disjoint
    pairs ``(a, b)`` a-major and every ``c`` for each, up to the first
    violation, so ``box_checked`` counts the same triples as a per-triple
    loop.  The cells are nonnegative int vectors, and so is every product
    of two of them (the tensor is nonnegative; a negative product entry
    raises :class:`InternalCheckError`).  For nonnegative ``p`` and ``b``,
    ``p meet b = 0`` exactly when no coordinate is positive in both, so
    each vector is read as its positive-support bitmask: ``(a, b)`` is
    disjoint when ``mask(a) & mask(b) == 0``, and the triple violates the
    condition when ``(mask(mu(c, a)) | mask(mu(a, c))) & mask(b)`` is
    nonzero.  The products are computed in ints once per ``a``.
    """
    g = cand.group
    d = g.dim
    offender = None
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if cand.tensor[i][j][k] and not (i == j == k):
                    offender = (i, j, k)
                    break
            if offender:
                break
        if offender:
            break
    witness = None
    if offender is not None:
        i, j, k = offender
        unit = [tuple(1 if t == n else 0 for t in range(d)) for n in range(d)]
        if k != j:
            witness = {"a": unit[j], "b": unit[k], "c": unit[i],
                       "side": "left-multiplier",
                       "value": cand.mu(unit[i], unit[j])}
        else:
            witness = {"a": unit[i], "b": unit[k], "c": unit[j],
                       "side": "right-multiplier",
                       "value": cand.mu(unit[i], unit[j])}
        a, b, c = witness["a"], witness["b"], witness["c"]
        if g.meet(a, b) != g.zero:
            raise InternalCheckError("witness supports are not disjoint")
        hit = (g.meet(cand.mu(c, a), b) if witness["side"] == "left-multiplier"
               else g.meet(cand.mu(a, c), b))
        if hit == g.zero:
            raise InternalCheckError("witness does not violate the condition")
    box_checked = 0
    box_witness = None
    if d <= 4:
        cells = list(product(range(box_bound), repeat=d))
        masks = [_support(c) for c in cells]
        for a, ma in zip(cells, masks):
            reach = [_support(cand.product(c, a)) | _support(cand.product(a, c))
                     for c in cells]
            for b, mb in zip(cells, masks):
                if ma & mb:
                    continue
                hit = next((n for n, r in enumerate(reach) if r & mb), None)
                if hit is None:
                    box_checked += len(cells)
                    continue
                box_checked += hit + 1
                box_witness = {"a": a, "b": b, "c": cells[hit]}
                break
            if box_witness:
                break
        if (box_witness is None) != (offender is None):
            raise InternalCheckError(
                "box sweep disagrees with the diagonal-support reduction")
    return {
        "verdict": "yes" if offender is None else "no",
        "structural_diagonal": offender is None,
        "offending_entry": offender,
        "witness": witness,
        "box_checked": box_checked,
    }


def _orthant_op(cand: FRingCandidate) -> BiadditiveOp:
    """The operation restricted to the positive orthant of the carrier."""
    d = cand.group.dim
    if cand.group.scalar == "integer":
        carrier = free_monoid(d)
    else:
        unit = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        carrier = OpenConeMonoid(RationalCone.from_rays(unit, d), [])
    return BiadditiveOp(carrier, tensor=cand.tensor)


def fring_strong_localizability(cand: FRingCandidate,
                                box_bound: int = 3) -> dict:
    """Support-preserving candidates are strongly localizable and exact.

    Requires the disjointness-preservation verdict; then asserts strong
    localizability of the orthant-restricted operation, and that
    commutativity and associativity hold with on-the-nose equality (on
    coordinatewise archimedean carriers the equivalence collapses to
    equality).
    """
    fr = is_extended_f_ring(cand, box_bound=box_bound)
    if fr["verdict"] != "yes":
        return {"status": "skipped", "ok": True,
                "reason": "operation does not preserve disjoint supports",
                "f_ring": fr}
    op = _orthant_op(cand)
    strong = is_strongly_localizable(op)
    theorem = verify_theorem_main(op)
    exact = (theorem["commutativity"]["exact_equality_failures"] == 0
             and theorem["associativity"]["exact_equality_failures"] == 0)
    ok = strong["verdict"] == "yes" and theorem["ok"] and exact
    if not ok:
        raise InternalCheckError(
            "support-preserving operation failed the strength upgrade")
    return {"status": "confirmed", "ok": True, "f_ring": fr,
            "strong": strong,
            "exact_commutativity": True, "exact_associativity": True,
            "theorem": {"mode": theorem["mode"],
                        "pool_size": theorem["pool_size"],
                        "pairs": theorem["commutativity"]["checked"],
                        "triples": theorem["associativity"]["checked"]}}


# ---------------------------------------------------------------------------
# the three-coordinate commutative, non-associative operation


def almost_fring_tensor() -> list:
    """Tensor of ``mu(a, b) = (a_0 b_0 + a_2 b_2) * (1, 1, 1)`` on three coordinates."""
    t = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        t[0][0][k] = 1
        t[2][2][k] = 1
    return t


def almost_fring_counterexample(box_bound: int = 3) -> dict:
    """Disjoint products vanish, yet the operation is not associative.

    The fixed operation on three coordinates multiplies the outer
    coordinates and spreads the sum over all three.  The report verifies,
    in exact arithmetic over a bounded box: the vanishing of products of
    disjointly supported positive pairs, the archimedean property of the
    coordinatewise order, commutativity of the operation, and a concrete
    triple on which the two associators differ — so commutativity of such
    operations cannot be an instance of the localizability route, whose
    weak hypothesis this operation refutes outright.

    The box cells are int vectors and the tensor is integral, so every
    product, comparison and multiple is computed in ints with no
    coercion; each distinct product is computed once per call.  An
    integral rational prints as an int in a report, so the document is
    the one the rational carrier's arithmetic gives.
    """
    cand = FRingCandidate(LatticeGroup(3, "rational"), almost_fring_tensor())
    cells = list(product(range(box_bound), repeat=3))
    products: dict = {}

    def mul(a, b):
        key = (a, b)
        p = products.get(key)
        if p is None:
            p = products[key] = cand.product(a, b)
        return p

    axiom_checked = 0
    axiom_failures = []
    for a in cells:
        for b in cells:
            if any(min(x, y) != 0 for x, y in zip(a, b)):
                continue
            axiom_checked += 1
            if any(mul(a, b)):
                axiom_failures.append({"a": a, "b": b, "mu": mul(a, b)})

    commut_checked = 0
    commut_failures = []
    for a in cells:
        for b in cells:
            commut_checked += 1
            if mul(a, b) != mul(b, a):
                commut_failures.append({"a": a, "b": b})

    witness = None
    for a in cells:
        for b in cells:
            for c in cells:
                left = mul(mul(a, b), c)
                right = mul(a, mul(b, c))
                if left != right:
                    witness = {"a": a, "b": b, "c": c,
                               "left": left, "right": right}
                    break
            if witness:
                break
        if witness:
            break

    archimedean_checked = 0
    archimedean_failures = []
    for a in cells:
        if all(x == 0 for x in a):
            continue
        for b in cells:
            archimedean_checked += 1
            bound = max(b) + 1
            dominated_forever = all(
                all(ell * x <= y for x, y in zip(a, b))
                for ell in range(1, bound + 2))
            if dominated_forever:
                archimedean_failures.append({"a": a, "b": b})

    # decisive refutation needs the integer orthant form of the carrier,
    # where the damping-row obstruction applies
    weak = is_weakly_localizable(BiadditiveOp(free_monoid(3), tensor=cand.tensor))
    ok = (not axiom_failures and not commut_failures
          and witness is not None and not archimedean_failures
          and weak.verdict == "no")
    return {
        "ok": ok,
        "disjoint_products_vanish": {"checked": axiom_checked,
                                     "failures": axiom_failures},
        "commutative": {"checked": commut_checked,
                        "failures": commut_failures},
        "archimedean": {"checked": archimedean_checked,
                        "failures": archimedean_failures},
        "non_associative_witness": witness,
        "weak_localizability": {"verdict": weak.verdict,
                                "reason": weak.reason,
                                "refuted": weak.refuted},
    }

