"""Localizability of biadditive operations on ordered monoid carriers.

An element s is *left localizable* for an operation mu when the damped
comparison ``mu(s,a) + a <~ mu(s,b) + b`` always forces ``a <~ b``; it is
*localizable* when this holds for mu and its opposite.  The carrier is
*weakly localizable* when every element sits below some localizable one,
and *strongly localizable* when every element is localizable.

On a finite carrier every element is localizable: its canonical
quasi-order is total (see :mod:`monoids`), so ``a <~ b`` holds whatever
the damped comparison says.  Lattice and open-cone carriers
share one decision in exact convex geometry, with ``L_s(x) = x + mu(s, x)``
linear on the difference span and C the closed positivity cone: a map
that scales the span is localizable; with excluded faces, a map that
kills a direction is not; otherwise s is left localizable exactly when
the preimage of C under L_s stays inside C.  When L_s is invertible on
the span that is decided in integers by Cramer's rule, with an
adjugate; a singular L_s is decided by double description.  Faces need
no check of their own: a closed operation with a contained preimage and
an injective L_s maps every face of C onto itself (see
``_vector_left``), so no excluded-face direction can map strictly
inside.

Where C is a pointed simplicial cone (with or without excluded faces)
and the operation is closed on it, one table of ray products, built once
per operation, decides the bulk notions with no damped map (the lemma of
:func:`_simplicial_ray_table`): s is localizable iff no bad ray lies in
its support, the first bad ray refutes weak and strong localizability
alike, and with no bad ray every element is localizable and its own weak
dominator.  Elsewhere the weak and strong searches decide the member ray
sums level by level, the strong one only to refute: a strong "yes" is a
theorem (finite) or the table's.  For one element a side the table
proves holds with no damped map; a side it refutes is decided again by
the one-sided decision, which gives the reason and must refute it too.

A verdict is decided first; the explicit witness pair of a "no" is built
on first read and re-validated through the order decision procedures
before it is handed out.  After a Cramer "no" that read runs the double
description, whose first escaping ray is the witness direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, islice
from math import lcm
from operator import mul
from typing import Iterator, NamedTuple, Optional

from .exactmath import (
    InputError,
    InternalCheckError,
    RationalCone,
    as_int_vector,
    cone_from_inequalities,
    echelon_kernel,
    echelon_solve,
    int_adjugate,
    integer_solve,
    vadd,
    vdot,
    vneg,
    vscale,
)
from .monoids import (
    FINITE_ORDER_IS_TOTAL,
    BiadditiveOp,
    FiniteMonoid,
    LatticeMonoid,
    OpenConeMonoid,
    leq,
)


class LocalizabilityVerdict:
    """The decision on s (``verdict`` "yes" or "no", with its ``reason``);
    ``evidence()`` builds ``(witness, details)`` once, on the first read of
    ``witness``, ``details`` or ``as_dict()``.  ``kind`` is "left",
    "left-opposite" or "full"."""

    def __init__(self, subject, kind: str, verdict: str, reason: str,
                 evidence=lambda: (None, {})):
        self.subject = subject
        self.kind = kind
        self.verdict = verdict
        self.reason = reason
        self.evidence = cache(evidence)

    @property
    def witness(self) -> Optional[tuple]:
        """The pair (a, b) refuting the condition, re-validated; None on a yes."""
        return self.evidence()[0]

    @property
    def details(self) -> dict:
        return self.evidence()[1]

    def as_dict(self) -> dict:
        return {
            "subject": _ser(self.subject),
            "kind": self.kind,
            "verdict": self.verdict,
            "witness": None if self.witness is None else
                       [_ser(self.witness[0]), _ser(self.witness[1])],
            "reason": self.reason,
            "details": self.details,
        }


@dataclass
class WeakLocalizabilityCertificate:
    verdict: str                    # "yes", "no", or "unknown"
    assignments: dict = field(default_factory=dict)  # query -> localizable s
    refuted: Optional[object] = None
    reason: str = ""
    budget: int = 0
    method: str = "search"
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "assignments": {str(_ser(k)): _ser(v) for k, v in self.assignments.items()},
            "refuted": None if self.refuted is None else _ser(self.refuted),
            "reason": self.reason,
            "budget": self.budget,
            "method": self.method,
            "details": self.details,
        }


def _tuple_text(x) -> str:
    """``tuple(x)`` as Python prints it, with rationals as ``p/q``."""
    return f"({', '.join(map(str, x))}{',' if len(x) == 1 else ''})"


def _ser(x):
    if isinstance(x, int):
        return x
    if isinstance(x, tuple):
        return [str(v) for v in x]
    return str(x)


# ---------------------------------------------------------------------------
# left localizability


def is_left_localizable(op: BiadditiveOp, s, side: str = "left") -> LocalizabilityVerdict:
    op.carrier.check_element(s)
    return _left(op, s, side)


def _left(op: BiadditiveOp, s, side: str) -> LocalizabilityVerdict:
    """:func:`is_left_localizable` of an element already checked."""
    kind = "left" if side == "left" else "left-opposite"
    if isinstance(op.carrier, FiniteMonoid):
        # every pair has a <~ b, so no damped comparison can refute
        return LocalizabilityVerdict(s, kind, "yes", FINITE_ORDER_IS_TOTAL)
    return _vector_left(op, s, side, kind)


def _preimage_escape(m, bl, basis):
    """The first direction of the damped map's preimage of the closed cone
    that escapes the cone, None if the preimage stays inside.

    The preimage is computed in span coordinates: ``c`` lies in it when
    ``c . (B L) . h >= 0`` for every facet normal ``h``.  Its rays are
    tried in sorted order, then both signs of its lineality vectors.
    """
    r = len(basis)
    cone = m.cone
    normals = [as_int_vector(tuple(vdot(bl[i], h) for i in range(r))) for h in cone.h_rep]
    lineality, rays = cone_from_inequalities(normals, r)
    for c in sorted(rays):
        x = _combine(c, basis)
        if not cone.member(x):
            return x
    for c in sorted(lineality):
        x = _combine(c, basis)
        for y in (x, vneg(x)):
            if not cone.member(y):
                return y
    return None


def _vector_left(op, s, side, kind) -> LocalizabilityVerdict:
    """Left localizability of s on a lattice or open-cone carrier.

    This is the decision of :func:`is_left_localizable`, and of
    :func:`is_localizable` on each side that the ray-product table (see
    :func:`_simplicial_ray_table`) declines or refutes.  With ``L_s`` the
    damped map on the difference span and C the closed positivity cone,
    three steps decide it; a lattice is the carrier with no strict faces,
    so it skips the second.

    1. A positive multiple of the identity on the span: yes.
    2. With open normals, a nonzero direction x that ``L_s`` kills
       refutes: x and -x cannot both lie strictly inside, and the pair
       over the one outside compares equal after damping.
    3. The preimage ``L_s^-1(C)`` must lie in C.  With ``L_s`` invertible
       on the span, Cramer's rule decides it in integers (see
       :func:`_cramer_preimage_inside`); a singular ``L_s`` has its
       preimage computed by double description.  A ray of the preimage
       that escapes refutes: the first one in double description's
       order, computed when the evidence of a "no" is read.  Its image
       lies in C, and when it lies on an excluded face the ray is
       perturbed until the image is strictly inside.

    No face of C needs a check of its own.  ``validate`` checks every
    product of ``v_rep`` rays, lineality in both signs, so
    ``mu(C, C) ⊆ C`` and hence ``L_s(C) ⊆ C``; with step 3 passed,
    ``L_s^-1(C) = C``.  With open normals step 2 makes ``L_s`` injective
    on the span, so ``L_s(C) = C`` and ``L_s`` maps faces onto faces.
    For a face F and an x in its relative interior, ``L_s(x) = x +
    mu(s, x)`` lies in the face ``L_s(F)`` and ``mu(s, x)`` lies in C, so
    x lies in that face too: ``F ⊆ L_s(F)``, and as the dimensions are
    equal, ``L_s(F) = F``.  So no direction of an excluded face maps
    strictly inside.
    """
    m = op.carrier
    basis = _nonzero_span(m)
    r = len(basis)

    def damped(x):
        """``L_s(x)``: x plus its product with s on this side."""
        return vadd(x, op.mu(s, x) if side == "left" else op.mu(x, s))
    bl = [damped(b) for b in basis]

    # bl[i] == lam * basis[i] for one lam > 0, by cross multiplication
    # against the first nonzero basis entry
    i0, k0 = next((i, k) for i, b in enumerate(basis) for k, v in enumerate(b) if v)
    p, q = bl[i0][k0], basis[i0][k0]
    if p * q > 0 and all(bl[i][k] * q == p * basis[i][k]
                         for i in range(r) for k in range(m.dim)):
        return LocalizabilityVerdict(s, kind, "yes", "damped map scales the span")

    if m.open_normals:
        kernel = _left_kernel(bl)
        if kernel:
            x = as_int_vector(_combine(kernel[0], basis))
            direction = x if not _inside(m, x) else vneg(x)
            return _refuted(op, s, side, kind,
                            "damped map kills a direction outside the strict cone",
                            lambda: direction,
                            lambda: {"kernel_direction": [str(v) for v in direction]})

    inside = _cramer_preimage_inside(m, bl)
    escape = None
    if inside is None:  # L_s singular on the span: double description decides
        escape = _preimage_escape(m, bl, basis)
        inside = escape is None
    if inside:
        return LocalizabilityVerdict(
            s, kind, "yes", "preimage of the positivity cone stays inside the cone")

    def violation():
        """The first escaping ray in double description's order, computed
        on the first read of the evidence after a Cramer refutation."""
        nonlocal escape
        if escape is None:
            escape = _preimage_escape(m, bl, basis)
            if escape is None:
                raise InternalCheckError(
                    "Cramer test refuted a preimage that double description keeps inside")
        return escape

    def strict_direction():
        if _inside(m, damped(violation())):
            return violation()
        return _strictify(m, damped, bl, basis, violation())
    return _refuted(op, s, side, kind, "preimage cone escapes the positivity cone",
                    strict_direction,
                    lambda: {"violating_direction": [int(v) for v in violation()],
                             "injective_on_span": not _left_kernel(bl)})


def _cramer_preimage_inside(m, bl) -> Optional[bool]:
    """Whether ``L_s^-1(C) ⊆ C``, by Cramer's rule; None when ``L_s`` is
    singular on the span (or, for an operation that is not closed, maps
    the span out of it).

    Write a vector of the span as ``c B`` in the coordinates c of its
    basis B, and read it back by its entries at the pivot columns of B,
    which fix a vector of the span.  From the one coordinates to the
    other ``L_s`` has the r x r matrix M of the rows ``bl`` at the
    pivots: ``c B`` maps to ``c M`` there.  C is generated by the vectors
    v of ``cone.v_rep``, read there as ``v_p``, so when M is invertible
    the preimage of C is generated by ``v_p M^-1`` in the coordinates c,
    and lies in C iff ``(v_p M^-1) . (B h) >= 0`` for every facet normal h
    and every v.  As ``M^-1 = adj(M) / det(M)``, that is iff
    ``det(M) * ((v_p adj(M)) . (B h)) >= 0``, in integers once one common
    positive denominator is cleared from M (scaling M whole keeps the map
    up to a positive factor; scaling rows apart would not).
    """
    pivots, off_span, gens, normals = m.span_cone
    if any(vdot(x, z) for x in bl for z in off_span):
        return None
    mat = [[x[p] for p in pivots] for x in bl]
    if not all(type(v) is int for row in mat for v in row):
        den = lcm(*(v.denominator for row in mat for v in row))
        mat = [[int(v * den) for v in row] for row in mat]
    det, adj = int_adjugate(mat)
    if det == 0:
        return None
    if det < 0:
        adj = [[-v for v in row] for row in adj]
    cols = list(zip(*adj))
    for v in gens:
        w = [sum(map(mul, v, col)) for col in cols]
        for hb in normals:
            if sum(map(mul, w, hb)) < 0:
                return False
    return True


def _refuted(op, s, side, kind, reason, direction, details) -> LocalizabilityVerdict:
    """A "no" whose evidence is the pair over ``direction()``, re-validated,
    with ``details()``; neither is computed before it is read."""
    def evidence():
        witness = _witness_pair(op.carrier, direction())
        _validate_witness(op, s, side, witness)
        return witness, details()
    return LocalizabilityVerdict(s, kind, "no", reason, evidence)


def _left_kernel(bl) -> list[tuple]:
    """Nonzero combinations of the span basis killed by the damping map."""
    return echelon_kernel(list(zip(*bl)))


def _combine(coeffs, basis):
    out = tuple(0 for _ in basis[0])
    for c, b in zip(coeffs, basis):
        out = vadd(out, vscale(c, b))
    return out


def _witness_pair(m, direction) -> tuple:
    """Deterministic monoid pair (a, a + direction), for a direction outside m.

    The base point a is the least multiple ``k*g`` of the ray sum g whose
    translate by the direction lies in m.  Every ``k*g`` is a member, and
    membership of ``k*g + direction`` is upward closed in k (adding g keeps
    it), so the least k is found by galloping from 0, then bisecting.  The
    search stops at a k whose translate is certainly a member: on a
    lattice, from an integer combination of the direction; on a cone, the
    least k that every facet inequality allows, ``h . (k*g + d) >= 0``
    for a closed normal positive on g and ``n . (k*g + d) > 0`` for an
    open one.
    """
    if isinstance(m, LatticeMonoid):
        combo = integer_solve([tuple(g) for g in m.generators], tuple(direction))
        if combo is None:
            raise InternalCheckError("violating direction left the difference lattice")
        g = reduce(vadd, m.generators, (0,) * m.dim)
        cap = max(0, -min(combo)) + 1
    else:
        g = _interior_point(m)
        cap = max([0] + [-(vdot(h, direction) // vdot(h, g))
                         for h in m.closed_normals if vdot(h, g) > 0]
                  + [-vdot(n, direction) // vdot(n, g) + 1 for n in m.open_normals])

    def pair(k):
        a = vscale(k, g)
        return a, vadd(a, tuple(direction))

    miss, k = -1, 0
    while not m.contains(pair(k)[1]):
        if k == cap:
            raise InternalCheckError("witness base point search exceeded its bound")
        miss, k = k, min(cap, max(1, 2 * k))
    while k - miss > 1:
        mid = (miss + k) // 2
        if m.contains(pair(mid)[1]):
            k = mid
        else:
            miss = mid
    return pair(k)


def _validate_witness(op, s, side, witness) -> None:
    m = op.carrier

    def mu(x, y):
        return op.mu(x, y) if side == "left" else op.mu(y, x)

    a, b = witness
    lhs, rhs = vadd(mu(s, a), a), vadd(mu(s, b), b)
    if not leq(m, lhs, rhs) or leq(m, a, b):
        raise InternalCheckError("localizability witness failed re-validation")


# -- the span, its relative interior and strict images -----------------------


def _nonzero_span(m) -> tuple:
    """The span basis; a carrier whose rays are all zero is refused."""
    if not m.span_basis:
        raise InputError(m.origin_only_text)
    return m.span_basis


def _interior_point(m: OpenConeMonoid) -> tuple:
    """The ray sum: a member in the relative interior of the closed cone.

    A cone of lower dimension keeps each implicit equality ``h . x = 0`` in
    ``h_rep`` as the pair ``h``, ``-h``, which vanishes on every ray and so
    on all of the cone.  Relative interiority asks strict positivity only
    of the other forms, each of which is positive on some ray.
    """
    rays = m.cone.v_rep
    _nonzero_span(m)
    acc = reduce(vadd, rays, (0,) * m.dim)
    for h in m.cone.h_rep:
        if vdot(h, acc) <= 0 and any(vdot(h, r) for r in rays):
            raise InternalCheckError("ray sum is not relatively interior")
    if not m.contains(acc):
        # only an open normal that vanishes on the whole cone excludes it
        raise InputError("open-cone carrier has no member but the origin")
    return acc


def _inside(m, x) -> bool:
    return m.boundary_status(x) == "inside"


def _preimage(bl, basis, v):
    """Span vector x with (damped map)(x) == v, or None."""
    c = echelon_solve(list(zip(*bl)), v)
    if c is None:
        return None
    return _combine(c, basis)


def _strictify(m: OpenConeMonoid, damped, bl, basis, x):
    """Perturb x so its image becomes a strict member while x itself stays
    outside the closed cone.  Requires the interior to have a preimage."""
    interior = _interior_point(m)
    u = _preimage(bl, basis, interior)
    if u is None:
        raise InternalCheckError("interior point lost from the damped image")
    offending = [h for h in m.cone.h_rep if vdot(h, x) < 0]
    if not offending:
        raise InternalCheckError("expected a separating facet form")
    eps = Fraction(1)
    while True:
        x2 = vadd(x, vscale(eps, u))
        if any(vdot(h, x2) < 0 for h in offending):
            if not _inside(m, damped(x2)):
                raise InternalCheckError("perturbed image lost strictness")
            return x2
        eps /= 2
        if eps.denominator > 2 ** 40:
            raise InternalCheckError("perturbation did not stabilize")


# ---------------------------------------------------------------------------
# the ray-product table of a simplicial closed carrier


class RayTable(NamedTuple):
    """What :func:`_simplicial_ray_table` reads off the ray products."""
    rays: list          # the rays r_i, in m.rays order
    weights: list       # h_i . mu(r_i, r_i) / h_i . r_i, exact: w_i when no ray is bad
    bad_normals: tuple  # the normals h_i of the left-bad rays, and of the right-bad rays
    obstruction: Optional[dict]  # the first bad ray's first row with two positive entries


def _ray_table(op: BiadditiveOp) -> Optional[RayTable]:
    """:func:`_simplicial_ray_table`, built once and kept on the operation."""
    if "ray_table" not in op._cache:
        op._cache["ray_table"] = _simplicial_ray_table(op)
    return op._cache["ray_table"]


def _simplicial_ray_table(op: BiadditiveOp) -> Optional[RayTable]:
    """The ray-product table of the operation, the one structural
    decision of localizability; None where it does not apply.

    It applies to a vector carrier whose closed cone C is pointed and
    simplicial, faces excluded or not, with the operation closed on C; a
    zero span and an excluded face that is all of C are refused first, as
    the decision refuses them.  C is recognised from ``cone.h_rep`` and the
    rays alone, without computing its extreme rays: the facet normals that
    are nonzero on some ray must number the rank r of the span, and each
    normal ``h_i`` must have a ray ``r_i`` on which it alone is nonzero,
    and positive (the first such ray of ``m.rays``).  Then ``h_k . r_i``
    is zero for k != i, so the ``r_i`` are a basis of the span, the other
    normals of ``h_rep`` vanish on it, and ``x = sum_i (h_i . x / h_i .
    r_i) r_i`` there: in these ray coordinates C is the orthant, pointed,
    with extreme rays ``r_i``.  The operation is closed on C iff every
    ``mu(r_i, r_j)`` lies in C (by bilinearity); if one does not, the
    table declines.

    Ray i is *left-bad* if some ``mu(r_i, r_j)`` is not a multiple of
    ``r_j``, that is, some normal other than ``h_j`` is nonzero on it, and
    *right-bad* if some ``mu(r_j, r_i)`` is not a multiple of ``r_j``.

    **Lemma.** On such a carrier, s is left localizable iff ``h_i . s = 0``
    for every left-bad ray i, and right localizable iff the same holds for
    every right-bad ray.

    *Proof* (the left side; the right side is the opposite operation's
    left side).  Write ``s = sum_i s_i r_i``, every ``s_i >= 0``, and let
    ``P_i`` be the matrix of ``x -> mu(r_i, x)`` in ray coordinates, rows
    = inputs: row j holds the coordinates of ``mu(r_i, r_j)``, all
    ``>= 0`` as the product lies in C.  ``L_s`` has the matrix
    ``M = I + sum_i s_i P_i >= 0``, and a localizable s has
    ``L_s^-1(C) ⊆ C`` (see :func:`_vector_left`).  If M is singular, a
    nonzero x with ``L_s(x) = 0`` and ``-x`` both lie in the preimage, and
    not both in the pointed C.  If M is invertible, the preimage of the
    orthant is generated by the rows of ``M^-1``, so it lies in C iff
    ``M^-1 >= 0``.  A nonnegative matrix with a nonnegative inverse is
    monomial (Berman and Plemmons, *Nonnegative Matrices in the
    Mathematical Sciences*, 1994), and as M's diagonal entries are at
    least 1 it is diagonal.  Conversely a diagonal ``M >= I`` scales each
    ray coordinate by a positive factor, which keeps its sign, and the
    sign pattern of the ray coordinates decides membership of the
    monoid, excluded faces included: ``L_s(x)`` is a member iff x is, so
    s is localizable.  So s is left localizable iff M is diagonal, iff
    ``P_i`` is diagonal for every i with ``s_i > 0``, iff no such ray is
    left-bad; and ``s_i > 0`` iff ``h_i . s > 0``.  ∎

    **Weak "no".**  The refuted element e is the first bad ray ``r_i``
    plus every other ray whose own facet is excluded, so a member, with
    ``h_i . e = h_i . r_i > 0``.  Every s above e has ``s - e`` in C, so
    ``h_i . s > 0``: by the lemma no s above e is localizable.  In ray
    coordinates a row j of ``I + P_i`` has two positive entries:
    ``M[j][j] >= 1``, and the off-ray support of ``mu(r_i, r_j)``
    (``RayTable.obstruction``).

    **Strong "yes".**  With no bad ray, ``mu(r_i, r_j)`` is a multiple of
    both ``r_i`` and ``r_j``, so it is ``δ_ij w_i r_i`` with ``w_i >= 0``
    (closure): the tensor is diagonal in ray coordinates, and every s is
    localizable.  With a bad ray, the refuted element itself is not.
    """
    m = op.carrier
    if op.tensor is None:
        return None
    if m.open_normals:
        _interior_point(m)
    rank = len(_nonzero_span(m))
    cone = m.cone
    # each facet normal that is nonzero on some ray, with its values on the rays
    values = [(h, vals) for h, vals in ((h, [vdot(h, g) for g in m.rays]) for h in cone.h_rep)
              if any(vals)]
    if len(values) != rank:
        return None
    chosen = {}  # normal index -> the first ray on which it alone is nonzero
    for g, column in zip(m.rays, zip(*(vals for _, vals in values))):
        support = [i for i, v in enumerate(column) if v]
        if len(support) == 1 and column[support[0]] > 0:
            chosen.setdefault(support[0], g)
    if len(chosen) != rank:
        return None
    # a dict keeps the order of insertion, so the rays are in m.rays order
    rays = list(chosen.values())
    normals = [values[i][0] for i in chosen]
    lifted = [r for r, h in zip(rays, normals) if h in m.open_normals]
    # prods[i][j][k] = h_k . mu(r_i, r_j), positive iff ray coordinate k is.
    # Each product is summed off the tensor over the pairs of nonzero ray
    # coordinates (a ray is nonzero), as the f-ring verdict reads the
    # tensor, so the table makes no op.mu call
    supports = [[(a, x) for a, x in enumerate(r) if x] for r in rays]
    prods = [[None] * rank for _ in rays]
    for i, si in enumerate(supports):
        for j, sj in enumerate(supports):
            p = reduce(vadd, [vscale(x * y, op.tensor[a][b]) for a, x in si for b, y in sj])
            if not cone.member(p):
                return None
            prods[i][j] = [vdot(h, p) for h in normals]
    # the normals of the rays bad on each side, and the obstruction: the
    # first row j of I + P_i (on the right, of x -> x + mu(x, r_i)) with two
    # positive entries, of the first bad ray i, the left side first
    bad_normals, obstruction = ([], []), None
    for i in range(rank):
        for bad, side in zip(bad_normals, ("left", "right")):
            for j in range(rank):
                p = prods[i][j] if side == "left" else prods[j][i]
                columns = sorted({j}.union(k for k, v in enumerate(p) if v))
                if len(columns) > 1:
                    bad.append(normals[i])
                    if obstruction is None:
                        e = reduce(vadd, [r for r in lifted if r != rays[i]], rays[i])
                        obstruction = {"element": list(e), "side": side,
                                       "row": j, "positive_columns": columns}
                    break
    weights = [Fraction(prods[i][i][i], vdot(normals[i], r)) for i, r in enumerate(rays)]
    return RayTable(rays, weights, bad_normals, obstruction)


# ---------------------------------------------------------------------------
# full localizability and the bulk notions


def is_localizable(op: BiadditiveOp, s) -> LocalizabilityVerdict:
    """Localizability of s: both sides, the left first.  A side holds
    where the ray-product table applies and no bad normal of that side is
    positive on s; every other side runs :func:`is_left_localizable`, and
    a "no" gives its reason and, on read, its evidence.  A side the table
    refutes that this decision keeps is an internal error."""
    op.carrier.check_element(s)
    table = _ray_table(op)
    for side, condition in (("left", "left"), ("right", "opposite")):
        if table is None or any(vdot(h, s) > 0 for h in table.bad_normals[side == "right"]):
            one = _left(op, s, side)
            if one.verdict == "no":
                return LocalizabilityVerdict(
                    s, "full", "no", f"{condition} condition fails: {one.reason}",
                    one.evidence)
            if table is not None:
                raise InternalCheckError(
                    f"ray-product table refuted a {one.kind} condition "
                    "that the preimage decision keeps")
    return LocalizabilityVerdict(s, "full", "yes", "both sides localizable")


def _dominator_candidates(m, budget: int) -> Iterator[tuple]:
    """The members among the first ``budget`` levels of ``m.ray_sums()``,
    each level sorted (on a lattice, every ray sum)."""
    return filter(m.contains, chain.from_iterable(islice(m.ray_sums(), budget)))


def is_weakly_localizable(op: BiadditiveOp, budget: int = 8) -> WeakLocalizabilityCertificate:
    m = op.carrier
    # decided once per candidate, however many queries reach it
    localizable = cache(lambda s: is_localizable(op, s).verdict == "yes")
    if isinstance(m, FiniteMonoid):
        # the order is total and every element localizable, so the search
        # settles each element on the first candidate, 0
        assignments = {a: next(s for s in m.elements() if leq(m, a, s) and localizable(s))
                       for a in m.elements()}
        return WeakLocalizabilityCertificate(
            "yes", assignments=assignments, budget=budget, reason=FINITE_ORDER_IS_TOTAL)
    table = _ray_table(op)
    if table is not None and table.obstruction is not None:
        # the first bad ray, made a member: nothing above it is localizable
        # (see _simplicial_ray_table), so no candidate is built
        return WeakLocalizabilityCertificate(
            "no", refuted=tuple(table.obstruction["element"]), budget=budget,
            reason="every element above the refuted one has a damping "
                   "row with two positive entries, so none is localizable",
            details={"obstruction": table.obstruction})
    # the table refused a degenerate cone, which has no query
    queries = list(m.generators) if isinstance(m, LatticeMonoid) else m.sample_elements(6)
    assignments = {}
    for a in queries:
        if table is not None:
            # no bad ray: every element is localizable, and a <~ a
            found = tuple(a)
        else:
            # each query reads the candidates from the first; the levels
            # of ray sums are built once, on the carrier
            found = next((s for s in _dominator_candidates(m, budget)
                          if leq(m, a, s) and localizable(s)), None)
        if found is None:
            return WeakLocalizabilityCertificate(
                "unknown", assignments=assignments, budget=budget,
                reason=f"no localizable dominator found for {_tuple_text(a)} "
                       f"within {m.budget_text} {budget}")
        assignments[tuple(a)] = found
    return WeakLocalizabilityCertificate(
        "yes", assignments=assignments, budget=budget,
        reason="localizable dominator found for every queried element")


def is_strongly_localizable(op: BiadditiveOp, budget: int = 8) -> dict:
    """Yes on finite carriers, by theorem.  On vector ones, structural
    where the ray-product table applies (see :func:`_simplicial_ray_table`):
    yes when no ray is bad, else the first bad ray is refuted.  Elsewhere
    the dominator candidates of at most 4 levels are decided only to
    refute one: with none refuted the answer is "unknown"."""
    m = op.carrier
    if isinstance(m, FiniteMonoid):
        # every element of a finite carrier is localizable
        return {"verdict": "yes", "confirmed": "theorem", "reason": FINITE_ORDER_IS_TOTAL}

    def refuted(s, v):
        return {"verdict": "no", "confirmed": "witnessed",
                "refuted_element": _ser(s), "witness": v.as_dict()["witness"]}

    table = _ray_table(op)
    if table is not None:
        if table.obstruction is None:
            return {"verdict": "yes", "confirmed": "structural",
                    "reason": "simplicial lemma: on this pointed simplicial cone "
                              "every ray product is a multiple of each factor, "
                              "so every damping map is a positive diagonal in "
                              "ray coordinates",
                    "rays": table.rays, "weights": table.weights}
        # the refuted element, the first bad ray with each other ray whose
        # facet is excluded added, is itself not localizable
        s = tuple(table.obstruction["element"])
        v = is_localizable(op, s)
        if v.verdict != "no":
            raise InternalCheckError("ray-product table refuted a ray that the decision keeps")
        return refuted(s, v)
    # the candidates grow with each level, and no number of them proves a yes
    levels = min(budget, 4)
    candidates = list(_dominator_candidates(m, levels))
    for s in candidates:
        v = is_localizable(op, s)
        if v.verdict == "no":
            return refuted(s, v)
    return {"verdict": "unknown", "elements_checked": len(candidates),
            "reason": f"no element refuted in the first {levels} levels of ray "
                      "sums; off the ray-product table no search confirms "
                      "strong localizability"}


# ---------------------------------------------------------------------------
# order-unit fast path


def _order_unit_multiple(cone: RationalCone, e, g) -> Optional[int]:
    """Least k >= 1 with k*e - g in the cone, decided exactly."""
    lo = 1
    hi = None
    for h in cone.h_rep:
        he = vdot(h, e)
        hg = vdot(h, g)
        if he > 0:
            need = -(-hg // he) if hg > 0 else 0  # ceil for positive demand
            lo = max(lo, need)
        elif he == 0:
            if hg > 0:
                return None
        else:
            bound = hg // he  # floor of hg/he with he < 0
            hi = bound if hi is None else min(hi, bound)
    if hi is not None and lo > hi:
        return None
    return lo


def order_unit_fast_path(op: BiadditiveOp, e, budget: int = 8) -> WeakLocalizabilityCertificate:
    """Weak-localizability certificate through multiples of a unit.

    Demands that e is a two-sided unit for the operation and an order
    unit of the level-1 reduction, and that the reduction's positivity
    is a closed polyhedral cone (hence unperforated with damped limits
    adding nothing).  On refusal the general search runs instead, with
    the refusal reasons attached.

    The positivity cone always spans the carrier's space, so no refusal
    asks for it: ``m.cone`` is spanned by ``m.rays`` (a lattice's cone is
    built from its nonzero generators, and an open cone's rays are its
    closed cone's ``v_rep``), and an all-zero lattice's cone is the
    origin, as is the lattice: its ``h_rep`` is the ±e_i and its
    ``v_rep`` is empty.
    """
    m = op.carrier
    m.check_element(e)
    refusals = []
    dominators = {}  # element -> the unit multiple that dominates it
    if isinstance(m, FiniteMonoid):
        unit_ok = all(op.mu(e, a) == a and op.mu(a, e) == a for a in m.elements())
        # the canonical quasi-order on a finite carrier is total, so e
        # itself dominates; the reduction is the one-element group
        dominators = {a: e for a in m.elements()}
    else:
        unit_ok = all(op.mu(e, tuple(a)) == tuple(a) and op.mu(tuple(a), e) == tuple(a)
                      for a in m.rays)
        for g in m.rays:
            k = _order_unit_multiple(m.cone, e, g)
            if k is None:
                refusals.append(
                    f"not an order unit: no multiple dominates {tuple(g)}")
                break
            dominators[tuple(g)] = vscale(k, tuple(e))
    if not unit_ok:
        refusals.insert(0, "not a two-sided unit for the operation")

    def fallback(reasons):
        cert = is_weakly_localizable(op, budget=budget)
        cert.method = "search-after-refusal"
        cert.details = dict(cert.details, refusal_reasons=reasons)
        return cert
    if refusals:
        return fallback(refusals)
    assignments = {}
    localizable = cache(lambda s: is_localizable(op, s).verdict == "yes")
    for a, s in dominators.items():
        if not localizable(s):
            return fallback([f"unit multiple {_ser(s)} failed localizability"])
        if not leq(m, a, s):
            raise InternalCheckError("order-unit multiple does not dominate")
        assignments[a] = s
    return WeakLocalizabilityCertificate(
        "yes", assignments=assignments, budget=budget, method="order-unit",
        reason="unit multiples dominate and are localizable",
        details={"hypotheses": "two-sided unit; order unit of the level-1 "
                               "reduction; closed polyhedral positivity"})

