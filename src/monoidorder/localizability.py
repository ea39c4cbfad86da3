"""Localizability of biadditive operations on ordered monoid carriers.

An element s is *left localizable* for an operation mu when the damped
comparison ``mu(s,a) + a <~ mu(s,b) + b`` always forces ``a <~ b``; it is
*localizable* when this holds for mu and its opposite.  The carrier is
*weakly localizable* when every element sits below some localizable one,
and *strongly localizable* when every element is localizable.

On a carrier whose canonical quasi-order is total (``order_is_total``,
a finite carrier: see :mod:`monoids`) every element is localizable.  On
lattice and open-cone carriers one element and the bulk notions are all
read off ``op.ray_products``, the products of two rays that the operation builds
once: the facet normals' signs on them decide closure on the closed cone,
and their zero sets on the extreme rays modulo the lineality space give
the ray lemma of :func:`_polyhedral_ray_table`.  s is localizable iff no
bad ray lies in its face, so the first bad ray refutes weak and strong
localizability, and with no bad ray every element is localizable.  With
excluded faces and a lineality space a damping map must also be
injective on that space: each element's decision checks its kernel, a
line is decided by the table's rule, and strong localizability on a
larger space is "unknown".  No verdict rests on a search, and an
operation not closed on the closed cone is refused.

Every decision assumes a validated operation (``op.validate() == []``,
which the instance file loader checks and :class:`BiadditiveOp` does not).
On a lattice carrier a product can lie in the closed cone but outside the
monoid: the ray table cannot see that, so such an operation gets a verdict
that means nothing, or an error from a witness self-check.

The witness pair of a "no" is built on first read and re-validated
through the order decision procedures before it is handed out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from typing import NamedTuple, Optional

from .core import (InternalCheckError, Record, as_int_vector, vadd, vcombine, vdot, vneg,
                   vscale)
from .exactmath import (
    RationalCone,
    cone_from_inequalities,
    echelon_kernel,
    echelon_solve,
)
from .monoids import FINITE_ORDER_IS_TOTAL, BiadditiveOp, leq


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


class WeakLocalizabilityCertificate(Record):
    """The verdict on weak localizability and its evidence: a mutable
    record."""

    _fields = ("verdict", "assignments", "refuted", "reason", "budget", "method",
               "details")

    def __init__(self, verdict: str, assignments: Optional[dict] = None,
                 refuted: Optional[object] = None, reason: str = "",
                 method: str = "search", details: Optional[dict] = None):
        self.verdict = verdict      # "yes" or "no"
        self.assignments = {} if assignments is None else assignments  # query -> localizable s
        self.refuted = refuted
        self.reason = reason
        self.budget = 8             # the command line's --budget, echoed
        self.method = method
        self.details = {} if details is None else details

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
    if op.carrier.order_is_total:
        # every pair has a <~ b, so no damped comparison can refute
        return LocalizabilityVerdict(s, kind, "yes", FINITE_ORDER_IS_TOTAL)
    return _vector_left(op, s, side, kind)


_PREIMAGE_INSIDE = "preimage of the positivity cone stays inside the cone"


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
        x = vcombine(c, basis)
        if not cone.member(x):
            return x
    for c in sorted(lineality):
        x = vcombine(c, basis)
        for y in (x, vneg(x)):
            if not cone.member(y):
                return y
    return None


def _vector_left(op, s, side, kind) -> LocalizabilityVerdict:
    """Left localizability of s on a lattice or open-cone carrier, read off
    the ray table (see :func:`_polyhedral_ray_table`, which refuses an
    operation not closed on the closed cone C).  With open normals a
    nonzero direction that the damped map ``L_s`` kills refutes; else a
    bad ray of this side in ``F(s)`` refutes, as the preimage
    ``L_s^-1(C)`` escapes C; else the side holds.  A decisive table with
    no bad ray in ``F(s)`` builds no damped map: ``L_s`` is injective
    there.  The escaping ray is the preimage's first in double
    description's order, computed when the evidence of the "no" is read,
    and perturbed when its image lies on an excluded face.
    """
    m = op.carrier
    table = _closed_table(op)
    z = _zero_set(m.cone.h_rep, s)
    bad = any(z | table.zero_sets[i] == table.zero_sets[i] for i in table.bad[side == "right"])
    if not bad and table.decisive:
        return LocalizabilityVerdict(s, kind, "yes", _PREIMAGE_INSIDE)
    basis = m.span_basis

    def damped(x):
        """``L_s(x)``: x plus its product with s on this side."""
        return vadd(x, _product(op, s, x, side))
    bl = [damped(b) for b in basis]

    if m.open_normals:
        kernel = _left_kernel(bl)
        if kernel:
            x = as_int_vector(vcombine(kernel[0], basis))
            direction = x if not _inside(m, x) else vneg(x)
            return _refuted(op, s, side, kind,
                            "damped map kills a direction outside the strict cone",
                            lambda: direction,
                            lambda: {"kernel_direction": [str(v) for v in direction]})
    if not bad:
        return LocalizabilityVerdict(s, kind, "yes", _PREIMAGE_INSIDE)

    @cache
    def violation():
        """The first escaping ray in double description's order."""
        escape = _preimage_escape(m, bl, basis)
        if escape is None:
            raise InternalCheckError(
                "ray-product table refuted a side whose preimage stays inside the cone")
        return escape

    def strict_direction():
        if _inside(m, damped(violation())):
            return violation()
        return _strictify(m, damped, bl, basis, violation())
    return _refuted(op, s, side, kind, "preimage cone escapes the positivity cone",
                    strict_direction,
                    lambda: {"violating_direction": [int(v) for v in violation()],
                             "injective_on_span": not _left_kernel(bl)})


def _product(op, x, y, side) -> tuple:
    """``mu(x, y)`` on the left side, ``mu(y, x)`` on the right.  A product
    of two carrier rays is read off ``op.ray_products``; other operands
    multiply."""
    pair = (x, y) if side == "left" else (y, x)
    products = op.ray_products
    return products[pair] if pair in products else op.mu(*pair)


def _refuted(op, s, side, kind, reason, direction, details) -> LocalizabilityVerdict:
    """A "no" whose evidence is the pair over ``direction()``, re-validated,
    with ``details()``; neither is computed before it is read."""
    def evidence():
        witness = op.carrier.witness_pair(direction())
        _validate_witness(op, s, side, witness)
        return witness, details()
    return LocalizabilityVerdict(s, kind, "no", reason, evidence)


def _left_kernel(bl) -> list[tuple]:
    """Nonzero combinations of the span basis killed by the damping map."""
    return echelon_kernel(list(zip(*bl)))


def _validate_witness(op, s, side, witness) -> None:
    m = op.carrier

    def mu(x, y):
        return op.mu(x, y) if side == "left" else op.mu(y, x)

    a, b = witness
    lhs, rhs = vadd(mu(s, a), a), vadd(mu(s, b), b)
    if not leq(m, lhs, rhs) or leq(m, a, b):
        raise InternalCheckError("localizability witness failed re-validation")


# -- strict images -----------------------------------------------------------


def _inside(m, x) -> bool:
    return m.boundary_status(x) == "inside"


def _preimage(bl, basis, v):
    """Span vector x with (damped map)(x) == v, or None."""
    c = echelon_solve(list(zip(*bl)), v)
    if c is None:
        return None
    return vcombine(c, basis)


def _strictify(m, damped, bl, basis, x):
    """Perturb x so its image becomes a strict member while x itself stays
    outside the closed cone.  Requires the interior to have a preimage."""
    interior = m.interior_point()
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
# the ray-product table of a closed operation


class RayTable(NamedTuple):
    """What :func:`_polyhedral_ray_table` reads off the ray products."""
    rays: list          # the extreme rays r_i of C modulo L, in m.rays order
    zero_sets: list     # Z(r_i), a bit mask over the normals of cone.h_rep
    weights: list       # h . mu(r_i, r_i) / h . r_i, h the first normal nonzero on r_i
    bad: tuple          # the indices i of the left-bad rays, and of the right-bad rays
    obstruction: Optional[dict]  # the first bad ray's first row with two columns
    decisive: bool      # no excluded face, or L = 0: a side holds iff no bad ray is in F(s)


def _zero_set(normals, x) -> int:
    """``Z(x)``: the normals that vanish on x, as a bit mask of their indices."""
    return sum(1 << k for k, h in enumerate(normals) if not vdot(h, x))


def _ray_table(op: BiadditiveOp) -> Optional[RayTable]:
    """:func:`_polyhedral_ray_table` of a vector carrier, built once and
    kept on the operation.  Every caller has decided a finite carrier
    (``order_is_total``) before it asks."""
    if "ray_table" not in op._cache:
        op._cache["ray_table"] = _polyhedral_ray_table(op)
    return op._cache["ray_table"]


def _closed_table(op: BiadditiveOp) -> RayTable:
    """The ray table of a vector carrier, which the bulk verdicts need: an
    operation that is not closed on C is refused with a product outside."""
    table = _ray_table(op)
    if table is None:
        # a product of two generators leaves C, so validate lists a
        # product outside the carrier
        op.carrier.check_element(tuple(op.validate()[0][-1]))
        raise InternalCheckError("ray table declined an operation closed on the carrier")
    return table


def _lifted(m, rays, r) -> list:
    """For each open normal that vanishes on r, the first of ``rays``
    positive on it: r plus their sum is a member."""
    return list(dict.fromkeys(next(g for g in rays if vdot(n, g) > 0)
                              for n in m.open_normals if not vdot(n, r)))


def _polyhedral_ray_table(op: BiadditiveOp) -> Optional[RayTable]:
    """The ray-product table of the operation, the one structural
    decision of localizability on a vector carrier; None when the
    operation is not closed on the closed cone C.  A zero span and an
    excluded face that is all of C are refused first.

    *Zero sets.*  ``Z(x)`` is the set of normals of ``cone.h_rep`` that
    vanish on x.  The smallest face of C holding x is ``F(x) = {y in C :
    Z(y) ⊇ Z(x)}``; the lineality space ``L = C ∩ -C`` is the face where
    all vanish.  A face is generated by the generators in it (Schrijver,
    *Theory of Linear and Integer Programming*, ch. 8), so L by the rays
    of ``m.rays`` in it, and each extreme ray of the pointed ``C/L`` by the
    rays off L whose zero set is maximal among theirs.  The table keeps the
    first ray ``r_i`` of each such zero set.  All of ``m.rays`` generate C,
    so the operation is closed on C iff every product in
    ``op.ray_products`` lies in C.  Row j of ray i holds j and each k with
    ``r_k`` in ``F(mu(r_i, r_j))``: ray i is *left-bad* if some row has two
    entries, that is, some ``mu(r_i, r_j)`` is not ``c r_j + l`` with
    ``c >= 0``, l in L; *right-bad* alike with ``mu(r_j, r_i)``.

    *The damped map.*  On the span V of the rays ``L_s(x) = x + mu(s,
    x)``, and s is left localizable iff ``L_s^-1(C) ⊆ C`` and, where C
    has excluded faces, ``L_s`` is injective on V.  Only if: a ray x of
    the preimage outside C refutes by the pair over it, its image in C
    (perturbed, when the image lies on an excluded face, until it lies
    strictly inside); a nonzero x that ``L_s`` kills refutes too, as x and
    -x cannot both lie strictly inside, and the pair over the one outside
    compares equal after damping.  If: closure gives ``mu(C, C) ⊆ C``, so
    ``L_s(C) ⊆ C`` and ``L_s^-1(C) = C``.  With open normals ``L_s`` is
    injective, so ``L_s(C) = C`` and ``L_s`` maps faces onto faces.  For a
    face F and an x in its relative interior, ``L_s(x) = x + mu(s, x)``
    lies in the face ``L_s(F)`` and ``mu(s, x)`` in C, so x lies in that
    face too: ``F ⊆ L_s(F)``, and as the dimensions are equal, ``L_s(F) =
    F``.  So no direction of an excluded face maps strictly inside.

    **Lemma.**  s is left localizable iff no left-bad ray lies in F(s)
    and, where C has excluded faces and ``L != 0``, ``L_s`` is injective on
    L.  (The right side is the opposite operation's left side.)

    *Proof.*  Closure puts ``±mu(s, l)`` in C, so ``L_s`` keeps L and
    induces M on ``V/L``; as C is the preimage of ``C/L``, ``L_s^-1(C) ⊆
    C`` iff ``M^-1(C/L) ⊆ C/L``.  Only if: a localizable s has that
    preimage in C, so M is injective (a kernel vector and its negative
    would both lie in the pointed ``C/L``) and, with ``M(C/L) ⊆ C/L``,
    permutes the extreme rays.  Write ``s = l + sum_i s_i r_i``, ``s_i >
    0`` exactly on the rays of F(s), in whose relative interior s lies.
    ``M(r_j) = r_j + sum_i s_i mu(r_i, r_j)`` lies on one extreme ray, a
    face, so each summand does, and ``r_j`` makes it ``r_j``'s own: no ray
    of F(s) is bad.  With excluded faces a killed direction refutes.  If:
    M scales each ``r_j`` by ``1 + sum_i s_i c_ij >= 1``, so ``L_s^-1(C) =
    C``, which is localizability without excluded faces; with them, and
    with ``L_s`` injective on L, ``L_s`` is injective on V (M is) and so
    maps each face of C onto itself.  ∎

    **Verdicts.**  A bad ray ``r_i`` refutes the member e, ``r_i`` plus
    :func:`_lifted` of it: every s above e has ``s - e`` in C, so ``Z(s) ⊆
    Z(e) ⊆ Z(r_i)`` and ``r_i`` lies in F(s).  With no bad ray and no
    excluded face or ``L = 0`` (``decisive``) every element is localizable,
    its own weak dominator.  Otherwise weak still holds: the determinant
    of ``L_s`` on L is a polynomial in s, 1 at 0, so nonzero at some member
    above any element.  For strong, on a line ``L = Q u`` closure gives
    ``mu(x, u) = α(x) u`` with α linear, and ``L_s(u) = (1 + α(s)) u``;
    members are ``t u`` plus nonnegative ray sums, so none has ``α(s) =
    -1`` iff ``α(u) = 0`` and every ``α(r_i) >= 0`` (the right side with
    ``mu(u, x)``).  A larger L is left "unknown".
    """
    m = op.carrier
    m.interior_point()
    normals = m.cone.h_rep
    full = (1 << len(normals)) - 1
    firsts = {}  # zero set -> its first ray
    for g in m.rays:
        firsts.setdefault(_zero_set(normals, g), g)
    # the first ray in L, where every normal vanishes; an open cone's rays
    # are nonzero, so there it is None iff L = 0
    in_lineality = firsts.pop(full, None)
    # a dict keeps the order of insertion, so the rays are in m.rays order
    zero_sets = [z for z in firsts if not any(z | y == y != z for y in firsts)]
    rays = [firsts[z] for z in zero_sets]
    # the rays of m.rays generate C, so the operation is closed on C iff
    # no normal is negative on a product of op.ray_products; the signs and
    # the zero sets are taken in one pass, faces[r, s] = Z(mu(r, s))
    faces = {}
    for pair, p in op.ray_products.items():
        z = 0
        for k, h in enumerate(normals):
            v = vdot(h, p)
            if v < 0:
                return None
            if not v:
                z |= 1 << k
        faces[pair] = z
    # row j has one entry iff the product lies in L or on r_j's own face:
    # else its face holds another extreme ray.  The obstruction is the
    # first row with two entries of the first bad ray, the left side first
    bad, obstruction, weights = ([], []), None, []
    for i, r in enumerate(rays):
        h = next(h for h in normals if vdot(h, r))
        weights.append(Fraction(vdot(h, op.ray_products[r, r]), vdot(h, r)))
        for indices, side in zip(bad, ("left", "right")):
            row = [faces[(r, s) if side == "left" else (s, r)] for s in rays]
            j = next((j for j, z in enumerate(row) if z not in (full, zero_sets[j])), None)
            if j is None:
                continue
            indices.append(i)
            if obstruction is None:
                columns = sorted({j}.union(
                    k for k, zk in enumerate(zero_sets) if row[j] | zk == zk))
                e = reduce(vadd, _lifted(m, rays, r), r)
                obstruction = {"element": list(e), "side": side,
                               "row": j, "positive_columns": columns}
    decisive = not (m.open_normals and in_lineality is not None)
    return RayTable(rays, zero_sets, weights, bad, obstruction, decisive)


# ---------------------------------------------------------------------------
# full localizability and the bulk notions


def is_localizable(op: BiadditiveOp, s) -> LocalizabilityVerdict:
    """Localizability of s: both sides, the left first; a "no" gives the
    failing side's reason and, on read, its evidence."""
    op.carrier.check_element(s)
    for side, condition in (("left", "left"), ("right", "opposite")):
        one = _left(op, s, side)
        if one.verdict == "no":
            return LocalizabilityVerdict(
                s, "full", "no", f"{condition} condition fails: {one.reason}", one.evidence)
    return LocalizabilityVerdict(s, "full", "yes", "both sides localizable")


def is_weakly_localizable(op: BiadditiveOp) -> WeakLocalizabilityCertificate:
    """Yes on finite carriers, each element below 0.  On vector ones read
    off the ray table (see :func:`_polyhedral_ray_table`): the first bad ray
    refutes, and otherwise each of ``m.member_rays`` is its own
    localizable dominator (with excluded faces and a lineality space, each
    one that :func:`is_localizable` accepts)."""
    m = op.carrier
    if m.order_is_total:
        # the order is total and every element localizable, so each
        # element settles on the first candidate, 0, decided once
        localizable = cache(lambda s: is_localizable(op, s).verdict == "yes")
        assignments = {a: next(s for s in m.elements() if leq(m, a, s) and localizable(s))
                       for a in m.elements()}
        return WeakLocalizabilityCertificate(
            "yes", assignments=assignments, reason=FINITE_ORDER_IS_TOTAL)
    table = _closed_table(op)
    if table.obstruction is not None:
        # the first bad ray, made a member: nothing above it is localizable
        return WeakLocalizabilityCertificate(
            "no", refuted=tuple(table.obstruction["element"]),
            reason="every element above the refuted one has a damping "
                   "row with two positive entries, so none is localizable",
            details={"obstruction": table.obstruction})
    queries = m.member_rays
    if not table.decisive:
        queries = [a for a in queries if is_localizable(op, a).verdict == "yes"]
    return WeakLocalizabilityCertificate(
        "yes", assignments={tuple(a): tuple(a) for a in queries},
        reason="localizable dominator found for every queried element")


def _line_refutation(op: BiadditiveOp, table: RayTable) -> Optional[tuple]:
    """A member s whose damping map on one side kills the lineality line
    ``Q u`` of a carrier with excluded faces, None when no member has one
    (the rule of :func:`_polyhedral_ray_table`)."""
    m = op.carrier
    u = vcombine(m.lineality_coordinates()[0], m.span_basis)
    k = next(k for k, v in enumerate(u) if v)
    for side in ("left", "right"):
        def alpha(x):
            return Fraction(_product(op, x, u, side)[k], u[k])
        if alpha(u):
            p = m.interior_point()
            return vadd(p, vscale(-(1 + alpha(p)) / alpha(u), u))
        for r in table.rays:
            if alpha(r) < 0:
                w = reduce(vadd, _lifted(m, table.rays, r), (0,) * m.dim)
                x = vadd(vscale(max(1, alpha(w) // -alpha(r) + 1), r), w)
                return vscale(1 / -alpha(x), x)
    return None


def is_strongly_localizable(op: BiadditiveOp) -> dict:
    """Yes on finite carriers, by theorem.  On vector ones read off the ray
    table (see :func:`_polyhedral_ray_table`): the first bad ray's refuted
    element is refuted, and with no bad ray the answer is a structural
    yes, unless excluded faces and a lineality space ask for injectivity
    on it: decided on a line, "unknown" on a larger space."""
    m = op.carrier
    if m.order_is_total:
        # every element is localizable
        return {"verdict": "yes", "confirmed": "theorem", "reason": FINITE_ORDER_IS_TOTAL}
    table = _closed_table(op)
    reason = ("ray lemma: every product of two extreme rays is, modulo the "
              "lineality space, a nonnegative multiple of each factor, so every "
              "damping map scales each extreme ray by a factor of at least 1")
    s = None if table.obstruction is None else tuple(table.obstruction["element"])
    if s is None and not table.decisive:
        if len(m.lineality_coordinates()) > 1:
            return {"verdict": "unknown",
                    "reason": "with excluded faces, injectivity of the damping maps "
                              "on a lineality space of dimension at least 2 is "
                              "not decided"}
        s = _line_refutation(op, table)
        reason += ", and the lineality line too"
    if s is None:
        return {"verdict": "yes", "confirmed": "structural", "reason": reason,
                "rays": table.rays, "weights": table.weights}
    v = is_localizable(op, s)
    if v.verdict != "no":
        raise InternalCheckError("ray-product table refuted an element that it calls localizable")
    return {"verdict": "no", "confirmed": "witnessed",
            "refuted_element": _ser(s), "witness": v.as_dict()["witness"]}


# ---------------------------------------------------------------------------
# order-unit fast path


def _order_unit_multiple(cone: RationalCone, e, g) -> Optional[int]:
    """Least k >= 1 with k*e - g in the cone, decided exactly; e lies in
    the cone, so every normal is >= 0 on it."""
    k = 1
    for h in cone.h_rep:
        he = vdot(h, e)
        hg = vdot(h, g)
        if he > 0:
            k = max(k, -(-hg // he))
        elif hg > 0:
            return None
    return k


def order_unit_fast_path(op: BiadditiveOp, e) -> WeakLocalizabilityCertificate:
    """Weak-localizability certificate through multiples of a unit.

    Demands that e is a two-sided unit for the operation and an order
    unit of the level-1 reduction, and that the reduction's positivity
    is a closed polyhedral cone (hence unperforated with damped limits
    adding nothing).  On refusal :func:`is_weakly_localizable` answers
    instead, with the refusal reasons attached.  Once e is a two-sided
    unit, every damping map of ``k*e`` is ``(1 + k)*id``, so each unit
    multiple is localizable, and a "no" raises
    :class:`InternalCheckError`.

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
    if m.order_is_total:
        # the order relates every pair, so e itself dominates; the
        # reduction is the one-element group
        generating = m.elements()
        dominators = {a: e for a in generating}
    else:
        generating = m.rays
        for g in m.rays:
            k = _order_unit_multiple(m.cone, e, g)
            if k is None:
                refusals.append(
                    f"not an order unit: no multiple dominates {tuple(g)}")
                break
            dominators[tuple(g)] = vscale(k, tuple(e))
    if not all(op.mu(e, a) == a and op.mu(a, e) == a for a in map(m.element_key, generating)):
        refusals.insert(0, "not a two-sided unit for the operation")

    if refusals:
        cert = is_weakly_localizable(op)
        cert.method = "search-after-refusal"
        cert.details = dict(cert.details, refusal_reasons=refusals)
        return cert
    assignments = {}
    localizable = cache(lambda s: is_localizable(op, s).verdict == "yes")
    for a, s in dominators.items():
        if not localizable(s):
            raise InternalCheckError(f"unit multiple {_ser(s)} of a two-sided unit "
                                     "is not localizable")
        if not leq(m, a, s):
            raise InternalCheckError("order-unit multiple does not dominate")
        assignments[a] = s
    return WeakLocalizabilityCertificate(
        "yes", assignments=assignments, method="order-unit",
        reason="unit multiples dominate and are localizable",
        details={"hypotheses": "two-sided unit; order unit of the level-1 "
                               "reduction; closed polyhedral positivity"})

