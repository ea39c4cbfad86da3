"""Difference groups of commutative monoids and their ordered reductions.

The difference group of a commutative monoid M consists of classes of
formal differences: pairs (a, b) with (a, b) ~ (a', b') when
``a + b' + t == a' + b + t`` for some t.  Two successive reductions
produce partially ordered abelian groups:

* level 1 quotients by ``U ∩ -U`` where U is the scaling saturation
  ("up-closure") of the embedded monoid image: ``x ∈ U`` iff some
  positive multiple of x lands in the image;
* level 2 additionally applies the damped-limit closure
  ("dagger-closure"): ``x`` enters when some single e keeps ``l*x + e``
  in the set for every scalar l >= 1.

The embedded order of level 1 recovers the canonical quasi-order of the
monoid, and level-2 equality recovers its canonical equivalence.

A finite carrier needs no search.  Its minimal ideal K, with identity e,
is a group (see :attr:`monoids.FiniteMonoid.kernel`), and ``x + t == y + t``
for some t iff ``x + e == y + e``: take ``t = e`` one way, and add
``-(t + e)`` in K the other.  So the difference group is K, the class of
(a, b) being ``(a + e) - (b + e)``.  K is finite, so every class has a
positive multiple 0, which is in the image: both closures are all of K,
the order kernel is K, and both reductions are the one-element group.
"""

from __future__ import annotations

from operator import mul

from .core import (
    InputError,
    InternalCheckError,
    is_zero_vector,
    primitive,
    vadd,
    vcombine,
    vdot,
    vsub,
)
from .exactmath import IntegerLattice, IntegerSolver
from .monoids import FiniteMonoid, VectorCarrier


class FiniteGrothGroup:
    """Difference group of a finite monoid: its kernel group K.

    ``classes`` counts the classes, numbered by first appearance over
    (a, b) in lexicographic order; ``iota[a]`` is the class of (a, 0).  The
    row ``a = 0`` comes first and meets every class: ``0 - b`` is the
    inverse of ``b + e`` in K, which runs over ``K = e + M``.  So the row
    alone numbers the classes.
    """

    def __init__(self, monoid: FiniteMonoid):
        self.monoid = monoid
        number: dict[int, int] = {}
        for b in monoid.elements():
            number.setdefault(monoid.difference(0, b), len(number))
        self.classes = len(number)
        self.iota = [number[monoid.difference(a, 0)] for a in monoid.elements()]


def grothendieck(m: FiniteMonoid) -> FiniteGrothGroup:
    """Difference group of a finite carrier, cached on the carrier.  (A
    vector carrier needs none: its ``span_basis`` spans the group its rays
    generate, and its ``coordinates`` are coordinates on it.)"""
    if "groth" not in m._cache:
        m._cache["groth"] = FiniteGrothGroup(m)
    return m._cache["groth"]


# ---------------------------------------------------------------------------
# reduced ordered groups


class ReducedFinite:
    """Reduction of a finite carrier: the one-element group, of rank 0,
    whose class 0 reconstructs to the neutral element."""

    rank = 0
    zero = 0

    def __init__(self, monoid: FiniteMonoid, level: int):
        self.monoid = monoid
        self.level = level

    def project(self, x: int) -> int:
        return 0

    iota = project

    def reconstruct(self, p: int) -> int:
        return 0

    def eq(self, p: int, q: int) -> bool:
        return p == q

    def leq(self, p: int, q: int) -> bool:
        return True

    def describe(self) -> dict:
        return {
            "carrier": "finite",
            "level": self.level,
            "group_order": 1,
            "positive_class_count": 1,
            "kernel_size": grothendieck(self.monoid).classes,
        }

    def describe_group(self) -> dict:
        """The difference group this reduction quotients: the kernel group."""
        groth = grothendieck(self.monoid)
        return {"kind": "finite", "classes": groth.classes,
                "monoid_image_classes": sorted(set(groth.iota))}


class ReducedVector:
    """Reduction of a vector carrier in canonical quotient coordinates.

    Classes live in the difference group on ``span_basis`` coordinates
    (integer for a lattice, rational for a cone), modulo the order kernel:
    the group points of the closed cone's lineality space, or none at level
    1 when strict faces exist (they keep every nonzero direction of the
    lineality space out of the positive part).  The kernel is a direct
    summand (a saturated sublattice of a lattice, a subspace of a span), so
    a unimodular change of basis ``V`` puts it on the leading coordinates:
    with K the k kernel coordinate rows, the transform U of the Hermite
    form of ``[K^T | I]`` has ``U . K^T == [H; 0]``, so ``V = U^T`` gives
    ``K . V == [H^T | 0]``.  A class is the remaining coordinates, the
    relation rows of U times the coordinates, and reconstructs through the
    rows of ``V^-1``, the columns of the solver's ``inverse`` ``U^-1``; with
    no kernel (k = 0) V is the identity, and no solve runs.  The positive
    part is the level's closure of the carrier.
    """

    def __init__(self, monoid: VectorCarrier, level: int):
        self.monoid = monoid
        self.level = level
        basis = [list(row) for row in monoid.span_basis]
        r = len(basis)
        kernel_coords = [] if level == 1 and monoid.open_normals else \
            monoid.lineality_coordinates()
        k = len(kernel_coords)
        self.kernel_rank = k
        self.kernel_vectors = tuple(vcombine(c, basis) for c in kernel_coords)
        self.rank = r - k
        self.zero = (0,) * self.rank
        if not k:
            # no kernel, so V is the identity: a class is its coordinates,
            # and reconstructs through the basis rows
            self._relations = [tuple(int(i == j) for j in range(r)) for i in range(r)]
            self._recon_rows = [tuple(row) for row in basis]
        else:
            solver = IntegerSolver(k, ([c[i] for c in kernel_coords] for i in range(r)))
            self._relations = solver.relations
            inverse = solver.inverse
            # class w reconstructs through c = (0,...,0,w) V^{-1}; x = c B
            self._recon_rows = [
                tuple(sum(inverse[i][k + t] * basis[i][j] for i in range(r))
                      for j in range(monoid.dim))
                for t in range(self.rank)]

    def project(self, x) -> tuple:
        c = self.monoid.coordinates(x)
        if c is None:
            raise InputError(f"{tuple(x)!r} is not in the {self.monoid.difference_group}")
        return tuple(sum(map(mul, rel, c)) for rel in self._relations)

    def reconstruct(self, w) -> tuple:
        return vcombine(w, self._recon_rows) if self.rank else (0,) * self.monoid.dim

    def iota(self, a) -> tuple:
        return self.project(a)

    def eq(self, p, q) -> bool:
        return tuple(p) == tuple(q)

    def leq(self, p, q) -> bool:
        """``q - p`` in the level's closure of the carrier: at level 1 the
        saturation, which is the cone with its excluded faces kept excluded;
        at level 2 the damped-limit closure, which is the closed cone (the
        damped shift clears each strict inequality for every scalar)."""
        d = vsub(q, p)
        if self.level == 2:
            return self.closed_member(d)
        return self.monoid.boundary_status(self.reconstruct(d)) == "inside"

    def closed_member(self, classvec) -> bool:
        """Membership of a class in the closure of the positivity cone."""
        return self.monoid.cone.member(self.reconstruct(classvec))

    @property
    def ambient_forms(self) -> list[tuple[int, ...]]:
        """Primitive linear forms cutting out the closed positivity cone in
        class coordinates: the closed cone's facet normals read on the
        reconstruction rows."""
        rows = []
        for h in self.monoid.cone.h_rep:
            row = tuple(vdot(h, self._recon_rows[t]) for t in range(self.rank))
            if not is_zero_vector(row):
                rows.append(primitive(row))
        return sorted(set(rows))

    def describe(self) -> dict:
        return {"level": self.level, "free_rank": self.rank, "kernel_rank": self.kernel_rank,
                **self.monoid.reduction_keys(self)}

    def describe_group(self) -> dict:
        """The difference group this reduction quotients, on its basis."""
        m = self.monoid
        return {"kind": m.groth_kind, "dim": m.dim,
                m.basis_key: [list(b) for b in m.span_basis]}


def nabla(m, level: int):
    """The level-1 or level-2 ordered reduction of a carrier, cached."""
    key = f"nabla{level}"
    if key not in m._cache:
        if level not in (1, 2):
            raise InputError("level must be 1 or 2")
        m._cache[key] = (ReducedFinite if m.order_is_total else ReducedVector)(m, level)
    return m._cache[key]


# ---------------------------------------------------------------------------
# the connecting morphism between the two reductions


class Pi12:
    """The canonical surjection from the level-1 to level-2 reduction.

    On a vector carrier ``map`` is ``red2.project`` after
    ``red1.reconstruct``, and each reduction's ``iota`` is its ``project``:
    coordinates in ``span_basis`` times a fixed matrix, so all of them are
    linear.  So both sides of the triangle ``map(iota1(a)) == iota2(a)``
    are group homomorphisms on the difference group, and they agree on it
    iff they agree on a basis of it: the triangle is checked on the
    ``span_basis`` vectors, which proves it on every element.  Additivity
    of ``map`` is kept as a self-check of that linearity, on the pairs of
    level-1 unit classes.
    """

    def __init__(self, m):
        self.monoid = m
        self.red1 = nabla(m, 1)
        self.red2 = nabla(m, 2)
        self.report = {"checks": []}
        if m.order_is_total:
            # both reductions are the one-element group
            self.report["checks"] = [{"name": name, "ok": True}
                                     for name in ("additivity", "triangle", "surjectivity")]
            self.report["bijective"] = True
            return
        r1, r2 = self.red1, self.red2
        k1 = set(tuple(v) for v in r1.kernel_vectors)
        for kv in k1:
            if not _in_span(r2.kernel_vectors, kv):
                raise InternalCheckError("level-1 kernel not inside level-2 kernel")
        triangle = all(
            r2.eq(self.map(r1.iota(a)), r2.iota(a)) for a in self.monoid.span_basis)
        self.report["checks"].append({"name": "triangle", "ok": triangle})
        units = [tuple(int(i == j) for j in range(r1.rank)) for i in range(r1.rank)]
        images = [self.map(u) for u in units]
        additive = all(
            r2.eq(self.map(vadd(units[i], units[j])), vadd(images[i], images[j]))
            for i in range(r1.rank) for j in range(r1.rank))
        self.report["checks"].append({"name": "additivity", "ok": additive})
        rank_onto = r2.rank <= r1.rank
        self.report["checks"].append({"name": "rank-onto", "ok": rank_onto})
        self.report["bijective"] = (r1.rank == r2.rank
                                    and len(r1.kernel_vectors) == len(r2.kernel_vectors))
        if not (triangle and additive and rank_onto):
            raise InternalCheckError("connecting morphism failed its checks")

    def map(self, p):
        x = self.red1.reconstruct(p)
        return self.red2.project(x)


def _in_span(vectors, x) -> bool:
    return IntegerLattice(len(x), vectors).rational_coordinates(x) is not None


def pi12(m) -> Pi12:
    if "pi12" not in m._cache:
        m._cache["pi12"] = Pi12(m)
    return m._cache["pi12"]
