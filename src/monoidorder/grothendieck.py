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
monoid, and level-2 equality recovers its canonical equivalence.  Biadditive
operations descend to both reductions, with well-definedness asserted
rather than assumed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .exactmath import (
    InputError,
    InternalCheckError,
    RationalCone,
    is_zero_vector,
    primitive,
    rational_solve,
    smith_normal_form,
    vadd,
    vdot,
    vscale,
    vsub,
)
from .monoids import (
    BiadditiveOp,
    FiniteMonoid,
    LatticeMonoid,
    VectorCarrier,
)


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


class FiniteAbelianGroup:
    """Finite abelian group given by its addition table, identity 0."""

    def __init__(self, table: Sequence[Sequence[int]]):
        self.n = len(table)
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        for i in range(self.n):
            if len(self.table[i]) != self.n:
                raise InputError("group table is not square")
            if self.table[0][i] != i:
                raise InputError("element 0 is not the identity")
            for j in range(i + 1):
                if self.table[i][j] != self.table[j][i]:
                    raise InputError("group table is not commutative")
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise InputError("group table is not associative")
        self._neg = [None] * self.n
        for i in range(self.n):
            for j in range(self.n):
                if self.table[i][j] == 0:
                    self._neg[i] = j
                    break
            if self._neg[i] is None:
                raise InputError(f"element {i} has no inverse")

    def elements(self) -> range:
        return range(self.n)

    def add(self, a: int, b: int) -> int:
        return self.table[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.table[a][self._neg[b]]

    def scale(self, k: int, a: int) -> int:
        if k < 0:
            return self.scale(-k, self._neg[a])
        out = 0
        for _ in range(k):
            out = self.table[out][a]
        return out

    def order_of(self, a: int) -> int:
        x = a
        k = 1
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    @property
    def exponent(self) -> int:
        e = 1
        for a in range(self.n):
            e = _lcm(e, self.order_of(a))
        return e

    def subgroup(self, gens: Sequence[int]) -> frozenset:
        out = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                for y in (self.table[x][g], self.table[x][self._neg[g]]):
                    if y not in out:
                        out.add(y)
                        frontier.append(y)
        return frozenset(out)

    def quotient(self, sub: frozenset) -> tuple["FiniteAbelianGroup", list[int]]:
        """Quotient group and the projection map element -> class index."""
        for s in sub:
            if self._neg[s] not in sub:
                raise InputError("subgroup not closed under negation")
            for t in sub:
                if self.table[s][t] not in sub:
                    raise InputError("subgroup not closed under addition")
        if 0 not in sub:
            raise InputError("subgroup must contain 0")
        coset_of = [None] * self.n
        reps: list[int] = []
        for x in range(self.n):
            if coset_of[x] is not None:
                continue
            idx = len(reps)
            reps.append(x)
            for s in sub:
                coset_of[self.table[x][s]] = idx
        table = [[coset_of[self.table[reps[i]][reps[j]]] for j in range(len(reps))]
                 for i in range(len(reps))]
        return FiniteAbelianGroup(table), coset_of

    def invariant_factors(self) -> list[int]:
        """Cyclic decomposition orders d_1 | d_2 | ... with product |G|."""
        if self.n == 1:
            return []
        best = max(self.elements(), key=lambda a: (self.order_of(a), -a))
        d = self.order_of(best)
        q, _ = self.quotient(self.subgroup([best]))
        factors = q.invariant_factors() + [d]
        for i in range(len(factors) - 1):
            if factors[i + 1] % factors[i] != 0:
                raise InternalCheckError("invariant factor chain broken")
        return factors


def stable_equality(m: FiniteMonoid) -> list[list[bool]]:
    """x, y identified after adding some common t: exists t, x+t == y+t."""
    if "stable_eq" in m._cache:
        return m._cache["stable_eq"]
    eq = [[False] * m.n for _ in range(m.n)]
    for x in range(m.n):
        for y in range(m.n):
            eq[x][y] = any(m.table[x][t] == m.table[y][t] for t in range(m.n))
    m._cache["stable_eq"] = eq
    return eq


class FiniteGrothGroup:
    """Difference group of a finite monoid as explicit pair classes."""

    kind = "finite"

    def __init__(self, monoid: FiniteMonoid):
        self.monoid = monoid
        eq = stable_equality(monoid)
        n = monoid.n
        pair_class: dict[tuple[int, int], int] = {}
        reps: list[tuple[int, int]] = []
        for a in range(n):
            for b in range(n):
                found = None
                for idx, (c, d) in enumerate(reps):
                    if eq[monoid.add(a, d)][monoid.add(c, b)]:
                        found = idx
                        break
                if found is None:
                    found = len(reps)
                    reps.append((a, b))
                pair_class[(a, b)] = found
        self.reps = reps
        self._pair_class = pair_class
        if len(reps) > n:
            raise InternalCheckError("difference group larger than the monoid")
        table = []
        for (a, b) in reps:
            row = []
            for (c, d) in reps:
                row.append(pair_class[(monoid.add(a, c), monoid.add(b, d))])
            table.append(row)
        zero = pair_class[(0, 0)]
        if zero != 0:
            raise InternalCheckError("class of (0,0) is not the first class")
        self.group = FiniteAbelianGroup(table)
        self.iota = [pair_class[(a, 0)] for a in range(n)]
        for a in range(n):
            for b in range(n):
                if self.group.add(self.iota[a], self.iota[b]) != self.iota[monoid.add(a, b)]:
                    raise InternalCheckError("monoid embedding is not additive")
        for idx, (a, b) in enumerate(reps):
            if self.group.sub(self.iota[a], self.iota[b]) != idx:
                raise InternalCheckError("pair class is not the difference of embeddings")
        if self.group.subgroup(sorted(set(self.iota))) != frozenset(self.group.elements()):
            raise InternalCheckError("monoid image does not generate the group")

    def pair_class(self, a: int, b: int) -> int:
        return self._pair_class[(a, b)]


def grothendieck(m: FiniteMonoid) -> FiniteGrothGroup:
    """Difference group of a finite carrier, cached on the carrier.  (A
    vector carrier needs none: its ``span_basis`` spans the group its rays
    generate, and its ``coordinates`` are coordinates on it.)"""
    if "groth" not in m._cache:
        m._cache["groth"] = FiniteGrothGroup(m)
    return m._cache["groth"]


# ---------------------------------------------------------------------------
# closures of submonoids inside a finite abelian group


def up_closure(group: FiniteAbelianGroup, base) -> frozenset:
    """Saturation {x in G : some positive multiple of x lies in base}."""
    base = frozenset(base)
    e_exp = group.exponent
    result = set()
    for x in group.elements():
        y = 0
        for _ in range(e_exp):
            y = group.add(y, x)
            if y in base:
                result.add(x)
                break
    return frozenset(result)


def ddagger_closure(group: FiniteAbelianGroup, base) -> frozenset:
    """Damped-limit closure {x : some e has l*x + e in base for all l >= 1}.

    ``l*x + e`` is periodic in l with period dividing the exponent, so
    scalars up to ``exponent**2 + exponent`` cover every value it takes.
    """
    base = frozenset(base)
    e_exp = group.exponent
    bound = e_exp * e_exp + e_exp
    result = set()
    for x in group.elements():
        for e in group.elements():
            y = e
            good = True
            for _ in range(bound):
                y = group.add(y, x)
                if y not in base:
                    good = False
                    break
            if good:
                result.add(x)
                break
    return frozenset(result)


# ---------------------------------------------------------------------------
# reduced ordered groups


class ReducedFinite:
    """Reduction of a finite carrier: quotient group plus positivity set."""

    kind = "finite"

    def __init__(self, monoid: FiniteMonoid, level: int):
        if level not in (1, 2):
            raise InputError("level must be 1 or 2")
        self.monoid = monoid
        self.level = level
        gg = grothendieck(monoid)
        self.groth = gg
        pos = up_closure(gg.group, sorted(set(gg.iota)))
        if level == 2:
            pos = ddagger_closure(gg.group, pos)
        kernel = frozenset(x for x in pos if gg.group.neg(x) in pos)
        self.kernel_set = kernel
        self.group, self._proj = gg.group.quotient(kernel)
        self.positive_classes = frozenset(self._proj[x] for x in pos)
        self._iota = [self._proj[gg.iota[a]] for a in range(monoid.n)]

    def iota(self, a: int) -> int:
        return self._iota[a]

    def project(self, groth_element: int) -> int:
        return self._proj[groth_element]

    def eq(self, p: int, q: int) -> bool:
        return p == q

    def leq(self, p: int, q: int) -> bool:
        return self.group.sub(q, p) in self.positive_classes

    def describe(self) -> dict:
        return {
            "carrier": "finite",
            "level": self.level,
            "group_order": self.group.n,
            "invariant_factors": self.group.invariant_factors(),
            "positive_class_count": len(self.positive_classes),
            "kernel_size": len(self.kernel_set),
        }


class ReducedVector:
    """Reduction of a vector carrier in canonical quotient coordinates.

    Classes live in the difference group on ``span_basis`` coordinates
    (integer for a lattice, rational for a cone), modulo the order kernel:
    the group points of the closed cone's lineality space, or none at level
    1 when strict faces exist (they keep every nonzero direction of the
    lineality space out of the positive part).  The kernel is a direct
    summand (a saturated sublattice of a lattice, a subspace of a span), so
    a unimodular change of basis ``V`` (from the Smith form of the kernel
    coordinates) puts it on the leading coordinates; a class is the
    remaining coordinates, and reconstructs through the rows of ``V^-1``.
    The positive part is the level's closure of the carrier.
    """

    def __init__(self, monoid: VectorCarrier, level: int):
        if level not in (1, 2):
            raise InputError("level must be 1 or 2")
        self.monoid = monoid
        self.level = level
        self.kind = monoid.groth_kind
        basis = [list(row) for row in monoid.span_basis]
        r = len(basis)
        kernel_coords = [] if level == 1 and monoid.open_normals else \
            monoid.lineality_coordinates()
        k = len(kernel_coords)
        self.kernel_rank = k
        self.kernel_vectors = tuple(
            tuple(sum(c[i] * basis[i][j] for i in range(r)) for j in range(monoid.dim))
            for c in kernel_coords)
        if kernel_coords:
            _, _, v, vinv = smith_normal_form([list(c) for c in kernel_coords])
        else:
            v = vinv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        self._v = v
        self._basis = basis
        self._r = r
        self.rank = r - k
        # class w reconstructs through c = (0,...,0,w) V^{-1}; x = c B
        self._recon_rows = [
            tuple(sum(vinv[k + t][i] * basis[i][j] for i in range(r))
                  for j in range(monoid.dim))
            for t in range(self.rank)]

    def project(self, x) -> tuple:
        c = self.monoid.coordinates(x)
        if c is None:
            raise InputError(f"{tuple(x)!r} is not in the {self.monoid.difference_group}")
        w = tuple(sum(c[i] * self._v[i][j] for i in range(self._r)) for j in range(self._r))
        return w[self.kernel_rank:]

    def reconstruct(self, w) -> tuple:
        out = tuple(0 for _ in range(self.monoid.dim))
        for t, coeff in enumerate(w):
            out = vadd(out, vscale(coeff, self._recon_rows[t]))
        return out

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
        if self.kind == "lattice":  # pinned report keys
            images = [self.project(g) for g in self.monoid.generators]
            return {
                "carrier": "lattice",
                "level": self.level,
                "free_rank": self.rank,
                "invariant_factors": [],
                "kernel_rank": self.kernel_rank,
                "positive_rays": [list(r) for r in RationalCone.from_rays(images, self.rank).v_rep],
            }
        return {
            "carrier": "opencone",
            "level": self.level,
            "free_rank": self.rank,
            "kernel_rank": self.kernel_rank,
            "span_basis": [list(r) for r in self.monoid.span_basis],
        }


def nabla(m, level: int):
    """The level-1 or level-2 ordered reduction of a carrier, cached."""
    key = f"nabla{level}"
    if key not in m._cache:
        m._cache[key] = (ReducedFinite(m, level) if isinstance(m, FiniteMonoid)
                         else ReducedVector(m, level))
    return m._cache[key]


# ---------------------------------------------------------------------------
# descending biadditive operations


class LiftedOp:
    """A biadditive operation pushed down to a reduced group."""

    def __init__(self, op: BiadditiveOp, level: int):
        self.base = op
        self.level = level
        m = op.carrier
        self.reduced = nabla(m, level)
        self.report = {"level": level, "checks": []}
        if isinstance(m, FiniteMonoid):
            self._init_finite()
        else:
            self._init_vector()

    # -- finite ------------------------------------------------------------

    def _init_finite(self):
        red = self.reduced
        m = self.base.carrier
        gg = red.groth
        g = gg.group
        images: dict[tuple[int, int], int] = {}
        for (a, b) in itertools.product(m.elements(), m.elements()):
            for (c, d) in itertools.product(m.elements(), m.elements()):
                p = red.project(gg.pair_class(a, b))
                q = red.project(gg.pair_class(c, d))
                val = red.project(gg.pair_class(
                    m.add(self.base.mu(a, c), self.base.mu(b, d)),
                    m.add(self.base.mu(a, d), self.base.mu(b, c))))
                if (p, q) in images:
                    if images[(p, q)] != val:
                        raise InternalCheckError(
                            "descended operation disagrees on equivalent "
                            f"representatives at classes ({p}, {q})")
                else:
                    images[(p, q)] = val
        self._finite_table = images
        self.report["checks"].append(
            {"name": "representative-independence", "ok": True,
             "pairs_checked": m.n ** 4})
        bad = []
        for p in red.group.elements():
            for q in red.group.elements():
                for s in red.group.elements():
                    lhs = self._finite_table[(red.group.add(p, q), s)]
                    rhs = red.group.add(self._finite_table[(p, s)],
                                        self._finite_table[(q, s)])
                    if lhs != rhs:
                        bad.append(("left", p, q, s))
                    lhs2 = self._finite_table[(p, red.group.add(q, s))]
                    rhs2 = red.group.add(self._finite_table[(p, q)],
                                         self._finite_table[(p, s)])
                    if lhs2 != rhs2:
                        bad.append(("right", p, q, s))
        if bad:
            raise InternalCheckError(f"descended operation is not biadditive: {bad[:3]}")
        self.report["checks"].append({"name": "biadditivity", "ok": True})
        agree = all(
            self.mu(red.iota(a), red.iota(b)) == red.iota(self.base.mu(a, b))
            for a in m.elements() for b in m.elements())
        if not agree:
            raise InternalCheckError("descended operation disagrees with the base map")
        self.report["checks"].append({"name": "embedding-compatibility", "ok": True})

    # -- lattice / cone ------------------------------------------------------

    def _init_vector(self):
        red = self.reduced
        m = self.base.carrier
        kernels = list(red.kernel_vectors)
        span_vectors = [tuple(row) for row in red._basis]
        bad = []
        for kv in kernels:
            for sv in span_vectors:
                for prod in (self.base.mu(kv, sv), self.base.mu(sv, kv)):
                    if not _in_span(kernels, prod):
                        bad.append((list(kv), list(sv), list(prod)))
        if bad:
            raise InternalCheckError(
                f"operation does not preserve the order kernel: {bad[:3]}")
        self.report["checks"].append(
            {"name": "kernel-preservation", "ok": True,
             "pairs_checked": 2 * len(kernels) * len(span_vectors)})
        gens = m.rays
        agree = all(
            self.mu(red.iota(a), red.iota(b)) == red.project(self.base.mu(a, b))
            for a in gens for b in gens)
        if not agree:
            raise InternalCheckError("descended operation disagrees with the base map")
        self.report["checks"].append({"name": "embedding-compatibility", "ok": True})

    def mu(self, p, q):
        if isinstance(self.base.carrier, FiniteMonoid):
            return self._finite_table[(p, q)]
        x = self.reduced.reconstruct(p)
        y = self.reduced.reconstruct(q)
        return self.reduced.project(self.base.mu(x, y))


# ---------------------------------------------------------------------------
# the connecting morphism between the two reductions


class Pi12:
    """The canonical surjection from the level-1 to level-2 reduction."""

    def __init__(self, m):
        self.monoid = m
        self.red1 = nabla(m, 1)
        self.red2 = nabla(m, 2)
        self.report = {"checks": []}
        if isinstance(m, FiniteMonoid):
            self._init_finite()
        else:
            self._init_vector()

    def _init_finite(self):
        r1, r2 = self.red1, self.red2
        if not r1.kernel_set <= r2.kernel_set:
            raise InternalCheckError("level-1 kernel not inside level-2 kernel")
        gg = r1.groth
        mapping: dict[int, int] = {}
        for x in gg.group.elements():
            p = r1.project(x)
            q = r2.project(x)
            if p in mapping and mapping[p] != q:
                raise InternalCheckError("connecting morphism not well defined")
            mapping[p] = q
        self._map = mapping
        g1, g2 = r1.group, r2.group
        additive = all(
            mapping[g1.add(p, q)] == g2.add(mapping[p], mapping[q])
            for p in g1.elements() for q in g1.elements())
        if not additive:
            raise InternalCheckError("connecting morphism not additive")
        self.report["checks"].append({"name": "additivity", "ok": True})
        triangle = all(mapping[r1.iota(a)] == r2.iota(a) for a in self.monoid.elements())
        surjective = set(mapping.values()) == set(g2.elements())
        self.report["checks"].append({"name": "triangle", "ok": triangle})
        self.report["checks"].append({"name": "surjectivity", "ok": surjective})
        self.report["bijective"] = surjective and g1.n == g2.n
        if not (triangle and surjective):
            raise InternalCheckError("connecting morphism failed its checks")

    def _init_vector(self):
        r1, r2 = self.red1, self.red2
        k1 = set(tuple(v) for v in r1.kernel_vectors)
        for kv in k1:
            if not _in_span(r2.kernel_vectors, kv):
                raise InternalCheckError("level-1 kernel not inside level-2 kernel")
        m = self.monoid
        if isinstance(m, LatticeMonoid):
            samples = m.element_pool(2)
        else:
            samples = m.sample_elements(8) + [tuple(Fraction(0) for _ in range(m.dim))]
        triangle = all(
            r2.eq(self.map(r1.iota(a)), r2.iota(a)) for a in samples)
        self.report["checks"].append({"name": "triangle", "ok": triangle})
        additive = all(
            r2.eq(self.map(vadd(r1.iota(a), r1.iota(b))),
                  vadd(self.map(r1.iota(a)), self.map(r1.iota(b))))
            for a in samples[:6] for b in samples[:6])
        self.report["checks"].append({"name": "additivity", "ok": additive})
        rank_onto = r2.rank <= r1.rank
        self.report["checks"].append({"name": "rank-onto", "ok": rank_onto})
        self.report["bijective"] = (r1.rank == r2.rank
                                    and len(r1.kernel_vectors) == len(r2.kernel_vectors))
        if not (triangle and additive and rank_onto):
            raise InternalCheckError("connecting morphism failed its checks")

    def map(self, p):
        if isinstance(self.monoid, FiniteMonoid):
            return self._map[p]
        x = self.red1.reconstruct(p)
        return self.red2.project(x)


def _in_span(vectors, x) -> bool:
    if not any(Fraction(v) != 0 for v in x):
        return True
    if not vectors:
        return False
    return rational_solve([tuple(v) for v in vectors],
                          tuple(Fraction(v) for v in x)) is not None


def pi12(m) -> Pi12:
    if "pi12" not in m._cache:
        m._cache["pi12"] = Pi12(m)
    return m._cache["pi12"]
