"""Commutative monoid carriers, the canonical quasi-order, and biadditive maps.

Two carrier representations are supported:

* :class:`FiniteMonoid` -- explicit Cayley table on ``{0, ..., n-1}`` with
  neutral element 0;
* :class:`VectorCarrier` -- a submonoid of ``Q^d`` whose order is read from
  a closed rational cone.  It has two membership oracles:
  :class:`LatticeMonoid` (all finite sums of a generator list inside
  ``Z^d``) and :class:`OpenConeMonoid` (a rational polyhedral cone with
  some facets excluded by strict inequalities, plus the origin).

The canonical quasi-order ``a <~ b`` holds when ``k*a + c + t == k*b + t``
for some monoid elements c, t and some positive integer k.  The associated
equivalence ``a ~~ b`` holds when there is a single d with
``l*a <~ l*b + d`` and ``l*b <~ l*a + d`` for every positive integer l.
On a finite carrier both relate every pair.  With z the sum of all
elements, the minimal ideal ``K = z + M`` is a group (Clifford & Preston,
*The Algebraic Theory of Semigroups* I, 1961, section 1.9); its identity
e is the idempotent among the multiples of z, and ``K = e + M``.  So
``k = 1``, ``t = e`` and ``c = (b + e) - (a + e)`` in K certify ``a <~ b``
for every pair, and ``d = 0`` certifies ``a ~~ b``: the order is total and
has one equivalence class (see :attr:`FiniteMonoid.kernel`).  A vector
carrier decides both from the facet normals of its closed cone.
Membership of a vector in a lattice monoid is decided exactly, with no
coefficient bound (see :meth:`LatticeMonoid.contains`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .exactmath import (
    CombinationSearch,
    InputError,
    InternalCheckError,
    IntegerLattice,
    IntegerSolver,
    RationalCone,
    ResourceBudgetError,
    as_int_vector,
    integer_kernel,
    is_zero_vector,
    vadd,
    vdot,
    vscale,
    vsub,
)

# the reason of every verdict that holds on a finite carrier by theorem
FINITE_ORDER_IS_TOTAL = "the canonical order of a finite carrier is total"


class FiniteMonoid:
    """Commutative monoid on ``{0, .., n-1}`` given by its addition table.

    Element 0 is the neutral element.  Commutativity and the neutral law
    are checked exhaustively at construction, and associativity by Light's
    test on the generators: the elements a with ``(x + a) + y == x + (a + y)``
    for all x, y form a set closed under ``+`` (for two such a, b,
    ``(x + (a + b)) + y == ((x + a) + b) + y == (x + a) + (b + y) ==
    x + (a + (b + y)) == x + ((a + b) + y)``).  It holds 0, which is
    neutral, and every element is a sum ``((g1 + g2) + ...) + gk`` of
    generators (see :meth:`generators`), so the table is associative iff
    every generator is in it: n^2 checks per generator, not n^3 in all.
    """

    def __init__(self, table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None):
        self.n = len(table)
        if self.n == 0:
            raise InputError("finite carrier needs at least one element")
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        for row in self.table:
            if len(row) != self.n:
                raise InputError("addition table is not square")
            for x in row:
                if not 0 <= x < self.n:
                    raise InputError("addition table entry out of range")
        for i in range(self.n):
            if self.table[0][i] != i:
                raise InputError("element 0 is not neutral")
            for j in range(i + 1):
                if self.table[i][j] != self.table[j][i]:
                    raise InputError("addition table is not commutative")
        self._cache: dict = {}
        t = self.table
        for a in self.generators():
            ta = t[a]
            for tx in t:
                # the row of x + a against x + (a + y) for every y
                if t[tx[a]] != tuple([tx[v] for v in ta]):
                    raise InputError("addition table is not associative")
        self.names = tuple(names) if names is not None else None

    def add(self, a: int, b: int) -> int:
        return self.table[a][b]

    def elements(self) -> range:
        return range(self.n)

    def sum_elements(self, items: Iterable[int]) -> int:
        out = 0
        for x in items:
            out = self.table[out][x]
        return out

    def generators(self) -> list[int]:
        """The elements, in increasing order, that sums of the earlier ones
        miss.  Every element is a sum ``((g1 + g2) + ...) + gk`` of them."""
        if "generators" in self._cache:
            return self._cache["generators"]
        gens: list[int] = []
        known = {0}
        for x in range(1, self.n):
            if x in known:
                continue
            gens.append(x)
            frontier = list(known)
            while frontier:
                y = frontier.pop()
                for g in gens:
                    z = self.table[y][g]
                    if z not in known:
                        known.add(z)
                        frontier.append(z)
        self._cache["generators"] = gens
        return gens

    def expressions(self) -> dict[int, tuple[int, ...]]:
        """One fixed expression of every element as a sum of generators."""
        if "expressions" in self._cache:
            return self._cache["expressions"]
        gens = self.generators()
        expr: dict[int, tuple[int, ...]] = {0: ()}
        frontier = [0]
        while frontier:
            x = frontier.pop(0)
            for g in gens:
                y = self.table[x][g]
                if y not in expr:
                    expr[y] = expr[x] + (g,)
                    frontier.append(y)
        if len(expr) != self.n:
            raise InternalCheckError("generator closure missed elements")
        self._cache["expressions"] = expr
        return expr

    # -- canonical quasi-order, decided by the kernel group ----------------

    @property
    def kernel(self) -> tuple[int, dict[int, int]]:
        """The minimal ideal K of the carrier as ``(e, neg)``: its identity
        e and the inverse ``neg[y]`` of each member y of K, built once.

        K is ``z + M`` with z the sum of all elements, and is a group.  The
        multiples of z stay in K, so they reach its identity, the only
        idempotent of a group; and ``K = e + M``, as ``z = z + e``.
        """
        if "kernel" not in self._cache:
            z = self.sum_elements(self.elements())
            e = z
            while self.table[e][e] != e:
                e = self.table[e][z]
            members = sorted(set(self.table[e]))
            neg = {}
            for y in members:
                neg[y] = next((x for x in members if self.table[y][x] == e), None)
                if neg[y] is None:
                    raise InternalCheckError("minimal ideal is not a group")
            self._cache["kernel"] = (e, neg)
        return self._cache["kernel"]

    def difference(self, a: int, b: int) -> int:
        """``(a + e) - (b + e)`` in the kernel group K."""
        e, neg = self.kernel
        return self.table[self.table[a][e]][neg[self.table[b][e]]]

    def check_element(self, x) -> None:
        if not isinstance(x, int) or not 0 <= x < self.n:
            raise InputError(f"element {x!r} not an index in 0..{self.n - 1}")

    def leq(self, a: int, b: int) -> bool:
        """True: ``k = 1``, ``t = e`` and ``c = (b + e) - (a + e)`` give
        ``a + c + e == b + e``, re-checked here."""
        self.check_element(a)
        self.check_element(b)
        e, _ = self.kernel
        c = self.difference(b, a)
        if self.table[self.table[a][c]][e] != self.table[b][e]:
            raise InternalCheckError("order certificate failed re-substitution")
        return True

    def approx(self, a: int, b: int) -> bool:
        """True: the order is total, so ``d = 0`` works for every scalar."""
        self.check_element(a)
        self.check_element(b)
        return True

    def class_key(self, x: int) -> int:
        """0: ``approx`` relates every pair, so there is one class."""
        return 0


class VectorCarrier:
    """A submonoid of ``Q^d`` whose canonical order is read from a closed cone.

    ``cone`` is the closed rational cone spanned by ``rays`` (the
    generators of a lattice monoid, the ``v_rep`` of an open cone);
    ``open_normals`` are the facet normals excluded from the monoid, none
    for a lattice monoid.  ``span_basis`` is the Hermite basis of the group
    the rays generate: the difference group, in which a subclass supplies
    its own ``coordinates`` (integer for a lattice, rational for a cone)
    beside its membership oracle ``contains``.

    Closed rational cones absorb every damping element, so the order and
    its equivalence need no search: ``a <~ b`` when ``b - a`` lies in the
    cone with the excluded faces removed (or is zero), and ``a ~~ b`` when
    ``b - a`` lies in the lineality space of the cone.

    The class attributes that differ between the subclasses are report
    text: ``groth_kind`` names the carrier's difference group,
    ``basis_key`` the report key of its basis, ``difference_group``
    what an element outside it is outside of, ``nonmember_text`` why an
    element is refused, ``origin_only_text`` why a carrier whose rays are
    all zero is, ``budget_text`` what a candidate budget counts, and
    ``scalar`` what a coordinate is ("integer" or "rational").
    """

    scalar: str
    groth_kind: str
    basis_key: str
    difference_group: str
    nonmember_text: str
    origin_only_text: str
    budget_text: str
    open_normals: tuple = ()

    @property
    def closed_normals(self) -> tuple:
        if "closed_normals" not in self._cache:
            self._cache["closed_normals"] = tuple(
                n for n in self.cone.h_rep if n not in self.open_normals)
        return self._cache["closed_normals"]

    @property
    def lattice(self) -> IntegerLattice:
        """The integer lattice the rays generate, built once: the difference
        group of a lattice monoid, and a Hermite basis of the span of a cone."""
        if "lattice" not in self._cache:
            self._cache["lattice"] = IntegerLattice(self.dim, self.rays)
        return self._cache["lattice"]

    @property
    def span_basis(self) -> tuple:
        return tuple(self.lattice.basis)

    def boundary_status(self, x: Sequence) -> str:
        """``inside`` the monoid's cone, ``outside`` it, or ``on_excluded_face``."""
        if len(x) != self.dim:
            raise InputError("element dimension mismatch")
        if all(v == 0 for v in x):
            return "inside"
        for n in self.closed_normals:
            if vdot(n, x) < 0:
                return "outside"
        strict = True
        for n in self.open_normals:
            s = vdot(n, x)
            if s < 0:
                return "outside"
            if s == 0:
                strict = False
        return "inside" if strict else "on_excluded_face"

    @property
    def span_cone(self) -> tuple[list, list, list, list]:
        """The closed cone read on the span, built once, as ``(pivots,
        off_span, generators, normals)``: the pivot column of each
        ``span_basis`` row (the entries there fix a vector of the span),
        integer vectors whose zero set is the span, the pivot entries of
        each vector of ``cone.v_rep`` (a generating set: rays, lineality in
        both signs), and the values ``(h . b_j)_j`` of each facet normal h
        on the basis rows, leaving out the implicit equalities, which
        vanish on the span."""
        if "span_cone" not in self._cache:
            basis = self.span_basis
            pivots = self.lattice.pivots
            off_span = integer_kernel(basis) if len(basis) < self.dim else []
            gens = [tuple(v[p] for p in pivots) for v in self.cone.v_rep]
            normals = [hb for hb in (tuple(vdot(h, b) for b in basis)
                                     for h in self.cone.h_rep) if any(hb)]
            self._cache["span_cone"] = (pivots, off_span, gens, normals)
        return self._cache["span_cone"]

    def ray_sums(self) -> Iterator[list[tuple]]:
        """The sums of the rays by coefficient sum: the k-th list read (k
        from 1) holds, sorted, the vectors that are sums of k rays and of
        no fewer (the origin too, when k rays cancel).  A level is built
        from the one before on its first read, and kept for every later
        reader; :meth:`_record_sums` sees each new level, and
        :meth:`ray_sum_parent` how each sum was first built."""
        levels, parents = self._cache.setdefault("ray_sums", ([], {}))
        for k in itertools.count():
            if k == len(levels):
                new = {}
                for x in levels[-1] if levels else [(0,) * self.dim]:
                    for g in self.rays:
                        y = vadd(x, g)
                        if y not in parents and y not in new:
                            new[y] = (x, g)
                parents.update(new)
                levels.append(sorted(new))
                self._record_sums(levels[-1])
            yield levels[k]

    def ray_sum_parent(self, x: tuple) -> tuple[tuple, tuple]:
        """The ``(y, r)`` from which :meth:`ray_sums` first built the sum x:
        ``x == y + r`` with r a ray and y a sum of one ray fewer (the origin
        when x is a ray).  x must be a sum of a level already read."""
        return self._cache["ray_sums"][1][x]

    def _record_sums(self, level: list[tuple]) -> None:
        """A new level of :meth:`ray_sums`; rays on an excluded face make
        some sums non-members, so nothing is known of them."""

    def _ray_sum_pool(self, max_coeff_sum: int) -> list[tuple]:
        """The origin and the sums of at most ``max_coeff_sum`` rays, sorted."""
        pool = {(0,) * self.dim}
        pool.update(*itertools.islice(self.ray_sums(), max_coeff_sum))
        return sorted(pool)

    def element_pool(self, max_coeff_sum: int = 3) -> list[tuple]:
        """Members that are sums of at most ``max_coeff_sum`` rays, sorted."""
        return [v for v in self._ray_sum_pool(max_coeff_sum) if self.contains(v)]

    def check_element(self, x) -> None:
        if not self.contains(x):
            raise InputError(f"element {tuple(x)!r} {self.nonmember_text}")

    def leq(self, a, b) -> bool:
        self.check_element(a)
        self.check_element(b)
        # b - a lies in the cone iff some positive multiple of it is a sum
        # of members (for a lattice: of generators)
        return self.boundary_status(vsub(b, a)) == "inside"

    def approx(self, a, b) -> bool:
        self.check_element(a)
        self.check_element(b)
        return self.class_key(a) == self.class_key(b)

    def class_key(self, x) -> tuple:
        """The values of the closed cone's facet normals on x.

        Both directions of the scaled comparison in ``a ~~ b`` collapse to
        ``b - a`` lying in the closed cone C and in -C, that is in the
        lineality space of C.  A vector lies there iff every facet normal of
        C vanishes on it, so ``a ~~ b`` iff every facet normal takes the
        same value on a and on b: the tuple of those values is a key of the
        class.  x is not checked for membership.
        """
        return tuple(vdot(n, x) for n in self.cone.h_rep)


class LatticeMonoid(VectorCarrier):
    """All sums (with repetition) of finitely many generators in ``Z^d``."""

    scalar = "integer"
    groth_kind = "lattice"
    basis_key = "lattice_basis"
    difference_group = "difference lattice"
    nonmember_text = "is not a generator combination"
    origin_only_text = "lattice carrier needs a nonzero generator"
    budget_text = "coefficient budget"

    def __init__(self, dim: int, generators: Sequence[Sequence[int]]):
        self.dim = int(dim)
        gens = []
        for g in generators:
            g = tuple(int(x) for x in g)
            if len(g) != self.dim:
                raise InputError("generator dimension mismatch")
            gens.append(g)
        if not gens:
            raise InputError("lattice monoid needs at least one generator")
        self.generators = tuple(gens)
        self._cache: dict = {}

    @property
    def rays(self) -> tuple:
        return self.generators

    @property
    def cone(self) -> RationalCone:
        if "cone" not in self._cache:
            # from_rays drops the zero generators: with none left, the origin
            self._cache["cone"] = RationalCone.from_rays(self.generators, self.dim)
        return self._cache["cone"]

    def coordinates(self, x: Sequence) -> Optional[tuple[int, ...]]:
        return self.lattice.coordinates(x)

    def _record_sums(self, level: list[tuple]) -> None:
        """Every sum of generators is a member: record the level in the
        membership memo (see :meth:`contains`)."""
        self._cache.setdefault("contains", {}).update(dict.fromkeys(level, True))

    def element_pool(self, max_coeff_sum: int = 3) -> list[tuple]:
        """The sums of at most ``max_coeff_sum`` generators, sorted: all
        members, so none is checked."""
        return self._ray_sum_pool(max_coeff_sum)

    def lineality_coordinates(self) -> list[tuple[int, ...]]:
        """A basis of the lattice points of the cone's lineality space, in
        lattice coordinates: the integer kernel of the facet normals read on
        ``span_basis`` (the whole lattice when the cone is everything)."""
        basis = self.span_basis
        if not self.cone.h_rep:
            return [tuple(int(i == j) for j in range(len(basis))) for i in range(len(basis))]
        return integer_kernel([[vdot(n, b) for b in basis] for n in self.cone.h_rep])

    @property
    def combinations(self) -> CombinationSearch:
        """The complete combination search over the generators, built once."""
        if "combinations" not in self._cache:
            self._cache["combinations"] = CombinationSearch(self.generators, self.cone.h_rep)
        return self._cache["combinations"]

    def contains(self, x: Sequence) -> bool:
        """Exact membership: is x a nonnegative integer combination of the generators?

        A vector with a non-integral coordinate is not a member.  On a free
        carrier, whose generators have no integer relation (the lattice's
        rank equals their number), x has at most one integer combination,
        so it is a member iff :meth:`IntegerSolver.solve` returns one and
        every coefficient is nonnegative; the solve re-substitutes its
        answer, and no cone or search is built.  On any other carrier,
        integer vectors outside the generators' lattice or cone are refused
        at once; the rest go to :class:`CombinationSearch`, which is
        complete: the generators split into units (every facet normal of
        the cone vanishes on them; they generate the group ``Z*units``) and
        positive generators (the sum ``w`` of the normals is positive on
        them).  As ``w`` vanishes on the units, any combination has
        ``sum(n[i] * w(p[i])) == w(x)`` over the positive generators, so a
        depth-first search under that exact weight equality is finite, and
        at each leaf the residue must lie in the unit lattice.  A True
        answer carries a certificate of nonnegative integer coefficients
        that is re-substituted.  Deciding and certifying run in integers:
        one Hermite form of ``[units | I]`` answers the leaf checks and
        gives the unit coefficients, and a strictly positive integer
        relation among the units shifts negative ones; no rational simplex
        is run.  Answers are memoized per monoid.  The memo also holds, as
        True, every vector that :meth:`ray_sums` has built: each is ``x +
        g`` for a sum x of generators and a generator g, a member by the
        definition of the monoid, with that construction as its
        certificate.
        """
        if len(x) != self.dim:
            raise InputError("element dimension mismatch")
        key = tuple(int(v) for v in x)
        if key != tuple(x):
            return False  # a non-integral coordinate
        memo = self._cache.setdefault("contains", {})
        if key not in memo:
            memo[key] = is_zero_vector(key) or self._member(key)
        return memo[key]

    def _member(self, key: tuple) -> bool:
        """Membership of a nonzero integer vector, not memoized."""
        if len(self.lattice.basis) == len(self.generators):
            if "solver" not in self._cache:
                self._cache["solver"] = IntegerSolver(self.dim, self.generators)
            coefficients = self._cache["solver"].solve(key)
            return coefficients is not None and min(coefficients) >= 0
        return (self.lattice.contains(key) and self.cone.member(key)
                and self.combinations.find(key) is not None)


class OpenConeMonoid(VectorCarrier):
    """A rational cone with chosen facets excluded, plus the origin.

    ``open_normals`` must be a subset of the h-representation of the
    closed cone; the monoid is the set of points satisfying every closed
    inequality weakly and every open inequality strictly, together with 0.
    Closure under addition is automatic for this shape: sums of weakly
    nonnegative values stay weakly nonnegative, sums of two strictly
    positive values stay strictly positive, and adding the origin changes
    nothing.  A generator-sum spot check is still run at construction.
    """

    scalar = "rational"
    groth_kind = "cone"
    basis_key = "span_basis"
    difference_group = "difference span"
    nonmember_text = "is outside the open cone"
    origin_only_text = "open-cone carrier needs a closed cone other than the origin"
    budget_text = "budget"

    def __init__(self, closed_cone: RationalCone, open_normals: Sequence[Sequence[int]]):
        self.dim = closed_cone.dim
        self.cone = closed_cone
        h = set(closed_cone.h_rep)
        normals = []
        for n in open_normals:
            n = tuple(int(x) for x in n)
            if n not in h:
                raise InputError("open normal is not a facet normal of the closed cone")
            normals.append(n)
        self.open_normals = tuple(sorted(set(normals)))
        for a in closed_cone.v_rep:
            for b in closed_cone.v_rep:
                s = vadd(a, b)
                if not closed_cone.member(s):
                    raise InternalCheckError("closed cone not closed under addition")
        self._cache: dict = {}

    @property
    def rays(self) -> list:
        return self.cone.v_rep

    def coordinates(self, x: Sequence) -> Optional[list[Fraction]]:
        return self.lattice.rational_coordinates(x)

    def lineality_coordinates(self) -> list[tuple[int, ...]]:
        """A basis of the cone's lineality space, in span coordinates (each
        vector scaled to a primitive integer one)."""
        return [as_int_vector(self.coordinates(v)) for v in self.cone.lineality_basis]

    def boundary_status(self, x: Sequence) -> str:
        """As on every vector carrier, with the signs of a point that has a
        non-``int`` coordinate read on :func:`as_int_vector` of it, a
        positive multiple: no ``Fraction`` product is formed."""
        if not all(type(v) is int for v in x):
            x = as_int_vector(x)
        return super().boundary_status(x)

    def contains(self, x: Sequence) -> bool:
        return self.boundary_status(x) == "inside"

    def sample_elements(self, count: int = 12) -> list[tuple[Fraction, ...]]:
        """Deterministic nonzero members built from extreme rays."""
        rays = self.cone.v_rep
        interior = None
        for r in rays:
            if self.contains(r):
                interior = r
                break
        if interior is None:
            acc = tuple(0 for _ in range(self.dim))
            for r in rays:
                acc = vadd(acc, r)
            if self.contains(acc):
                interior = acc
        out = []
        if interior is None:
            return out
        for r in rays:
            for k in (1, 2, 3):
                cand = vadd(vscale(k, interior), r)
                if self.contains(cand):
                    out.append(tuple(Fraction(v) for v in cand))
                if len(out) >= count:
                    return out
        return out


# ---------------------------------------------------------------------------
# canonical quasi-order and its equivalence


def leq(m, a, b) -> bool:
    """Decide ``a <~ b``: some k, c, t with ``k*a + c + t == k*b + t``."""
    return m.leq(a, b)


def approx(m, a, b) -> bool:
    """Decide ``a ~~ b``: one d works for all scalars in both directions."""
    return m.approx(a, b)


# ---------------------------------------------------------------------------
# biadditive operations


def _integral(x, index: tuple, what: str) -> int:
    """A table or tensor entry as an ``int``; non-integral entries are
    refused, integral ones of any numeric type (``Fraction(4, 2)``,
    ``3.0``) are accepted."""
    if type(x) is int:
        return x
    try:
        q = Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InputError(f"{what} entry {index} is {x!r}, not a number") from None
    if q.denominator != 1:
        raise InputError(f"{what} entry {index} is {x!r}, not an integer")
    return int(q)


class BiadditiveOp:
    """A biadditive binary operation on a carrier.

    Finite carriers take a value table; vector carriers take a d x d x d
    integer tensor T acting as ``mu(x, y)[k] = sum_ij T[i][j][k] x_i y_j``.
    An entry of either that is not an integer is an :class:`InputError`.
    ``_cache`` holds what a decision procedure builds once per operation.
    """

    def __init__(self, carrier, table: Optional[Sequence[Sequence[int]]] = None,
                 tensor=None):
        self.carrier = carrier
        self._cache: dict = {}
        if isinstance(carrier, FiniteMonoid):
            if table is None:
                raise InputError("finite carrier needs a value table")
            self.table = tuple(tuple(_integral(x, (a, b), "table")
                                     for b, x in enumerate(row))
                               for a, row in enumerate(table))
            if len(self.table) != carrier.n or any(len(r) != carrier.n for r in self.table):
                raise InputError("operation table shape mismatch")
            for row in self.table:
                for x in row:
                    if not 0 <= x < carrier.n:
                        raise InputError("operation table entry out of range")
            self.tensor = None
        else:
            if tensor is None:
                raise InputError("vector carrier needs a tensor")
            d = carrier.dim
            self.tensor = tuple(tuple(tuple(_integral(x, (i, j, k), "tensor")
                                            for k, x in enumerate(row))
                                      for j, row in enumerate(slab))
                                for i, slab in enumerate(tensor))
            if len(self.tensor) != d or any(len(s) != d for s in self.tensor) or \
                    any(len(r) != d for s in self.tensor for r in s):
                raise InputError("tensor shape mismatch")
            self.table = None
            # the nonzero entries (i, j, k, T[i][j][k]) in i, j, k order
            self._entries = tuple((i, j, k, t) for i, slab in enumerate(self.tensor)
                                  for j, row in enumerate(slab)
                                  for k, t in enumerate(row) if t)

    def mu(self, a, b):
        if self.table is not None:
            return self.table[a][b]
        d = self.carrier.dim
        if len(a) != d or len(b) != d:
            raise InputError(f"operands of lengths {len(a)} and {len(b)} "
                             f"in dimension {d}")
        # only entries whose factors are both nonzero are added, so an
        # untouched coordinate stays the int 0 whatever the operand types
        out = [0] * d
        for i, j, k, t in self._entries:
            x = a[i]
            if x:
                y = b[j]
                if y:
                    out[k] += x * y * t
        return tuple(out)

    # -- validation --------------------------------------------------------

    def validate(self) -> list:
        """The failures of the operation's laws on the carrier, empty when
        it is biadditive and closed: both distributive laws on every finite
        triple, generator products of a lattice, ray products of an open
        cone (biadditivity is structural for a tensor).  The n^3 triples
        are swept only to list the failures once :func:`_distributive`
        finds one with the generators and 0 in the added-to slot.
        """
        m = self.carrier
        failures = []
        if isinstance(m, FiniteMonoid):
            add, mu = m.table, self.table
            if _distributive(add, mu, [0] + m.generators()):
                return failures
            for a in m.elements():
                for b in m.elements():
                    mu_a, mu_ab = mu[a], mu[add[a][b]]
                    for c in m.elements():
                        if mu_ab[c] != add[mu_a[c]][mu[b][c]]:
                            failures.append(("left-additivity", a, b, c))
                        if mu_a[add[b][c]] != add[mu_a[b]][mu_a[c]]:
                            failures.append(("right-additivity", a, b, c))
        elif isinstance(m, LatticeMonoid):
            for i, g in enumerate(m.generators):
                for j, h in enumerate(m.generators):
                    prod = self.mu(g, h)
                    if not m.contains(prod):
                        failures.append(("generator-product-outside", i, j, list(prod)))
        else:
            for a in m.cone.v_rep:
                for b in m.cone.v_rep:
                    prod = self.mu(a, b)
                    if not m.cone.member(prod):
                        failures.append(("ray-product-outside-closure",
                                         list(a), list(b), list(prod)))
        return failures


def _distributive(add, table, slots) -> bool:
    """Both distributive laws of the value table over the addition table
    with the added-to slot in ``slots``: ``(a + h) c == a c + h c`` and
    ``a (c + h) == a c + a h`` for every h in slots and all a, c.

    With ``slots`` the generators and 0 this decides both laws on every
    triple, by induction on an expression of the added-to element: for
    ``b == p + h``, ``(a + b) c == ((a + p) + h) c == (a + p) c + h c ==
    a c + p c + h c == a c + b c`` (the right law alike).  The slot 0 is
    the base case, which a table with row and column 0 zero meets.
    """
    for h in slots:
        th, h_plus = table[h], add[h]
        for ta, a_plus in zip(table, add):
            ah_plus = add[ta[h]]
            if table[a_plus[h]] != tuple([add[x][y] for x, y in zip(ta, th)]):
                return False
            if [ta[v] for v in h_plus] != [ah_plus[x] for x in ta]:
                return False
    return True


# ---------------------------------------------------------------------------
# enumeration of biadditive operations on finite carriers


def enumerate_biadditive_ops(m: FiniteMonoid, unital: Optional[int] = None,
                             node_budget: int = 2_000_000) -> list[BiadditiveOp]:
    """All biadditive operation tables on a finite carrier.

    A biadditive map is determined by its values on generator pairs; the
    search assigns those values depth first and prunes with the unit
    constraints when ``unital`` names a two-sided unit.  The budget counts
    assignment nodes; exceeding it raises :class:`ResourceBudgetError`.
    Every leaf is checked against the unit (if given) on its generator
    values; a leaf that passes has its table extended from those values
    (see :func:`_extend`) and validated against both distributive laws
    before it is kept.

    Every entry of the table is the sum of the generator values over
    ``expr[a] x expr[b]``, so ``u b`` is the sum of the ``u h`` over the
    generators h in ``expr[b]``, and ``u h`` is the unit-weighted column
    sum of the values ``v(i, h)``.  So ``u b == b`` for every b iff every
    such column sum is its generator (the search already forces this), and
    ``a u == a`` for every a iff every unit-weighted row sum
    ``sum_j unit_counts[j] v(i, j)`` is its generator ``g_i``: 2 g sums
    decide the unit, not the 2 n entries of a table.  Row and column 0
    being 0, the distributive laws need checking only with a generator in
    the slot that is added to (see :func:`_distributive`).  So a leaf that
    passes costs n^2 + g n sums and n^2 g law checks.
    """
    gens = m.generators()
    expr = m.expressions()
    if unital is not None:
        m.check_element(unital)
    g = len(gens)
    pairs = [(i, j) for j in range(g) for i in range(g)]  # column major: fix j, vary i
    unit_expr = expr[unital] if unital is not None else ()
    unit_counts = [sum(1 for x in unit_expr if x == gens[i]) for i in range(g)]
    if unital is not None and m.sum_elements(unit_expr) != unital:
        raise InternalCheckError("unit expression does not re-evaluate to the unit")

    # backward feasibility per column: back[t] = partial sums after t of the
    # unit-weighted assignments from which the column target stays reachable
    def column_feasible_sets(j):
        total = sum(unit_counts)
        target = gens[j]
        back = [set() for _ in range(total + 1)]
        back[total] = {target}
        for t in reversed(range(total)):
            # the p from which some p + v is feasible after t + 1
            back[t] = {p for p, row in enumerate(m.table) if not back[t + 1].isdisjoint(row)}
        return back

    feasible = [column_feasible_sets(j) for j in range(g)] if unital is not None else None

    add = m.table
    position = {x: i for i, x in enumerate(gens)}
    element_of = {e: a for a, e in expr.items()}
    # (a, p, position of h) with expr[a] == expr[p] + (h,), parents first
    steps = [(a, element_of[e[:-1]], position[e[-1]]) for a, e in expr.items() if e]
    assign: dict[tuple[int, int], int] = {}
    results: set = set()
    nodes = 0

    def weighted_sum(values) -> int:
        return m.sum_elements(v for v, k in zip(values, unit_counts) for _ in range(k))

    def extend_and_validate():
        values = [[assign[(i, j)] for j in range(g)] for i in range(g)]
        if unital is not None and not all(
                weighted_sum(values[i]) == gens[i]
                and weighted_sum([row[i] for row in values]) == gens[i]
                for i in range(g)):
            return
        table = _extend(add, steps, values)
        if _distributive(add, table, gens):
            results.add(tuple(table))

    def dfs(idx: int, s: int, count: int):
        """Assign pairs from idx on; (s, count) is the unit-weighted sum of
        the column's rows assigned so far and the number of its terms.  A
        column's sum is complete when count reaches the total, where the
        only feasible sum is the column's generator."""
        nonlocal nodes
        if idx == len(pairs):
            extend_and_validate()
            return
        i, j = pairs[idx]
        if i == 0:
            s, count = 0, 0
        for v in range(m.n):
            nodes += 1
            if nodes > node_budget:
                raise ResourceBudgetError(
                    f"biadditive enumeration exceeded {node_budget} nodes")
            assign[(i, j)] = v
            t, c, ok = s, count, True
            if unit_counts[i]:  # all zero without a unit
                for _ in range(unit_counts[i]):
                    t = add[t][v]
                c += unit_counts[i]
                ok = t in feasible[j][c]
            if ok:
                dfs(idx + 1, t, c)
            del assign[(i, j)]

    dfs(0, 0, 0)
    ops = [BiadditiveOp(m, table=t) for t in sorted(results)]
    return ops


def _extend(add, steps, values) -> list[tuple[int, ...]]:
    """The table of the biadditive operation with the generator values
    ``values[i][j] == g_i g_j``, by additivity along the expression steps
    ``(a, p, h)`` of :func:`enumerate_biadditive_ops`.

    The row of a generator g is ``g b = g p + g h`` over the right operand
    b, and then the table is ``a b = p b + h b``, one row sum per element:
    row and column 0 are 0, and every entry is the sum of the generator
    values over ``expr[a] x expr[b]``, whatever the order of the sum.
    """
    n = len(add)
    gen_rows = []  # gen_rows[i][b] == g_i b
    for row_values in values:
        row = [0] * n
        for b, p, h in steps:
            row[b] = add[row[p]][row_values[h]]
        gen_rows.append(row)
    table = [(0,) * n] * n
    for a, p, h in steps:
        table[a] = tuple([add[x][y] for x, y in zip(table[p], gen_rows[h])])
    return table


# ---------------------------------------------------------------------------
# carrier factories


def truncated_free_monoid(coords: int, cap: int = 2) -> FiniteMonoid:
    """Product of ``coords`` copies of {0, 1, .., cap} with saturating sum."""
    if coords < 1:
        raise InputError("need at least one coordinate")
    tuples = list(itertools.product(range(cap + 1), repeat=coords))
    digits = range(cap + 1)
    m = FiniteMonoid(_coordinatewise([[min(cap, x + y) for y in digits] for x in digits],
                                     coords))
    m._cache["tuples"] = tuples
    m._cache["tuple_index"] = {t: i for i, t in enumerate(tuples)}
    return m


def saturating_product_op(m: FiniteMonoid) -> BiadditiveOp:
    """Coordinatewise saturating multiplication on a truncated free monoid."""
    tuples = m._cache["tuples"]
    cap = max(max(t) for t in tuples)
    digits = range(cap + 1)
    return BiadditiveOp(m, table=_coordinatewise(
        [[min(cap, x * y) for y in digits] for x in digits], len(tuples[0])))


def _coordinatewise(digit_table, coords: int) -> list[list[int]]:
    """The index table of an operation taken coordinatewise on the tuples
    of ``coords`` digits, indexed as ``itertools.product`` lists them, from
    its table on one digit.  The tuple (x, s) of a first digit x and a rest
    s has index ``x * size + s`` with size the number of rests, so the
    table is built a digit at a time:
    ``T[(x, s)][(y, t)] == op(x, y) * size + T_rest[s][t]``."""
    table, size = digit_table, len(digit_table)
    for _ in range(coords - 1):
        table = [[xy * size + e for xy in op_x for e in row]
                 for op_x in digit_table for row in table]
        size *= len(digit_table)
    return table


def cyclic_group_monoid(k: int) -> FiniteMonoid:
    if k < 1:
        raise InputError("cyclic order must be positive")
    return FiniteMonoid([[(i + j) % k for j in range(k)] for i in range(k)])


def cyclic_product_op(k: int) -> BiadditiveOp:
    m = cyclic_group_monoid(k)
    return BiadditiveOp(m, table=[[(i * j) % k for j in range(k)] for i in range(k)])


def free_monoid(coords: int) -> LatticeMonoid:
    """The free commutative monoid N^coords as a lattice monoid."""
    gens = [tuple(1 if j == i else 0 for j in range(coords)) for i in range(coords)]
    return LatticeMonoid(coords, gens)


def orthant(dim: int, scalar: str) -> VectorCarrier:
    """The positive orthant of ``Z^dim`` (``scalar`` "integer") or ``Q^dim``
    ("rational"): the positive cone of the coordinatewise lattice group."""
    if scalar == "integer":
        return free_monoid(dim)
    unit = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    return OpenConeMonoid(RationalCone.from_rays(unit, dim), [])


def diagonal_tensor(dim: int, weights: Sequence[int]):
    if len(weights) != dim:
        raise InputError("one weight per coordinate required")
    return tuple(tuple(tuple(int(weights[i]) if (i == j and k == i) else 0
                             for k in range(dim))
                       for j in range(dim))
                 for i in range(dim))


def elementwise_product_op(m: LatticeMonoid) -> BiadditiveOp:
    return BiadditiveOp(m, tensor=diagonal_tensor(m.dim, [1] * m.dim))


def matrix_monoid_2x2() -> LatticeMonoid:
    """Entrywise-nonnegative 2x2 integer matrices, flattened row major."""
    gens = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
    return LatticeMonoid(4, gens)


def matrix_product_tensor():
    """Tensor of the 2x2 matrix product in row-major coordinates."""
    def unit(i, j):
        return i * 2 + j

    t = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    # e_ab . e_cd = delta_bc e_ad
                    if b == c:
                        t[unit(a, b)][unit(c, d)][unit(a, d)] = 1
    return tuple(tuple(tuple(row) for row in slab) for slab in t)


def matrix_product_op() -> BiadditiveOp:
    return BiadditiveOp(matrix_monoid_2x2(), tensor=matrix_product_tensor())


def half_open_half_plane() -> OpenConeMonoid:
    """Points with positive first coordinate, plus the origin, in Q^2."""
    cone = RationalCone.from_rays([(1, 0), (0, 1), (0, -1)], 2)
    return OpenConeMonoid(cone, [(1, 0)])


def half_plane_product_tensor():
    """mu((x, y), (x', y')) = (x x', x y') as an integer tensor."""
    t = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    t[0][0][0] = 1  # x x' feeds the first coordinate
    t[0][1][1] = 1  # x y' feeds the second coordinate
    return tuple(tuple(tuple(row) for row in slab) for slab in t)
