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
carrier decides both from its closed cone: an open cone from the cone's
facet normals, a lattice monoid on the simplicial cones of its bases of
generators (see :meth:`LatticeMonoid._in_cone`).
Membership of a vector in a lattice monoid is decided exactly, with no
coefficient bound (see :meth:`LatticeMonoid.contains`).

Only this module decides what kind of carrier it holds.  Both kinds
supply one protocol, and the other modules read only it:

* ``check_element``, ``leq``, ``approx``, ``class_key``: the order;
* ``order_is_total``: True where the order relates every pair by theorem
  (a finite carrier), so every element is localizable and both
  reductions are the one-element group (:mod:`localizability`,
  :mod:`grothendieck`, the weak-strong audit); only where it is False is
  the vector protocol of :class:`VectorCarrier` read;
* ``read_operation``, ``operation_failures``: a :class:`BiadditiveOp`'s
  data and laws;
* ``rays``, ``element_pool``, ``closed_generators``, ``product_table``,
  ``approx_is_equality``: the sweeps of :mod:`functionals`;
* ``element_key``, ``element_text``: an element as a report key
  (:mod:`functionals`) and as :mod:`cli` prints it;
* ``contains``, ``names``: membership, and the names an element is read
  by (None where it is read as a vector), for :mod:`instancefile`.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    InputError,
    InternalCheckError,
    ResourceBudgetError,
    as_int_vector,
    is_zero_vector,
    vadd,
    vdot,
    vneg,
    vscale,
    vsub,
)
from .exactmath import (
    CombinationSearch,
    IntegerLattice,
    RationalCone,
    _independent,
    cone_walk,
    int_adjugate,
    integer_kernel,
    integer_solve,
)

# the reason of every verdict that holds on a finite carrier by theorem
FINITE_ORDER_IS_TOTAL = "the canonical order of a finite carrier is total"

# the largest |det B| of a basis B whose class table lattice membership
# builds (see LatticeMonoid.contains): one entry per class, |det B| at most
CLASS_TABLE_MAX_DET = 512


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

    order_is_total = True
    rays = ()  # no cone: an operation has no ray products

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

    def contains(self, x: int) -> bool:
        """Is x an element: an index in ``0..n-1``?"""
        return 0 <= x < self.n

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

    @property
    def approx_is_equality(self) -> bool:
        return self.n == 1

    def element_key(self, x: int) -> int:
        return x

    def element_text(self, x: int):
        return self.names[x] if self.names is not None else x

    def element_pool(self, max_coeff_sum: int) -> list[int]:
        """Every element, whatever the bound: a finite carrier is swept whole."""
        return list(self.elements())

    # -- biadditive operations ----------------------------------------------

    def read_operation(self, table, tensor) -> tuple:
        """``(table, None)``: an n x n table of elements, ``mu(a, b)`` at
        ``table[a][b]``; a finite carrier reads no tensor."""
        if table is None:
            raise InputError("finite carrier needs a value table")
        table = tuple(tuple(_integral(x, (a, b), "table") for b, x in enumerate(row))
                      for a, row in enumerate(table))
        if len(table) != self.n or any(len(r) != self.n for r in table):
            raise InputError("operation table shape mismatch")
        if any(not 0 <= x < self.n for row in table for x in row):
            raise InputError("operation table entry out of range")
        return table, None

    def operation_failures(self, op) -> list:
        """Both distributive laws on every triple: the n^3 triples are swept
        only to list the failures once :func:`_distributive` finds one with
        the generators and 0 in the added-to slot."""
        add, mu = self.table, op.table
        if _distributive(add, mu, self.closed_generators(op)):
            return []
        failures = []
        for a in self.elements():
            for b in self.elements():
                mu_a, mu_ab = mu[a], mu[add[a][b]]
                for c in self.elements():
                    if mu_ab[c] != add[mu_a[c]][mu[b][c]]:
                        failures.append(("left-additivity", a, b, c))
                    if mu_a[add[b][c]] != add[mu_a[b]][mu_a[c]]:
                        failures.append(("right-additivity", a, b, c))
        return failures

    def closed_generators(self, op) -> list[int]:
        """0 and the generators: every element is a nonempty sum of them,
        and every entry of the operation's table is an element.  0 is
        listed, as ``mu(0, x)`` is only known to be idempotent, not 0."""
        return [0] + self.generators()

    def product_table(self, op, pool: list) -> list[list[int]]:
        """``table[i][j] == mu(pool[i], pool[j])``, read off the operation."""
        return [[op.table[a][b] for b in pool] for a in pool]


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

    Beside the protocol of every carrier (see :mod:`monoids`), a vector
    carrier supplies what :mod:`localizability` and the reductions of
    :mod:`grothendieck` read: ``cone``, ``open_normals``, ``span_basis``,
    ``coordinates``, ``boundary_status``, ``lineality_coordinates``,
    ``interior_point``, ``member_rays``, ``witness_pair`` and
    ``reduction_keys``.  Each subclass owns the rules in which the kinds
    differ: ``operation_failures``, ``member_rays``, ``_witness_cap``
    and ``reduction_keys``.

    The class attributes that differ between the subclasses are report
    text: ``groth_kind`` names the carrier's difference group,
    ``basis_key`` the report key of its basis, ``difference_group``
    what an element outside it is outside of, ``nonmember_text`` why an
    element is refused, ``origin_only_text`` why a carrier whose rays are
    all zero is, and ``scalar`` what a coordinate is ("integer" or
    "rational").
    """

    order_is_total = False
    names = None  # an element is read as a vector, not by name
    scalar: str
    groth_kind: str
    basis_key: str
    difference_group: str
    nonmember_text: str
    origin_only_text: str
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

    def lineality_coordinates(self) -> list[tuple[int, ...]]:
        """A Hermite basis of the lattice points of the cone's lineality
        space in ``span_basis`` coordinates, built once.  The space is the
        cone's least face, so the units, the rays r with ``boundary_status``
        of -r not "outside", span it, and its lattice points are the integer
        kernel of the integer kernel of the units' coordinates: all of them
        if every ray is a unit.  The basis is empty iff the cone is pointed."""
        if "lineality" not in self._cache:
            units = [self.lattice.coordinates(r) for r in self.rays
                     if self.boundary_status(vneg(r)) != "outside"]
            r = len(self.span_basis)
            self._cache["lineality"] = (
                [tuple(int(i == j) for j in range(r)) for i in range(r)]
                if len(units) == len(self.rays) else
                units and integer_kernel(integer_kernel(units)))
        return self._cache["lineality"]

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

    def element_pool(self, max_coeff_sum: int) -> list[tuple]:
        """Members that are sums of at most ``max_coeff_sum`` rays, sorted."""
        return [v for v in self._ray_sum_pool(max_coeff_sum) if self.contains(v)]

    @property
    def member_rays(self) -> list:
        return [r for r in self.rays if self.contains(r)]

    def element_key(self, x) -> tuple:
        return tuple(x)

    def element_text(self, x) -> list:
        return list(x)

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
        """Equal :meth:`class_key` values; a lattice monoid overrides it with
        two cone tests on its bases."""
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
        class.  x is not checked for membership.  It is read where many
        elements are sorted into classes (the sweeps of :mod:`functionals`)
        and by an open cone's ``approx``; a lattice monoid's ``approx`` of
        one pair reads two cone tests instead, with no double description.
        """
        return tuple(vdot(n, x) for n in self.cone.h_rep)

    @property
    def approx_is_equality(self) -> bool:
        """A pointed cone: its facet normals tell every two points apart."""
        return not self.lineality_coordinates()

    # -- the relative interior and witness pairs ---------------------------

    def interior_point(self) -> tuple:
        """The sum of the rays: a member in the relative interior of the
        closed cone.  A carrier whose rays are all zero is refused, and so
        is one whose excluded faces leave only the origin.

        A cone of lower dimension keeps each implicit equality ``h . x = 0``
        in ``h_rep`` as the pair ``h``, ``-h``, which vanishes on every ray
        and so on all of the cone.  Relative interiority asks strict
        positivity only of the other forms, each of which is positive on
        some ray.
        """
        if not any(map(any, self.rays)):
            raise InputError(self.origin_only_text)
        acc = functools.reduce(vadd, self.rays, (0,) * self.dim)
        for h in self.cone.h_rep:
            if vdot(h, acc) <= 0 and any(vdot(h, r) for r in self.rays):
                raise InternalCheckError("ray sum is not relatively interior")
        if any(vdot(n, acc) <= 0 for n in self.open_normals):
            # only an open normal that vanishes on the whole cone excludes it;
            # the ray sum of a linear space is the origin, which is no proof
            raise InputError("open-cone carrier has no member but the origin")
        return acc

    def witness_pair(self, direction) -> tuple:
        """Deterministic member pair (a, a + direction), for a direction
        outside the carrier.

        The base point a is the least multiple ``k*g`` of the ray sum g (see
        :meth:`interior_point`) whose translate by the direction is a
        member.  Every ``k*g`` is a member, and membership of ``k*g +
        direction`` is upward closed in k (adding g keeps it), so the least
        k is found by galloping from 0, then bisecting.  The search stops at
        :meth:`_witness_cap`, a k whose translate is certainly a member.
        """
        g = self.interior_point()
        direction = tuple(direction)
        cap = self._witness_cap(direction, g)

        def pair(k):
            a = vscale(k, g)
            return a, vadd(a, direction)

        miss, k = -1, 0
        while not self.contains(pair(k)[1]):
            if k == cap:
                raise InternalCheckError("witness base point search exceeded its bound")
            miss, k = k, min(cap, max(1, 2 * k))
        while k - miss > 1:
            mid = (miss + k) // 2
            if self.contains(pair(mid)[1]):
                k = mid
            else:
                miss = mid
        return pair(k)

    # -- biadditive operations ----------------------------------------------

    def read_operation(self, table, tensor) -> tuple:
        """``(None, tensor)``: a d x d x d integer tensor T, ``mu(x, y)[k] =
        sum_ij T[i][j][k] x_i y_j``; a vector carrier reads no table."""
        if tensor is None:
            raise InputError("vector carrier needs a tensor")
        tensor = tuple(tuple(tuple(_integral(x, (i, j, k), "tensor")
                                   for k, x in enumerate(row))
                             for j, row in enumerate(slab))
                       for i, slab in enumerate(tensor))
        if len(tensor) != self.dim or any(len(s) != self.dim for s in tensor) or \
                any(len(r) != self.dim for s in tensor for r in s):
            raise InputError("tensor shape mismatch")
        return None, tensor

    def closed_generators(self, op) -> Optional[tuple]:
        """The rays when every product of two of them is a member, else
        None: every pool element is a ray sum, and with ``x = sum a_i r_i``
        and ``y = sum b_j r_j``, ``mu(x, y) = sum a_i b_j mu(r_i, r_j)`` is
        then a sum of members."""
        return self.rays if all(map(self.contains, op.ray_products.values())) else None

    def product_table(self, op, pool: list) -> list[list]:
        """``table[i][j] == mu(pool[i], pool[j])`` for a pool of ray sums,
        built by additivity from ``op.ray_products``: ``mu`` is a tensor, so
        ``mu(y + r, b) == mu(y, b) + mu(r, b)`` and ``mu(0, b) == 0``
        exactly.  The row of a ray sum ``y + r`` (:meth:`ray_sum_parent`)
        is the row of y plus the row of the ray r, and the row of a ray is
        built alike in the right slot.  A parent need not be a pool element
        (on an open cone it may lie on an excluded face), so the memos run
        over every ray sum they meet.  Pools and tensors are integer, so
        each entry has the value and the type that ``op.mu`` gives.
        """
        products = op.ray_products
        zero = (0,) * self.dim

        def by_parents(origin, ray, step):
            """f on the ray sums with ``f(0) == origin``, ``f(r) == ray(r)`` on
            a ray and ``f(y + r) == step(f(y), r)`` above, memoized."""
            memo = {zero: origin}

            def f(x):
                if x not in memo:
                    y, r = self.ray_sum_parent(x)
                    memo[x] = ray(r) if y == zero else step(f(y), r)
                return memo[x]
            return f

        ray_rows = {}
        for r in dict.fromkeys(self.rays):
            right = by_parents(zero, lambda s, r=r: products[r, s],
                               lambda v, s, r=r: vadd(v, products[r, s]))
            ray_rows[r] = [right(b) for b in pool]
        left = by_parents([zero] * len(pool), ray_rows.__getitem__,
                          lambda v, r: list(map(vadd, v, ray_rows[r])))
        return [left(a) for a in pool]


def _basis_values(y: Sequence, columns: tuple) -> Iterator[int]:
    """``y . adj(B)``: y read on each column of the adjugate of a basis B,
    lazily, so that a reader may stop at the first entry it refuses: the
    per-basis read of membership's class-0 sweep, class keys and entries."""
    return map(_dot, itertools.repeat(y), columns)


def _dot(a: Sequence, b: Sequence):
    """``a . b`` for two vectors of one length, unchecked: the reads of
    the bases, on a query's hot path, pair only vectors of the rank's
    length (:func:`vdot` checks the lengths)."""
    return sum(map(mul, a, b))


def _basis_coefficients(values: Iterable[int], det: int) -> Optional[list[int]]:
    """y's coefficients ``values / det(B)`` on a nonsingular basis B, for the
    :func:`_basis_values` of y on B, when they are a nonnegative integer
    vector, that is when y lies in ``N*B``; else None."""
    c = []
    for v in values:
        q, rest = divmod(v, det)
        if rest or q < 0:
            return None
        c.append(q)
    return c


class LatticeMonoid(VectorCarrier):
    """All sums (with repetition) of finitely many generators in ``Z^d``."""

    scalar = "integer"
    groth_kind = "lattice"
    basis_key = "lattice_basis"
    difference_group = "difference lattice"
    nonmember_text = "is not a generator combination"
    origin_only_text = "lattice carrier needs a nonzero generator"

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

    def element_pool(self, max_coeff_sum: int) -> list[tuple]:
        """The sums of at most ``max_coeff_sum`` generators, sorted: all
        members, so none is checked."""
        return self._ray_sum_pool(max_coeff_sum)

    @property
    def member_rays(self) -> tuple:
        """The generators: every one is a member, so none is checked."""
        return self.generators

    def operation_failures(self, op) -> list:
        """The products of two generators outside the monoid: biadditivity
        is structural for a tensor, and by it every product of members is
        a sum of those products."""
        return [("generator-product-outside", i, j, list(op.ray_products[g, h]))
                for i, g in enumerate(self.generators)
                for j, h in enumerate(self.generators)
                if not self.contains(op.ray_products[g, h])]

    def _witness_cap(self, direction: tuple, g: tuple) -> int:
        """A k with ``k*g + direction`` a member, g the generator sum: from
        an integer combination c of the direction over the generators,
        every coefficient of ``k*g + direction`` is ``k + c_i >= 0``."""
        combo = integer_solve(self.generators, direction)
        if combo is None:
            raise InternalCheckError("violating direction left the difference lattice")
        return max(0, -min(combo)) + 1

    def reduction_keys(self, red) -> dict:
        """The reduction's positive rays: the cone of the generators' images."""
        images = [red.project(g) for g in self.generators]
        return {"carrier": "lattice",
                "positive_rays": [list(r) for r in RationalCone.from_rays(images, red.rank).v_rep]}

    @property
    def combinations(self) -> CombinationSearch:
        """The complete combination search over the generators, built once."""
        if "combinations" not in self._cache:
            self._cache["combinations"] = CombinationSearch(self.generators, self.cone.h_rep)
        return self._cache["combinations"]

    def contains(self, x: Sequence) -> bool:
        """Exact membership: is x a nonnegative integer combination of the generators?

        A vector with a non-integral coordinate is not a member.  Let r be
        the rank of the generators' lattice L, and B any r independent
        generators, their rows read in a basis of L's span: x's own entries
        when r = d, with no Hermite form, and only on a carrier of lower rank
        its coordinates in L's Hermite basis (x off L is no member).  x's
        only rational combination of B is ``c = x . adj(B) / det(B)``, so x
        lies in ``N*B`` (a subset of the monoid) iff every entry of ``x .
        adj(B)`` is zero or a multiple of det(B) of det's sign; the rule of
        unimodular bases is the case ``|det(B)| == 1``.  The nonsingular
        r-subsets are walked in :func:`itertools.combinations` order, each
        one's adjugate and determinant computed once per carrier.

        *The class lemma.*  The classes of ``L / Z*B`` are keyed by ``y .
        adj(B) mod |det(B)|``: y and y' share a key iff ``(y - y') . adj(B)
        / det(B)``, the coefficients of ``y - y'`` on B, is an integer
        vector, that is iff ``y - y' in Z*B``.  So there are at most
        |det(B)| classes.  Pick one member a_h of the monoid in each class h.
        If x is in class h and ``(x - a_h) . adj(B) / det(B)`` is a
        nonnegative (integer) vector, then ``x - a_h`` lies in ``N*B`` and
        ``x = a_h + (x - a_h)`` is a sum of members, so a member.  Its
        certificate is a_h's coefficients plus those on B, re-substituted;
        a failure raises :class:`InternalCheckError`.  The class of 0 has the
        origin as its member, which gives the rule of ``N*B`` above.  A
        member for every class is found by a breadth-first walk from 0 that
        adds one generator at a time (see :meth:`_class_table`): the
        generators generate L, so their sums reach every class of the
        finite group ``L / Z*B``.  Only a "yes" is read this way.

        *The walk.*  (1) Every basis is read at class 0, the origin, which
        builds no table.  (2) On a miss, a free carrier, whose generators
        have no integer relation (the rank of L equals their number),
        answers no: its one subset is every generator, so c is x's only
        combination; on any other carrier a point outside the cone is
        refused by the cone test :meth:`_in_cone`, read off the same bases,
        so no double description is built.  (3) Every basis with ``|det(B)|
        <= CLASS_TABLE_MAX_DET`` (512) is read at x's class, its class table
        built once, when a query first reaches it; the cap bounds a table's
        size and the walk that builds it.  (4) Only then is a vector off L (whose Hermite form is
        built here) refused, and the rest go to :class:`CombinationSearch`,
        built on the first query that reaches it.  The generators
        split into units (every facet normal of the cone vanishes on them;
        they generate the group ``Z*units``) and positive generators (the sum
        ``w`` of the normals is positive on them).  As ``w`` vanishes on the
        units, any combination has ``sum(n[i] * w(p[i])) == w(x)`` over the
        positive generators, so a depth-first search under that exact weight
        equality is finite, and at each leaf the residue must lie in the unit
        lattice.  A True answer carries a certificate of nonnegative integer
        coefficients that is re-substituted.  Deciding and certifying run in
        integers: one Hermite form of ``[units | I]`` answers the leaf checks
        and gives the unit coefficients, and a strictly positive integer
        relation among the units shifts negative ones; no rational simplex is
        run.  So every "no" off a free carrier, other than a point outside
        the cone or off L, is the search's.  Answers are
        memoized per monoid.  The memo also holds, as True, every vector that
        :meth:`ray_sums` has built: each is ``x + g`` for a sum x of
        generators and a generator g, a member by the definition of the
        monoid, with that construction as its certificate.
        """
        if len(x) != self.dim:
            raise InputError("element dimension mismatch")
        key = tuple(map(int, x))
        if key != tuple(x):
            return False  # a non-integral coordinate
        memo = self._cache.setdefault("contains", {})
        if key not in memo:
            memo[key] = is_zero_vector(key) or self._member(key)
        return memo[key]

    def _member(self, key: tuple) -> bool:
        """Membership of a nonzero integer vector, not memoized: the walk of
        :meth:`contains`.  A member read off a basis is re-substituted: its
        coefficients on the basis, plus its class entry's on every
        generator, must sum to key, else :class:`InternalCheckError`."""
        y, coefficients = key, ()
        if not self._full_rank:  # a carrier of lower rank: Hermite coordinates
            y = self.lattice.coordinates(key)
            if y is None:
                return False
        for subset, columns, det in self._bases():
            c = _basis_coefficients(_basis_values(y, columns), det)
            if c is not None:
                break
        else:
            if len(subset) == len(self.generators):
                return False  # free: its one subset is every generator
            if not self._in_cone(y):
                return False
            read = self._class_read(y)
            if read is None:
                return self.lattice.contains(key) and self.combinations.find(key) is not None
            subset, c, coefficients = read
        check = [0] * self.dim
        for cj, g in zip(coefficients, self.generators):
            if cj:
                check = [a + cj * b for a, b in zip(check, g)]
        for cj, j in zip(c, subset):
            if cj:
                check = [a + cj * b for a, b in zip(check, self.generators[j])]
        if check != list(key):
            raise InternalCheckError("basis certificate failed")
        return True

    def _class_read(self, y: Sequence[int]) -> Optional[tuple]:
        """``(subset, c, coefficients)`` for the first basis B, in walk
        order, with ``|det(B)| <= CLASS_TABLE_MAX_DET`` whose member a of
        y's class has ``y - a`` in ``N*B``: B's generators, the coefficients
        c of ``y - a`` on them, and a's on every generator; None if none."""
        for basis in self._bases():
            subset, columns, det = basis
            if abs(det) <= CLASS_TABLE_MAX_DET:
                values = tuple(_basis_values(y, columns))
                entry = self._class_table(basis).get(tuple([v % abs(det) for v in values]))
                if entry is not None:
                    c = _basis_coefficients(vsub(values, entry[0]), det)
                    if c is not None:
                        return subset, c, entry[1]
        return None

    def _class_table(self, basis: tuple) -> dict:
        """One member a per class of ``L / Z*B``, keyed by ``a . adj(B) mod
        |det(B)|``: the entry ``(a . adj(B), a's coefficients)``, a in the
        basis's coordinates, of the member that a breadth-first walk from 0,
        adding one generator at a time, reaches first.  The generators
        generate L, and L/ZB is a finite group, so the walk reaches every
        class, in at most |det(B)| steps of one addition per generator.
        Built once per basis, when a query first needs it."""
        tables = self._cache.setdefault("class_tables", {})
        subset, columns, det = basis
        if subset not in tables:
            steps = [tuple(_basis_values(g, columns)) for g in self._rows()]
            zero, size = (0,) * len(subset), abs(det)
            table = {zero: (zero, (0,) * len(self.generators))}
            frontier = [zero]  # the class of each entry, in walk order
            for h in frontier:
                values, coefficients = table[h]
                for i, step in enumerate(steps):
                    k = tuple([(v + w) % size for v, w in zip(values, step)])
                    if k not in table:
                        table[k] = (vadd(values, step), coefficients[:i] + (coefficients[i] + 1,)
                                    + coefficients[i + 1:])
                        frontier.append(k)
            tables[subset] = table
        return tables[subset]

    def boundary_status(self, x: Sequence) -> str:
        """``inside`` the generators' closed cone or ``outside`` it (a lattice
        monoid excludes no face), decided by :meth:`_in_cone` on x's
        :meth:`_cone_coordinates`: no double description is built."""
        if len(x) != self.dim:
            raise InputError("element dimension mismatch")
        y = self._cone_coordinates(x)
        return "inside" if y is not None and self._in_cone(y) else "outside"

    def approx(self, a, b) -> bool:
        """``b - a`` in C and in -C, C the closed cone, as in
        :meth:`class_key`: two cone tests on the bases (:meth:`_in_cone`),
        so no double description is built."""
        self.check_element(a)
        self.check_element(b)
        y = self._cone_coordinates(vsub(b, a))  # members: b - a is in the span
        return self._in_cone(y) and self._in_cone(vneg(y))

    def _cone_coordinates(self, x: Sequence) -> Optional[tuple[int, ...]]:
        """x in the coordinates the bases are read in, as an integer vector
        on its ray: x's own entries, or on a carrier of lower rank its
        rational coordinates in the lattice's Hermite basis; None off the
        generators' span."""
        if not self._full_rank:
            x = self.lattice.rational_coordinates(x)
            if x is None:
                return None
        return tuple(x) if all(type(v) is int for v in x) else as_int_vector(x)

    def _in_cone(self, y: Sequence[int]) -> bool:
        """Does the closed cone of the generators hold y, an integer point in
        the bases' coordinates?  The facet normals that refused earlier
        points are read first, then one :func:`cone_walk` from the first
        basis of :meth:`_bases`, on its adjugates, keeps a separating one."""
        facets = self._cache.setdefault("facets", [])
        if any(_dot(n, y) < 0 for n in facets):
            return False
        start, _, _ = next(self._bases())
        basis, normal, _ = cone_walk(self._rows(), y, start, self._cache["adjugates"])
        if basis is None:
            facets.append(normal)
        return basis is not None

    @property
    def _full_rank(self) -> bool:
        """Are the bases d-subsets, read in a point's own entries (else the
        rank r is below d, and they are r-subsets read in the coordinates of
        the lattice's Hermite basis)?"""
        if "full_rank" not in self._cache:
            subset, _, _ = next(self._bases())
            self._cache["full_rank"] = len(subset) == self.dim
        return self._cache["full_rank"]

    def _rows(self) -> Sequence[tuple[int, ...]]:
        """The generators in the coordinates the bases are read in."""
        return self.generators if self._full_rank else self._cache["coordinate_rows"]

    def _bases(self) -> Iterator[tuple[tuple[int, ...], tuple, int]]:
        """The independent r-subsets of the generators (see :meth:`contains`),
        each with the columns of the adjugate of its rows and their
        determinant.  Each subset's adjugate is computed once, and kept in
        ``_cache["adjugates"]``, which :meth:`_in_cone`'s walk shares;
        ``_cache["bases"]`` holds the bases found so far, and
        ``_cache["subsets"]`` the subsets not yet tried."""
        if "bases" not in self._cache:
            self._cache["bases"] = []
            self._cache["adjugates"] = {}
            self._cache["subsets"] = self._subsets()
        bases, adjugates = self._cache["bases"], self._cache["adjugates"]
        yield from bases
        for subset, rows in self._cache["subsets"]:
            if subset not in adjugates:
                det, adj = int_adjugate(rows)
                adjugates[subset] = det, adj and tuple(zip(*adj))
            det, columns = adjugates[subset]
            if det:
                bases.append((subset, columns, det))
                yield bases[-1]

    def _subsets(self) -> Iterator[tuple[tuple[int, ...], list]]:
        """The d-subsets of the generators with their own entries as rows,
        the rest of them only if one of the first two is independent or the
        generators' rank, read once by :func:`_independent` (no Hermite
        form), is d; then, only if none is independent (r < d), the
        r-subsets with the generators' coordinates in the lattice's Hermite
        basis as rows."""
        indices = range(len(self.generators))
        pending = zip(itertools.combinations(indices, self.dim),
                      map(list, itertools.combinations(self.generators, self.dim)))
        yield from itertools.islice(pending, 2)
        if self._cache["bases"] or len(_independent(self.generators)) == self.dim:
            yield from pending
        if not self._cache["bases"]:
            coordinates = self._cache["coordinate_rows"] = [
                self.lattice.coordinates(g) for g in self.generators]
            for subset in itertools.combinations(indices, len(self.lattice.basis)):
                yield subset, [coordinates[j] for j in subset]


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

    def boundary_status(self, x: Sequence) -> str:
        """As on every vector carrier, with the signs of a point that has a
        non-``int`` coordinate read on :func:`as_int_vector` of it, a
        positive multiple: no ``Fraction`` product is formed."""
        if not all(type(v) is int for v in x):
            x = as_int_vector(x)
        return super().boundary_status(x)

    def contains(self, x: Sequence) -> bool:
        return self.boundary_status(x) == "inside"

    def operation_failures(self, op) -> list:
        """The products of two rays outside the closed cone: biadditivity is
        structural for a tensor."""
        return [("ray-product-outside-closure", list(a), list(b), list(prod))
                for (a, b), prod in op.ray_products.items() if not self.cone.member(prod)]

    def _witness_cap(self, direction: tuple, g: tuple) -> int:
        """The least k that every facet inequality allows: ``h . (k*g + d)
        >= 0`` for a closed normal positive on the ray sum g, and ``n . (k*g
        + d) > 0`` for an open one."""
        return max([0] + [-(vdot(h, direction) // vdot(h, g))
                          for h in self.closed_normals if vdot(h, g) > 0]
                   + [-vdot(n, direction) // vdot(n, g) + 1 for n in self.open_normals])

    def reduction_keys(self, red) -> dict:
        return {"carrier": "opencone", "span_basis": [list(r) for r in self.span_basis]}


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
    integer tensor T acting as ``mu(x, y)[k] = sum_ij T[i][j][k] x_i y_j``
    (see the carrier's ``read_operation``).  An entry of either that is
    not an integer is an :class:`InputError`.  ``_cache`` holds what a
    decision procedure builds once per operation.

    The constructor checks neither the laws nor closure on the carrier:
    :meth:`validate` lists their failures, and every decision procedure
    assumes a validated operation, one it lists none for.  The instance
    file loader validates (a failure exits 3); on an operation that fails
    validation a verdict means nothing, and may even be an error.
    """

    def __init__(self, carrier, table: Optional[Sequence[Sequence[int]]] = None,
                 tensor=None):
        self.carrier = carrier
        self._cache: dict = {}
        self.table, self.tensor = carrier.read_operation(table, tensor)
        # the nonzero entries (i, j, k, T[i][j][k]) of a tensor in i, j, k order
        self._entries = tuple((i, j, k, t) for i, slab in enumerate(self.tensor or ())
                              for j, row in enumerate(slab)
                              for k, t in enumerate(row) if t)

    def mu(self, a, b):
        if self.table is not None:
            return self.table[a][b]
        d = self.carrier.dim
        if len(a) != d or len(b) != d:
            raise InputError(f"operands of lengths {len(a)} and {len(b)} "
                             f"in dimension {d}")
        return self._product(a, b)

    def _product(self, a, b) -> tuple:
        # mu(a, b) on a vector carrier: only entries whose factors are both
        # nonzero are added, so an untouched coordinate stays the int 0
        # whatever the operand types
        out = [0] * self.carrier.dim
        for i, j, k, t in self._entries:
            x = a[i]
            if x:
                y = b[j]
                if y:
                    out[k] += x * y * t
        return tuple(out)

    @property
    def ray_products(self) -> dict:
        """``{(r, s): mu(r, s)}`` over the distinct ``carrier.rays``, built
        once: the one place a product of two rays is formed."""
        if "ray_products" not in self._cache:
            rays = list(dict.fromkeys(self.carrier.rays))
            self._cache["ray_products"] = {(r, s): self._product(r, s)
                                           for r in rays for s in rays}
        return self._cache["ray_products"]

    def validate(self) -> list:
        """The failures of the operation's laws on the carrier
        (``operation_failures``), empty when it is biadditive and closed."""
        return self.carrier.operation_failures(self)


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
