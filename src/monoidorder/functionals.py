"""Positive additive functionals on finitely generated ordered subgroups.

The reduced group of a carrier is partially ordered by its positivity
cone.  A finite set of classes generates a subgroup; rational additive
functionals that are nonnegative on its positive part form a dual cone,
whose extreme rays are the extremal functionals.  This module computes
those rays exactly, checks the quadratic identity that forces extremal
functionals to become multiplicative after rescaling, and runs the
verdict-level audits (commutativity/associativity up to equivalence,
and weak-implies-strong localizability on ordered lattice carriers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Optional, Sequence

from .exactmath import (
    InputError,
    InternalCheckError,
    IntegerLattice,
    RationalCone,
    as_int_vector,
    certify_extreme_rays,
    echelon_solve,
    is_zero_vector,
    vadd,
    vdot,
    vneg,
    vscale,
)
from .grothendieck import nabla
from .localizability import (WeakLocalizabilityCertificate, is_left_localizable,
                             is_strongly_localizable, is_weakly_localizable)
from .monoids import (
    BiadditiveOp,
    FiniteMonoid,
    LatticeMonoid,
    leq,
)


# ---------------------------------------------------------------------------
# finitely generated ordered subgroups of the reduced group


def _exact_ints(vec) -> tuple[int, ...]:
    """Fraction tuple -> int tuple, demanding integrality (no rescaling)."""
    out = []
    for x in vec:
        f = Fraction(x)
        if f.denominator != 1:
            raise InternalCheckError(f"expected an integer vector, got {vec!r}")
        out.append(int(f))
    return tuple(out)


class OrderedSubgroup:
    """Subgroup of the reduced group generated by finitely many classes.

    The subgroup is stored through an integer basis (``span_basis``) of a
    common-denominator rescaling of the classes; every member then has
    unique integer coordinates.  ``positive_cone`` cuts the subgroup with
    the closed positivity cone of the ambient reduced group, expressed in
    those coordinates, so functional positivity can be decided by finitely
    many ray evaluations.
    """

    def __init__(self, reduction, classes: Sequence):
        self.reduction = reduction
        seen = []
        for c in classes:
            if c not in seen:
                seen.append(c)
        self.generating_set = tuple(seen)
        # the zero-rank subgroup, until a nonzero class spans more
        self.scale = 1
        self.lattice = None
        self.span_basis = ()
        self.rank = 0
        self.positive_cone = None
        if reduction.kind == "finite":
            # torsion classes admit no nonzero rational additive functional
            return
        vecs = [tuple(Fraction(x) for x in c) for c in self.generating_set]
        self.scale = lcm(*(x.denominator for v in vecs for x in v))
        scaled = [_exact_ints(vscale(self.scale, v)) for v in vecs]
        nonzero = [v for v in scaled if any(v)]
        if not nonzero:
            return
        self.lattice = IntegerLattice(reduction.rank, nonzero)
        self.span_basis = tuple(tuple(row) for row in self.lattice.basis)
        self.rank = len(self.span_basis)
        normals = []
        for h in reduction.ambient_forms:
            row = tuple(vdot(h, b) for b in self.span_basis)
            if not is_zero_vector(row):
                normals.append(row)
        if normals:
            self.positive_cone = RationalCone.from_inequalities(normals, self.rank)
        else:
            # no ambient constraint: the whole subgroup is positive
            unit = [tuple(1 if j == i else 0 for j in range(self.rank))
                    for i in range(self.rank)]
            self.positive_cone = RationalCone.from_rays(
                unit + [vneg(u) for u in unit], self.rank)
        for c in self.generating_set:
            if self.coordinates(c) is None:
                raise InternalCheckError("generating class escaped its own span")
        for ray in self.positive_cone.v_rep:
            if not reduction.closed_member(self.class_from_coordinates(ray)):
                raise InternalCheckError(
                    "subgroup positivity cone escaped the ambient cone")

    # -- coordinates -------------------------------------------------------

    def coordinates(self, classvec) -> Optional[tuple[int, ...]]:
        """Integer coordinates of a class on ``span_basis``; None if outside."""
        if self.rank == 0:
            if self.reduction.kind == "finite":
                return () if classvec == 0 else None
            v = tuple(Fraction(x) for x in classvec)
            return () if all(x == 0 for x in v) else None
        v = vscale(self.scale, tuple(Fraction(x) for x in classvec))
        if any(x.denominator != 1 for x in v):
            return None
        return self.lattice.coordinates(_exact_ints(v))

    def class_from_coordinates(self, coords) -> tuple:
        if self.rank == 0:
            raise InputError("zero-rank subgroup has no nonzero classes")
        acc = tuple(Fraction(0) for _ in range(self.reduction.rank))
        for c, b in zip(coords, self.span_basis):
            acc = vadd(acc, vscale(Fraction(c, self.scale), b))
        return acc

    def class_of(self, element) -> tuple:
        return self.reduction.iota(element)

    def element_coordinates(self, element) -> tuple[int, ...]:
        c = self.coordinates(self.class_of(element))
        if c is None:
            raise InputError(
                f"element {element!r} falls outside the generated subgroup")
        return c

    def describe(self) -> dict:
        return {
            "ambient": self.reduction.describe(),
            "generators": [list(g) if isinstance(g, tuple) else g
                           for g in self.generating_set],
            "rank": self.rank,
            "scale": self.scale,
            "span_basis": [list(b) for b in self.span_basis],
            "positive_rays": ([list(r) for r in self.positive_cone.v_rep]
                              if self.positive_cone is not None else []),
        }


def span_of_elements(m, elements: Sequence) -> OrderedSubgroup:
    """Subgroup of the level-1 reduced group generated by the classes of
    ``elements``."""
    nr = nabla(m, 1)
    classes = [nr.iota(e) for e in elements]
    return OrderedSubgroup(nr, classes)


def span_with_products(op: BiadditiveOp, elements: Sequence) -> OrderedSubgroup:
    """Subgroup of the level-1 reduced group generated by the classes of
    ``elements`` and all their products."""
    nr = nabla(op.carrier, 1)
    elements = list(elements)
    products = [op.mu(f, g) for f in elements for g in elements]
    classes = [nr.iota(e) for e in elements] + [nr.iota(p) for p in products]
    return OrderedSubgroup(nr, classes)


# ---------------------------------------------------------------------------
# additive functionals


@dataclass
class AdditiveFunctional:
    """Rational additive functional on an ordered subgroup.

    ``coefficients`` act on ``span_basis`` coordinates; positivity is
    checked on the extreme rays of the subgroup's positivity cone at
    construction time.  ``ambient_covector`` is a primitive integer
    covector on class coordinates inducing the same values (a convenience
    for printing; evaluation always goes through the coordinates).
    """

    subgroup: OrderedSubgroup
    coefficients: tuple
    extremal: bool = False
    ambient_covector: Optional[tuple[int, ...]] = None
    carrier_covector: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        if len(coeffs) != self.subgroup.rank:
            raise InputError("coefficient count does not match the subgroup rank")
        object.__setattr__(self, "coefficients", coeffs)
        if self.subgroup.positive_cone is not None:
            for ray in self.subgroup.positive_cone.v_rep:
                if vdot(coeffs, ray) < 0:
                    raise InputError(
                        f"functional is negative on the positive ray {list(ray)}")
        if self.ambient_covector is None and self.subgroup.rank > 0:
            object.__setattr__(self, "ambient_covector",
                               _ambient_covector(self.subgroup, coeffs))
        if self.carrier_covector is None and self.ambient_covector is not None:
            object.__setattr__(self, "carrier_covector",
                               _carrier_covector(self.subgroup,
                                                 self.ambient_covector))

    def value_on_coordinates(self, coords) -> Fraction:
        return Fraction(vdot(self.coefficients, coords)) if coords else Fraction(0)

    def value_on_element(self, element) -> Fraction:
        return self.value_on_coordinates(self.subgroup.element_coordinates(element))

    def scaled(self, factor) -> "AdditiveFunctional":
        q = Fraction(factor)
        if q <= 0:
            raise InputError("functionals are rescaled by positive rationals only")
        return AdditiveFunctional(self.subgroup,
                                  tuple(q * c for c in self.coefficients),
                                  extremal=self.extremal,
                                  ambient_covector=self.ambient_covector)

    def describe(self) -> dict:
        return {
            "coefficients": [str(c) for c in self.coefficients],
            "ambient_covector": (list(self.ambient_covector)
                                 if self.ambient_covector is not None else None),
            "carrier_covector": (list(self.carrier_covector)
                                 if self.carrier_covector is not None else None),
            "extremal": self.extremal,
        }


def _ambient_covector(sub: OrderedSubgroup, coeffs) -> Optional[tuple[int, ...]]:
    """Primitive integer covector on class coordinates matching the functional.

    Solves ``a . basis_i = scale * coeffs_i``; the solution is a covector on
    the ambient class space whose restriction to the subgroup agrees with the
    functional up to the positive factor cleared at the end.
    """
    return _covector(sub.span_basis, [Fraction(sub.scale) * c for c in coeffs])


def _carrier_covector(sub: OrderedSubgroup,
                      class_cov: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Primitive covector on carrier coordinates inducing the class covector.

    Found by matching values on a basis of the difference span; the result
    represents the functional up to a positive factor (reporting aid only).
    """
    red = sub.reduction
    if red.kind == "finite":
        return None
    rows = red.monoid.span_basis
    if not rows:
        return None
    return _covector(rows, [vdot(class_cov, red.project(r)) for r in rows])


def _covector(rows, values) -> Optional[tuple[int, ...]]:
    """The primitive integer covector on the ray of the solution a of
    ``a . rows[i] == values[i]`` whose free unknowns are 0, or None."""
    sol = echelon_solve(rows, values)
    return None if sol is None else as_int_vector(sol)


def positive_functionals(h: OrderedSubgroup) -> list[AdditiveFunctional]:
    """Extremal positive additive functionals of the subgroup.

    Extreme rays of the dual cone of the subgroup's positivity cone, in
    primitive integer form.  Each ray is certified genuinely extreme (it is
    not a nonnegative combination of the remaining generators) and every
    positive covector is certified to decompose over the returned rays.
    """
    if h.rank == 0 or h.positive_cone is None:
        return []
    dual = h.positive_cone.dual()
    rays = list(dual.extreme_rays)
    lin = list(dual.lineality_basis)
    out = []
    for r in sorted(rays):
        out.append(AdditiveFunctional(h, tuple(Fraction(x) for x in r), extremal=True))
    # no dual ray is a nonnegative combination of the other generators:
    # the dual cone is cut out by the positive cone's generators, so each
    # ray's tight generators have rank ``rank - 1 - dim L``, and the rays
    # are pairwise distinct modulo the lineality space L
    certify_extreme_rays(h.positive_cone.v_rep, rays, lin)
    _certify_decomposition(h, rays, lin)
    return out


def _certify_decomposition(h: OrderedSubgroup, rays, lin) -> None:
    """Every positive covector must decompose over the dual generators.

    The generators cut out the cone K of points they are all nonnegative
    on.  If K lies in the positivity cone P then, dually, every covector
    nonnegative on P is nonnegative on K, and K's dual is the cone the
    generators span (Farkas).  So the check is complete.
    """
    cut = RationalCone.from_inequalities(rays + lin + [vneg(v) for v in lin], h.rank)
    if not h.positive_cone.contains_cone(cut):
        raise InternalCheckError("a positive covector escaped the computed dual cone")


# ---------------------------------------------------------------------------
# the quadratic identity and multiplicative normalization


def _shown(x):
    """An element as a report value: a finite carrier's int as it is, a
    vector as a tuple."""
    return x if isinstance(x, int) else tuple(x)


def _largest_element(m, elements):
    for e in elements:
        if all(leq(m, f, e) for f in elements):
            return e
    return None


@dataclass
class NormalizationResult:
    """Outcome of rescaling a functional towards multiplicativity."""

    status: str
    psi: Optional[AdditiveFunctional]
    factor: Optional[Fraction]
    failures: list = field(default_factory=list)
    preconditions: list = field(default_factory=list)
    degenerate_checks: list = field(default_factory=list)
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("multiplicative", "degenerate")

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "factor": None if self.factor is None else str(self.factor),
            "psi": None if self.psi is None else self.psi.describe(),
            "failures": self.failures,
            "preconditions": self.preconditions,
            "degenerate_checks": self.degenerate_checks,
            "reason": self.reason,
        }


def normalize_multiplicative(op: BiadditiveOp, elements: Sequence,
                             phi: AdditiveFunctional) -> NormalizationResult:
    """Rescale ``phi`` so products of generators multiply values exactly.

    ``s`` is the order-largest member of ``elements``.  The quadratic
    identity ``phi(s) phi(mu(f,f')) = phi(mu(f,s)) phi(f')`` is a theorem
    whenever ``s`` damps positivity from the left, every element sits
    below ``s``, and ``phi`` is extremal with positive values at ``s`` and
    at ``mu(s,s)``.  It is checked on all element pairs for the operation
    (precondition ``identity``) and for its opposite
    (``identity-opposite``, with ``s`` damping from the right); each
    reports "precondition-failed" when its hypotheses fail, else
    "identity-holds" or "identity-violated".  With both posed,
    ``psi = (phi(mu(s,s)) / phi(s)^2) phi`` satisfies
    ``psi(mu(f,f')) = psi(f) psi(f')`` on all generator pairs; a failure
    after verified identities marks ``phi`` as non-extremal.

    A vanishing ``phi(s)`` lands in the degenerate branch: positivity
    squeezes ``phi`` to zero on every element (``0 <= phi(f) <= phi(s)``),
    which is verified.  It does not force zero on the products; when
    ``phi`` is nonzero on one, no rescaling is multiplicative and the
    preconditions fail.
    """
    m = op.carrier
    elements = list(elements)
    s = _largest_element(m, elements)
    if s is None:
        return NormalizationResult(
            status="precondition-failed", psi=None, factor=None,
            reason="no member dominates every other")
    phi_s = phi.value_on_element(s)
    if phi_s == 0:
        products = (op.mu(f, fp) for f in elements for fp in elements)
        values = [(x, phi.value_on_element(x)) for x in chain(elements, products)]
        checks = [{"at": _shown(x), "value": str(v), "ok": v == 0} for x, v in values]
        if any(v for _, v in values[:len(elements)]):
            raise InternalCheckError(
                "functional vanishes at the top element but not below it")
        if any(v for _, v in values):
            return NormalizationResult(
                status="precondition-failed", psi=None, factor=None,
                degenerate_checks=checks,
                reason="functional vanishes at the largest element but not "
                       "on every product, so no rescaling is multiplicative")
        return NormalizationResult(
            status="degenerate", psi=None, factor=None,
            degenerate_checks=checks,
            reason="functional vanishes at the largest element, "
                   "hence on every generator and product")
    try:
        phi_ss = phi.value_on_element(op.mu(s, s))
    except InputError:
        phi_ss = None  # the identity cannot be posed

    def identity(side: str, mu) -> str:
        if (is_left_localizable(op, s, side=side).verdict != "yes"
                or phi_ss is None or not phi_s > 0 or not phi_ss > 0):
            return "precondition-failed"
        violated = False
        for f in elements:
            phi_fs = phi.value_on_element(mu(f, s))
            for fp in elements:
                lhs = phi_s * phi.value_on_element(mu(f, fp))
                if lhs != phi_fs * phi.value_on_element(fp):
                    violated = True
        return "identity-violated" if violated else "identity-holds"
    statuses = (identity("left", op.mu), identity("right", lambda a, b: op.mu(b, a)))
    preconditions = [{"name": name, "ok": status == "identity-holds", "detail": status}
                     for name, status in zip(("identity", "identity-opposite"), statuses)]
    if "precondition-failed" in statuses:
        return NormalizationResult(
            status="precondition-failed", psi=None, factor=None,
            preconditions=preconditions,
            reason="the quadratic identity could not even be posed")
    factor = phi_ss / (phi_s * phi_s)
    psi = phi.scaled(factor)
    failures = []
    for f in elements:
        for fp in elements:
            left = psi.value_on_element(op.mu(f, fp))
            right = psi.value_on_element(f) * psi.value_on_element(fp)
            if left != right:
                failures.append({"f": _shown(f), "f_prime": _shown(fp),
                                 "psi_product": str(left),
                                 "value_product": str(right)})
    identity_ok = all(p["ok"] for p in preconditions)
    if failures or not identity_ok:
        if identity_ok and phi.extremal:
            raise InternalCheckError(
                "extremal functional with verified identity fails "
                "multiplicativity after rescaling")
        return NormalizationResult(
            status="not-multiplicative", psi=psi, factor=factor,
            failures=failures, preconditions=preconditions,
            reason="the input functional is not extremal: "
                   + ("the rescaled functional fails multiplicativity"
                      if identity_ok else
                      "the quadratic identity already fails for it"))
    return NormalizationResult(status="multiplicative", psi=psi, factor=factor,
                               preconditions=preconditions)


# ---------------------------------------------------------------------------
# theorem-level verdicts


def _sample_pool(m) -> list:
    if isinstance(m, FiniteMonoid):
        return list(m.elements())
    return m.element_pool(3)


def _pool_products(m, pool: list, ray_product) -> list[list]:
    """``table[i][j] == mu(pool[i], pool[j])`` on a vector carrier, built by
    additivity (see :func:`verify_theorem_main`) from ``ray_product``, the
    product of two rays.  The row of a ray sum ``y + r``
    (``m.ray_sum_parent``) is the row of y plus the row of the ray r, and
    the row of a ray is built alike in the right slot.  A parent need not
    be a pool element (on an open cone it may lie on an excluded face), so
    the memos run over every ray sum they meet.
    """
    zero = (0,) * m.dim

    def by_parents(origin, ray, step):
        """f on the ray sums with ``f(0) == origin``, ``f(r) == ray(r)`` on
        a ray and ``f(y + r) == step(f(y), r)`` above, memoized."""
        memo = {zero: origin}

        def f(x):
            if x not in memo:
                y, r = m.ray_sum_parent(x)
                memo[x] = ray(r) if y == zero else step(f(y), r)
            return memo[x]
        return f

    rays = list(dict.fromkeys(m.rays))
    products = {(r, s): ray_product(r, s) for r in rays for s in rays}
    ray_rows = {}
    for r in rays:
        right = by_parents(zero, lambda s, r=r: products[r, s],
                           lambda v, s, r=r: vadd(v, products[r, s]))
        ray_rows[r] = [right(b) for b in pool]
    left = by_parents([zero] * len(pool), ray_rows.__getitem__,
                      lambda v, r: list(map(vadd, v, ray_rows[r])))
    return [left(a) for a in pool]


def _commutativity_sweep(m, pool: list, table, members: Optional[set],
                         class_key) -> tuple[list, int]:
    """The commutativity failures on the pool, and their exact count, read
    off ``table[i][j] == mu(pool[i], pool[j])`` in pool order.

    An exact failure is a pair of differing entries, and only there are
    the classes compared, by ``class_key``.  On a lattice monoid whose
    cone has no lineality space the facet normals tell every two points of
    the span apart, so ``approx`` is equality on the members, which every
    compared product is, and differing entries fail with no class key.

    ``members`` holds the elements known to be members, None under
    closure.  Otherwise each compared product outside it is checked at
    its first comparison, ``ab`` before ``ba``, as a plain sweep meets it,
    so the first error raised is that sweep's; each product that passes
    joins ``members``.
    """
    exact = isinstance(m, LatticeMonoid) and not m.lineality_coordinates()
    fail, exact_fail = [], 0
    for a, row, column in zip(pool, table, zip(*table)):
        for b, ab, ba in zip(pool, row, column):
            if members is not None:
                for x in (ab, ba):
                    if x not in members:
                        m.check_element(x)
                        members.add(x)
            if ab != ba:
                exact_fail += 1
                if exact or class_key(ab) != class_key(ba):
                    fail.append({"a": a, "b": b, "ab": ab, "ba": ba})
    return fail, exact_fail


def verify_theorem_main(op: BiadditiveOp,
                        weak: Optional[WeakLocalizabilityCertificate] = None) -> dict:
    """Commutativity and associativity up to equivalence, on the pool.

    ``weak`` is the weak-localizability certificate the verdict rests on,
    searched for at the default budget when not given.  Unless it says
    yes the laws are still checked, in observation mode.  Both laws are
    also checked for on-the-nose equality, whose failures are reported
    separately (they are expected on carriers where the equivalence is
    coarser than equality).  For each law, ``checked`` counts the pool
    pairs (commutativity) or triples (associativity) that are covered,
    either by that law's generator proof below or by its sweep.

    Membership is checked only where it is not already proven.  The pool
    elements are members: on a lattice monoid they are sums of
    generators, members by definition, and on an open cone
    ``element_pool`` keeps the ray sums that are members.  On a
    lattice monoid, if every product of two generators is a member, then
    by biadditivity so is every product of members: with ``x = sum a_i g_i``
    and ``y = sum b_j g_j``, ``mu(x, y) = sum a_i b_j mu(g_i, g_j)`` is a
    sum of members.  So once that closure holds, no product needs
    ``check_element``.  Closure is decided first, by ``contains`` on the
    generator products (the generators are pool elements).  A finite
    carrier is closed: every entry of the operation's table is an element.
    Every product on an open-cone carrier keeps the check.

    The generator proof, one law at a time.  On a lattice monoid with
    closure, each law is decided exactly on the generators: commutativity
    on the g^2 pairs, associativity on the g^3 triples.  ``mu`` is
    bilinear (a tensor), so ``mu(a, b) - mu(b, a)`` is bilinear in its
    operands; expanding each operand over the generators writes it, on
    elements of the Z-span of the generators, as an integer combination
    of its values on generator pairs, so it vanishes on that span iff it
    vanishes on the generators.  Every pool element is a sum of
    generators, so exact commutativity on the generators gives exact
    equality on every pool pair, and exact equality implies ``approx``
    (the class key is a function of the element).  The same argument,
    with the trilinear ``mu(mu(a, b), c) - mu(a, mu(b, c))`` and the
    generator triples, takes exact associativity on the generators to
    every pool triple.  Closure means that no compared product needs
    ``check_element``, so a sweep would raise no error either.  A law
    that holds on the generators therefore gets the report its sweep
    would produce (n^2 pairs or n^3 triples checked, no failures, no
    exact failures) without a sweep; only a law that fails there is
    swept.

    A finite carrier takes the same proof on its generators and 0.  There
    ``mu`` is additive in each slot (the contract of a finite
    :class:`BiadditiveOp`; ``load_instance`` validates a file's table),
    and every element is a nonempty sum of listed elements: 0 is listed,
    and any other element is a sum of generators.  Expanding both operands,
    ``mu(a, b)`` is the sum of ``mu(s, t)`` over the summands s of a and t
    of b, and ``mu(b, a)`` the sum of the same terms swapped, so exact
    commutativity on the listed pairs gives it on every pair; the triples
    alike.  0 must be listed, as ``mu(0, x)`` is only known to be
    idempotent, not 0.  The pool is every element.  On an open cone both
    laws are swept.

    The sweeps read the product of two pool elements off one table,
    ``table[i][j] == mu(pool[i], pool[j])``.  On a finite carrier the pool
    is every element in order, so the table is ``op.table``.  On a vector
    carrier it is built by additivity (:func:`_pool_products`): every pool
    element ``x != 0`` is a ray sum ``y + r`` with y one ray shorter, and
    ``mu`` is a tensor, so ``mu(y + r, b) == mu(y, b) + mu(r, b)`` and
    ``mu(0, b) == 0`` exactly; the right slot alike.  ``op.mu`` runs on
    ray pairs only, which on a lattice monoid are the generator pairs that
    deciding closure has already multiplied.  Pools and tensors are
    integer, so each entry has the value and the type (``int``) that
    ``op.mu`` gives.  The
    pair sweep (:func:`_commutativity_sweep`) compares ``table[i][j]``
    with ``table[j][i]``.  The triple sweep interns each element once to
    an int index, so exact equality is equality of indices; its memo of
    products per left operand starts from the table, beyond which
    ``op.mu`` runs once per distinct pair of indices, a product not seen
    before getting the next index.  Both sweeps decide ``approx`` by the
    carrier's ``class_key``, computed once per distinct compared element.
    Without closure, each compared element not yet known to be a member
    (the pool elements are, and so is each product that passed) is
    checked at its first comparison.

    The pairs are swept before the triples, each in pool order.  Since
    ``op.mu`` is pure, a tensor adds exactly and deciding closure refuses
    no element, the report and the first error raised (say, a product
    outside the carrier) are those of a plain sweep that calls ``op.mu``
    and ``approx`` on every pair and triple.
    """
    m = op.carrier
    if weak is None:
        weak = is_weakly_localizable(op)
    mode = "certified" if weak.verdict == "yes" else "observation"
    pool = _sample_pool(m)
    n = len(pool)
    index: dict = {}    # element, as its report key -> its index
    keys: list = []     # index -> report key
    rows: list = []     # index -> {right index: index of the product}

    def intern(x) -> int:
        k = x if isinstance(x, int) else tuple(x)
        i = index.get(k)
        if i is None:
            i = index[k] = len(keys)
            keys.append(k)
            rows.append({})
        return i

    def mul(i: int, j: int) -> int:
        row = rows[i]
        p = row.get(j)
        if p is None:
            p = row[j] = intern(op.mu(keys[i], keys[j]))
        return p

    ids = [intern(x) for x in pool]
    if isinstance(m, FiniteMonoid):
        gens = [index[0]] + [index[g] for g in m.generators()]
        closed = True
    elif isinstance(m, LatticeMonoid):
        gens = list(dict.fromkeys(index[g] for g in m.generators))
        closed = all(m.contains(keys[mul(g, h)]) for g in gens for h in gens)
    else:
        gens, closed = [], False

    # the elements known to be members, None when closure makes every
    # product one; each element's class key, by value
    members = None if closed else set(pool)
    class_keys: dict = {}

    def class_key(x):
        if x not in class_keys:
            class_keys[x] = m.class_key(x)
        return class_keys[x]

    def class_of(i: int):
        k = keys[i]
        if members is not None and k not in members:
            m.check_element(k)
            members.add(k)
        return class_key(k)

    def triple_sweep() -> tuple:
        """The associativity failures on the pool, and their exact count."""
        fail, exact_fail = [], 0
        for a in ids:
            for b in ids:
                ab = mul(a, b)
                for c in ids:
                    left = mul(ab, c)
                    right = mul(a, mul(b, c))
                    if left != right:
                        exact_fail += 1
                    if class_of(left) != class_of(right):
                        fail.append({"a": keys[a], "b": keys[b], "c": keys[c],
                                     "left": keys[left], "right": keys[right]})
        return fail, exact_fail

    commutes = closed and all(mul(a, b) == mul(b, a) for a in gens for b in gens)
    associates = closed and all(mul(mul(a, b), c) == mul(a, mul(b, c))
                                for a in gens for b in gens for c in gens)
    if commutes and associates:
        table = None
    elif isinstance(m, FiniteMonoid):
        table = op.table
    else:
        table = _pool_products(m, pool, lambda r, s: keys[mul(intern(r), intern(s))])
    comm_fail, comm_exact_fail = (
        ([], 0) if commutes
        else _commutativity_sweep(m, pool, table, members, class_key))
    if associates:
        assoc_fail, assoc_exact_fail = [], 0
    else:
        for a, row in zip(ids, table):
            rows[a].update(zip(ids, map(intern, row)))
        assoc_fail, assoc_exact_fail = triple_sweep()
    ok = not comm_fail and not assoc_fail
    return {
        "mode": mode,
        "weak_certificate": {"verdict": weak.verdict, "method": weak.method,
                             "reason": weak.reason},
        "claimed": mode == "certified" and ok,
        "ok": ok,
        "pool_size": n,
        "commutativity": {"checked": n * n,
                          "failures": comm_fail,
                          "exact_equality_failures": comm_exact_fail},
        "associativity": {"checked": n ** 3,
                          "failures": assoc_fail,
                          "exact_equality_failures": assoc_exact_fail},
    }


def weak_implies_strong_audit(op: BiadditiveOp, budget: int = 8) -> dict:
    """On ordered lattice carriers, a weak certificate must upgrade to strong.

    The hypothesis (an archimedean directed instance) is read from the
    carrier: a vector carrier with no excluded face (a lattice, or a closed
    cone such as the orthant of ``Q^d``) whose closed positivity cone is
    pointed.  A weak refutation makes the audit vacuous; a weak certificate
    alongside a strong refutation is a reported discrepancy.
    """
    m = op.carrier
    if isinstance(m, FiniteMonoid) or m.open_normals:
        return {"status": "skipped", "ok": True,
                "reason": "hypothesis needs a lattice carrier"}
    if not m.cone.is_pointed():
        return {"status": "skipped", "ok": True,
                "reason": "hypothesis needs a pointed positivity cone"}
    weak = is_weakly_localizable(op, budget=budget)
    if weak.verdict == "no":
        return {"status": "vacuous", "ok": True,
                "reason": f"not weakly localizable: {weak.reason}",
                "weak": weak.as_dict()}
    if weak.verdict == "unknown":
        return {"status": "inconclusive", "ok": True,
                "reason": f"weak search exhausted: {weak.reason}",
                "weak": weak.as_dict()}
    strong = is_strongly_localizable(op, budget=budget)
    if strong["verdict"] == "unknown":
        return {"status": "inconclusive", "ok": True,
                "reason": f"strong search exhausted: {strong['reason']}",
                "weak": weak.as_dict(), "strong": strong}
    ok = strong["verdict"] == "yes"
    return {
        "status": "confirmed" if ok else "discrepancy",
        "ok": ok,
        "weak": weak.as_dict(),
        "strong": strong,
        "reason": ("weak certificate upgraded to strong" if ok else
                   "weak certificate without strong localizability"),
    }
