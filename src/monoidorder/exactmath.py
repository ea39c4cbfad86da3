"""Exact rational and integer linear algebra.

Everything downstream (orders on monoids, cone reductions, functional
enumeration) reduces to a handful of primitives implemented here:

* vector/matrix arithmetic over ``fractions.Fraction`` and ``int``,
* the double description method for converting between generator and
  inequality representations of rational polyhedral cones,
* exact LP feasibility (phase-one simplex with Bland's rule), which no
  program path runs: cones are certified by their structure, and the
  simplex is kept as the tests' reference,
* the Hermite normal form of integer matrices; rank, solutions and kernels
  over the rationals are read off it, whose only rational step is
  back-substitution on its pivots, and integer solves, kernels and
  unimodular transforms off the Hermite form of ``[A | I]``,
* complete search for nonnegative integer combinations (membership in a
  finitely generated monoid), plus the bounded search kept as a reference.

No floating point is used anywhere.  ``fractions.Fraction`` already
provides canonical reduced rationals with positive denominators, so no
wrapper scalar type is introduced.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Iterable, Optional, Sequence


class InputError(ValueError):
    """Malformed input: dimension mismatch, non-integer entry, bad element."""


class ResourceBudgetError(RuntimeError):
    """An explicitly budgeted search exceeded its configured budget."""


class InternalCheckError(RuntimeError):
    """A redundant internal cross-check failed; indicates a genuine bug."""


# ---------------------------------------------------------------------------
# vector helpers


def vadd(a, b):
    return tuple(map(add, a, b))


def vsub(a, b):
    return tuple(map(sub, a, b))


def vneg(a):
    return tuple(map(neg, a))


def vscale(c, a):
    return tuple([c * x for x in a])


def vdot(a, b):
    if len(a) != len(b):
        raise InputError(f"dot product of vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def is_zero_vector(a) -> bool:
    return not any(a)


def as_int_vector(a) -> tuple[int, ...]:
    """Clear denominators and return the primitive integer vector on the
    same ray as ``a`` (entries ``int``, ``Fraction`` or anything
    ``Fraction`` accepts); the zero vector maps to zero.

    When every entry is exactly an ``int`` there is no denominator to
    clear, and the answer is ``primitive(a)`` with no ``Fraction`` built.
    """
    a = tuple(a)
    if all(type(x) is int for x in a):
        return primitive(a)
    fracs = [x if type(x) is Fraction else Fraction(x) for x in a]
    if not any(fracs):
        return tuple(0 for _ in fracs)
    denom = lcm(*(f.denominator for f in fracs))
    return primitive([f.numerator * (denom // f.denominator) for f in fracs])


def primitive(a: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = gcd(*a)
    if g == 1:
        return tuple(a)
    if g == 0:
        return tuple(0 for _ in a)
    return tuple([x // g for x in a])


def sign_canonical(a: Sequence[int]) -> tuple[int, ...]:
    """Flip sign so the first nonzero entry is positive (for lines only)."""
    for x in a:
        if x != 0:
            return tuple(a) if x > 0 else tuple(-y for y in a)
    return tuple(a)


# ---------------------------------------------------------------------------
# integer determinant (Bareiss, fraction free)


def int_det(mat: Sequence[Sequence[int]]) -> int:
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise InputError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        ak = a[k]
        if ak[k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], ak
            ak = a[k]
            sign = -sign
        p = ak[k]
        for i in range(k + 1, n):
            ai = a[i]
            c = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * p - c * ak[j]) // prev
            ai[k] = 0
        prev = p
    return sign * a[-1][-1]


def int_adjugate(mat: Sequence[Sequence[int]]) -> tuple[int, Optional[list[list[int]]]]:
    """``(det M, adj M)`` of a square integer matrix, with
    ``M adj(M) == det(M) I``; ``(0, None)`` when M is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968) on ``[M | I]``:
    step k clears column k in every other row as ``(p a_ij - a_ik a_kj) /
    prev``, p the pivot and prev the pivot before it, and each division is
    exact (the entries are minors of the augmented matrix).  The rows end
    at ``[d I | d (PM)^-1 P]`` for the row permutation P of the pivot
    swaps, ``d = det(PM)``; multiplying by the sign of P gives ``det M``
    and ``adj M = det(M) M^-1``.
    """
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise InputError("adjugate of a non-square matrix")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    sign = prev = 1
    for k in range(n):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0, None
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak = a[k]
        p = ak[k]
        for i, ai in enumerate(a):
            c = ai[k]
            if i != k:
                a[i] = [(p * x - c * y) // prev for x, y in zip(ai, ak)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


# ---------------------------------------------------------------------------
# phase-one simplex (exact, Bland's rule)


def _phase_one(columns: list[list[Fraction]], rhs: list[Fraction]) -> Optional[list[Fraction]]:
    """Feasibility of ``A q = b, q >= 0`` with A given column-wise.

    Returns a solution vector q or None.  Bland's rule prevents cycling; all
    arithmetic is exact so there is no tolerance anywhere.  Only
    :func:`solve_nonneg_rational` and :func:`lp_feasible`, the tests'
    reference, call it.
    """
    m = len(rhs)
    n = len(columns)
    # tableau rows: [A | I | b], artificial basis
    rows = []
    for i in range(m):
        row = [columns[j][i] for j in range(n)]
        b = rhs[i]
        if b < 0:
            row = [-x for x in row]
            b = -b
        row += [Fraction(0)] * m
        row[n + i] = Fraction(1)
        row.append(b)
        rows.append(row)
    basis = [n + i for i in range(m)]
    # objective: minimize sum of artificials; z-row holds reduced costs
    # (sum of rows minus the unit cost of each artificial, so that basic
    # artificial columns start at reduced cost zero)
    z = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            z[j] += rows[i][j]
    for i in range(m):
        z[n + i] -= 1
    while True:
        enter = next((j for j in range(n + m) if j not in basis and z[j] > 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            raise InternalCheckError("phase-one objective unbounded")
        _, leave = best
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        if z[enter] != 0:
            f = z[enter]
            z = [x - f * y for x, y in zip(z, rows[leave])]
        basis[leave] = enter
    if z[-1] != 0:
        return None
    sol = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            sol[var] = rows[i][-1]
    return sol


def solve_nonneg_rational(generators: Sequence[Sequence], target: Sequence) -> Optional[list[Fraction]]:
    """Exact coefficients q >= 0 with ``sum(q[i] * generators[i]) == target``.

    No program path calls it; it is the tests' reference for the cone
    certificates, and the benchmark's tracer keeps it, by name.  Returns
    None when no nonnegative rational combination exists.  The returned
    certificate always re-validates by direct substitution.
    """
    if not generators:
        return [] if all(Fraction(x) == 0 for x in target) else None
    dim = len(generators[0])
    for g in generators:
        if len(g) != dim:
            raise InputError("generator dimension mismatch")
    if len(target) != dim:
        raise InputError("target dimension mismatch")
    cols = [[Fraction(g[i]) for i in range(dim)] for g in generators]
    rhs = [Fraction(x) for x in target]
    sol = _phase_one(cols, rhs)
    if sol is None:
        return None
    check = [sum(sol[j] * cols[j][i] for j in range(len(cols))) for i in range(dim)]
    if check != rhs:
        raise InternalCheckError("simplex certificate failed re-substitution")
    return sol


def lp_feasible(n_vars: int,
                eqs: Sequence[tuple[Sequence, object]] = (),
                ineqs: Sequence[tuple[Sequence, object]] = ()) -> Optional[list[Fraction]]:
    """Feasibility of ``coeffs.x == rhs`` (eqs) and ``coeffs.x >= rhs`` (ineqs).

    No program path calls it; it is a test reference, and the benchmark's
    tracer keeps it, by name.  Variables are free; internally split into
    positive and negative parts plus one surplus variable per inequality.
    """
    rows = []
    rhs = []
    for coeffs, b in eqs:
        rows.append((list(coeffs), Fraction(b), None))
    for k, (coeffs, b) in enumerate(ineqs):
        rows.append((list(coeffs), Fraction(b), k))
    n_slack = len(ineqs)
    total = 2 * n_vars + n_slack
    cols = [[Fraction(0)] * len(rows) for _ in range(total)]
    target = []
    for i, (coeffs, b, slack) in enumerate(rows):
        if len(coeffs) != n_vars:
            raise InputError("constraint arity mismatch")
        for j, c in enumerate(coeffs):
            f = Fraction(c)
            cols[j][i] = f
            cols[n_vars + j][i] = -f
        if slack is not None:
            cols[2 * n_vars + slack][i] = Fraction(-1)
        target.append(b)
    sol = _phase_one(cols, target)
    if sol is None:
        return None
    return [sol[j] - sol[n_vars + j] for j in range(n_vars)]


# ---------------------------------------------------------------------------
# double description


def _dd_insert(normal, idx, lineality, rays):
    """Insert one inequality ``normal . x >= 0`` into the (L, R) pair.

    ``lineality`` spans the cone's lineality space; ``rays`` pairs each
    extreme ray with its zero set, the indices of the inequalities inserted
    so far that vanish on it.  If ``normal`` is nonzero on the lineality
    space, its first such line ``l0`` (oriented so ``normal . l0 > 0``)
    becomes a ray, and every other line and ray is moved onto the
    hyperplane along ``l0``.  Otherwise Motzkin's step keeps the rays with
    ``normal . r >= 0`` and adds ``(normal . rp) rn - (normal . rn) rp`` for
    every pair of a positive ray ``rp`` and a negative ray ``rn`` that are
    adjacent.  Adjacency is the combinatorial test (Fukuda and Prodon,
    "Double description method revisited", 1996): the pair is adjacent iff
    no third ray's zero set contains ``Z(rp) & Z(rn)``.  Both rays of the
    pair contain that intersection, so it is adjacent iff exactly two zero
    sets do.  Every new vector is made primitive.
    """
    dots = [sum(map(mul, normal, l)) for l in lineality]
    pivot = next((i for i, d in enumerate(dots) if d), None)
    if pivot is not None:
        l0, d0 = lineality[pivot], dots[pivot]
        if d0 < 0:
            l0, d0 = tuple(map(neg, l0)), -d0
        # lines and rays are primitive, so one the normal vanishes on stays
        new_lin = [primitive([d0 * x - d * y for x, y in zip(l, l0)]) if d else l
                   for i, (l, d) in enumerate(zip(lineality, dots)) if i != pivot]
        new_rays = []
        for r, zs in rays:
            d = sum(map(mul, normal, r))
            if d:
                r = primitive([d0 * x - d * y for x, y in zip(r, l0)])
            new_rays.append((r, zs | {idx}))
        new_rays.append((l0, frozenset(range(idx))))
        return new_lin, new_rays
    pos, zero, negative = [], [], []
    for r, zs in rays:
        d = sum(map(mul, normal, r))
        if d > 0:
            pos.append((r, zs, d))
        elif d < 0:
            negative.append((r, zs, d))
        else:
            zero.append((r, zs | {idx}))
    result = [(r, zs) for r, zs, _ in pos] + zero
    if not negative:
        return lineality, result
    zero_sets = [zs for _, zs in rays]
    for rp, zp, dp in pos:
        for rn, zn, dn in negative:
            common = zp & zn
            if sum(map(common.issubset, zero_sets)) == 2:
                result.append((primitive([dp * x - dn * y for x, y in zip(rn, rp)]),
                               common | {idx}))
    return lineality, result


def cone_from_inequalities(normals: Sequence[Sequence[int]], dim: int):
    """Minimal generators of ``{x : n . x >= 0 for all n}``.

    Returns ``(lineality_basis, extreme_rays)``; rays are primitive integer
    vectors reduced modulo the lineality space and sorted, the lineality
    basis is in Hermite normal form.
    """
    cleaned = sorted({primitive([int(x) for x in n]) for n in normals if any(n)})
    for n in cleaned:
        if len(n) != dim:
            raise InputError("inequality normal has wrong dimension")
    lineality = [tuple([int(j == i) for j in range(dim)]) for i in range(dim)]
    rays: list[tuple[tuple[int, ...], frozenset]] = []
    for idx, n in enumerate(cleaned):
        lineality, rays = _dd_insert(n, idx, lineality, rays)
    lin_basis = hermite_normal_form(lineality)
    ray_list = sorted({_reduce_mod_lineality(r, lin_basis) for r, _ in rays})
    return [tuple(row) for row in lin_basis], ray_list


def _reduce_mod_lineality(ray, lin_basis) -> tuple[int, ...]:
    """Canonical representative of a ray modulo the lineality space: the
    primitive vector on the ray of its residue after back-substitution on
    the Hermite rows.  The residue is cleared fraction-free, as
    ``piv * residue - residue[p] * row`` at each pivot p, which is a
    positive multiple (pivots are positive) of the rational residue, so
    the primitive vector is the same."""
    residue = ray
    for row in lin_basis:
        p = next(j for j, x in enumerate(row) if x)
        c, piv = residue[p], row[p]
        if c:
            residue = [piv * x - c * y for x, y in zip(residue, row)]
    return primitive(residue)


def certify_extreme_rays(normals: Sequence[Sequence[int]], rays: Sequence[Sequence[int]],
                         lin: Sequence[Sequence[int]]) -> None:
    """No ray is a nonnegative combination of the other rays and ``±lin``,
    for rays of the cone ``{x : n . x >= 0 for every normal n}`` whose
    lineality space L has the Hermite basis ``lin``.

    A vector r of the cone spans an extreme ray iff the normals tight at r
    (``n . r == 0``) have rank ``d - 1 - dim L`` (Schrijver, *Theory of
    Linear and Integer Programming*, ch. 8); the rank is read off their
    Hermite form.  An extreme ray is a nonnegative combination of other
    generators only if one of them lies on its ray modulo L, so with the
    rays' residues modulo L pairwise distinct, none is.  Each ray is
    checked to lie in the cone, to have that tight rank, and the residues
    to be distinct; a failure raises :class:`InternalCheckError`.
    """
    for r in rays:
        values = [sum(map(mul, n, r)) for n in normals]
        if min(values, default=0) < 0:
            raise InternalCheckError(f"ray {list(r)} lies outside the cone")
        tight = [n for n, v in zip(normals, values) if v == 0]
        if len(hermite_normal_form(tight)) != len(r) - 1 - len(lin):
            raise InternalCheckError(f"ray {list(r)} is a combination of the remaining rays")
    if len({_reduce_mod_lineality(r, lin) for r in rays}) != len(rays):
        raise InternalCheckError("two rays lie on one ray modulo the lineality space")


class RationalCone:
    """A rational polyhedral cone carrying both representations.

    Construct with :meth:`from_rays` or :meth:`from_inequalities`.  The
    complementary representation is computed on demand via the double
    description method, and both are kept in a deterministic canonical
    form: primitive integer vectors, lexicographically sorted (the
    lineality basis additionally in Hermite normal form).  Generators
    computed for a cone given by rays are certified against those rays by
    structure, in integers (:meth:`_certify_generators`): no simplex runs.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rays: Optional[list[tuple[int, ...]]] = None
        self._h_rep: Optional[list[tuple[int, ...]]] = None
        self._extreme: Optional[list[tuple[int, ...]]] = None
        self._lineality: Optional[list[tuple[int, ...]]] = None

    @classmethod
    def from_rays(cls, rays: Iterable[Sequence], dim: Optional[int] = None) -> "RationalCone":
        rays = [as_int_vector(r) for r in rays]
        rays = [r for r in rays if not is_zero_vector(r)]
        if dim is None:
            if not rays:
                raise InputError("cannot infer ambient dimension from no rays")
            dim = len(rays[0])
        for r in rays:
            if len(r) != dim:
                raise InputError("ray dimension mismatch")
        cone = cls(dim)
        cone._rays = sorted(set(rays))
        return cone

    @classmethod
    def from_inequalities(cls, normals: Iterable[Sequence], dim: int) -> "RationalCone":
        normals = [as_int_vector(n) for n in normals]
        normals = [n for n in normals if not is_zero_vector(n)]
        for n in normals:
            if len(n) != dim:
                raise InputError("normal dimension mismatch")
        cone = cls(dim)
        cone._h_rep = sorted(set(normals))
        return cone

    # -- representation conversion ---------------------------------------

    @property
    def h_rep(self) -> list[tuple[int, ...]]:
        if self._h_rep is None:
            dual_lin, dual_rays = cone_from_inequalities(self._rays, self.dim)
            h = list(dual_rays)
            for l in dual_lin:
                h.append(tuple(l))
                h.append(vneg(l))
            self._h_rep = sorted(set(primitive(n) for n in h))
        return self._h_rep

    def _compute_generators(self):
        lin, ext = cone_from_inequalities(self.h_rep, self.dim)
        self._lineality = [tuple(l) for l in lin]
        self._extreme = ext
        if self._rays is not None:
            self._certify_generators()

    def _certify_generators(self):
        """The computed generators span the cone of the input rays, exactly.

        Every input ray must satisfy the h-representation.  Conversely,
        every computed extreme ray must be the residue modulo the lineality
        space L of some input ray r, ``c*r - l`` with ``c > 0`` and l in L
        (a generating set of the pointed cone ``C/L`` holds each of its
        extreme rays).  The input rays whose residue is zero, those on
        which every normal vanishes, must span L and have a strictly
        positive integer relation (:func:`positive_relation`), so their
        cone is L; then ``-l`` and each extreme ray lie in the cone of the
        input rays.  On a pointed cone the residue of r is r itself.  A
        failure raises :class:`InternalCheckError`.
        """
        for r in self._rays:
            if not self.member(r):
                raise InternalCheckError("input ray escaped computed h-representation")
        lin = self._lineality
        residues = [_reduce_mod_lineality(r, lin) for r in self._rays]
        if not set(residues).issuperset(self._extreme):
            raise InternalCheckError("extreme ray not spanned by input rays")
        if lin:
            inner = [r for r, residue in zip(self._rays, residues) if not any(residue)]
            pivots = _pivots(hermite_normal_form(inner))
            if len(pivots) != len(lin):
                raise InternalCheckError("lineality space not spanned by input rays")
            positive_relation(inner, pivots)

    @property
    def extreme_rays(self) -> list[tuple[int, ...]]:
        if self._extreme is None:
            self._compute_generators()
        return self._extreme

    @property
    def lineality_basis(self) -> list[tuple[int, ...]]:
        if self._lineality is None:
            self._compute_generators()
        return self._lineality

    def _generator_set(self) -> list[tuple[int, ...]]:
        gens = list(self.extreme_rays)
        for l in self.lineality_basis:
            gens.append(tuple(l))
            gens.append(vneg(l))
        return gens

    @property
    def v_rep(self) -> list[tuple[int, ...]]:
        if self._rays is not None:
            return list(self._rays)
        return self._generator_set()

    # -- queries ----------------------------------------------------------

    def member(self, x: Sequence) -> bool:
        if len(x) != self.dim:
            raise InputError("point dimension mismatch")
        return all(vdot(n, x) >= 0 for n in self.h_rep)

    def is_pointed(self) -> bool:
        return not self.lineality_basis

    def contains_cone(self, other: "RationalCone") -> bool:
        return all(self.member(g) for g in other.v_rep)

    def same_cone(self, other: "RationalCone") -> bool:
        return self.contains_cone(other) and other.contains_cone(self)

    def dual(self) -> "RationalCone":
        """The cone of functionals nonnegative on this cone."""
        return RationalCone.from_rays(self.h_rep, self.dim)


# ---------------------------------------------------------------------------
# Hermite normal form, and the lattices, solves and kernels read off it


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite normal form; zero rows dropped.

    Pivots are positive, entries above each pivot are reduced to lie in
    ``[0, pivot)``, pivot columns strictly increase down the rows.
    """
    mat = [list(map(int, row)) for row in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    for row in mat:
        if len(row) != ncols:
            raise InputError("ragged matrix")
    cols = range(ncols)
    result: list[list[int]] = []
    pivots: list[int] = []
    work = [row for row in mat if any(row)]
    col = 0
    while work and col < ncols:
        cand = [r for r in work if r[col]]
        if not cand:
            col += 1
            continue
        while len(cand) > 1:
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            p = piv[col]
            for r in cand[1:]:
                q = r[col] // p
                for j in cols:
                    r[j] -= q * piv[j]
            cand = [piv] + [r for r in cand[1:] if r[col]]
        piv = cand[0]
        if piv[col] < 0:
            for j in cols:
                piv[j] = -piv[j]
        result.append(piv)
        pivots.append(col)
        work = [r for r in work if r is not piv and any(r)]
        col += 1
    # reduce entries above pivots, top pivot first: row i is zero left of its
    # pivot, so reducing with it never disturbs an earlier pivot's column,
    # and what it changes right of its pivot the lower rows reduce after it
    for i, (row, pc) in enumerate(zip(result, pivots)):
        p = row[pc]
        for k in range(i):
            above = result[k]
            q = above[pc] // p
            if q:
                for j in cols:
                    above[j] -= q * row[j]
    return result


def _pivots(echelon) -> list[int]:
    return [next(j for j, x in enumerate(row) if x) for row in echelon]


def _back_substitute(echelon, pivots, x) -> tuple[list[Fraction], list[Fraction]]:
    """Coefficients c and the residue ``x - sum(c[i] * echelon[i])``, which
    is zero at every pivot; x lies in the rows' span iff it is zero.

    Each row is zero before its pivot and the pivots increase, so clearing
    x at a row's pivot never disturbs an earlier pivot's entry.
    """
    residue = [Fraction(v) for v in x]
    coords = []
    for row, piv in zip(echelon, pivots):
        c = residue[piv] / row[piv]
        coords.append(c)
        if c:
            for j in range(piv, len(residue)):
                residue[j] -= c * row[j]
    return coords, residue


def _reduced_echelon(rows) -> tuple[list[int], list[list[Fraction]]]:
    """Pivot columns and reduced row echelon form of rational rows.

    Scaling a row by a positive rational keeps the row space, so each row
    is cleared to a primitive integer row and the Hermite form is taken:
    an echelon basis of the same row space.  Every echelon form of it has
    the same pivot columns, the greedily independent columns (row
    operations keep the dependencies among columns).  Reduced row i is
    Hermite row i, back-substituted on the later rows (it is already zero
    at the earlier pivots) and divided by its pivot.
    """
    h = hermite_normal_form([as_int_vector(r) for r in rows])
    pivots = _pivots(h)
    reduced = []
    for i, row in enumerate(h):
        residue = _back_substitute(h[i + 1:], pivots[i + 1:], row)[1]
        reduced.append([v / row[pivots[i]] for v in residue])
    return pivots, reduced


def echelon_solve(rows: Sequence[Sequence], rhs: Sequence) -> Optional[list[Fraction]]:
    """The solution x of ``rows[i] . x == rhs[i]`` whose free unknowns are 0,
    or None when the system is inconsistent.

    On the reduced echelon form of the augmented rows ``rows[i] + (rhs[i],)``
    the system is inconsistent iff the last column is a pivot column;
    otherwise each pivot unknown is its row's last entry.  This is the
    solution Gauss-Jordan elimination finds.
    """
    n = len(rows[0])
    pivots, reduced = _reduced_echelon([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    if n in pivots:
        return None
    sol = [Fraction(0)] * n
    for row, piv in zip(reduced, pivots):
        sol[piv] = row[n]
    return sol


def echelon_kernel(rows: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Basis of ``{x : row . x == 0 for every row}``: for each free column
    f, the unit vector ``e_f`` minus column f of the reduced echelon form
    placed on the pivot unknowns."""
    dim = len(rows[0])
    pivots, reduced = _reduced_echelon(rows)
    basis = []
    for f in range(dim):
        if f in pivots:
            continue
        vec = [Fraction(0)] * dim
        vec[f] = Fraction(1)
        for row, piv in zip(reduced, pivots):
            vec[piv] = -row[f]
        basis.append(tuple(vec))
    return basis


class IntegerLattice:
    """The set of integer combinations of a list of integer vectors."""

    def __init__(self, dim: int, vectors: Iterable[Sequence[int]]):
        self.dim = dim
        self.rows = []
        for v in vectors:
            v = tuple(map(int, v))
            if len(v) != dim:
                raise InputError("lattice vector dimension mismatch")
            self.rows.append(v)
        self.basis = self._hermite()
        self.pivots = _pivots(self.basis)

    def _hermite(self) -> list[tuple[int, ...]]:
        return [tuple(row) for row in hermite_normal_form(self.rows)]

    def coordinates(self, x: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Integer coordinates of x in the HNF basis, or None (also for a
        vector with a non-integral coordinate)."""
        if len(x) != self.dim:
            raise InputError("point dimension mismatch")
        residue = [int(v) for v in x]
        if residue != list(x):
            return None
        coords = []
        for row, piv in zip(self.basis, self.pivots):
            if residue[piv] % row[piv] != 0:
                return None
            c = residue[piv] // row[piv]
            coords.append(c)
            for j in range(self.dim):
                residue[j] -= c * row[j]
        if any(residue):
            return None
        return tuple(coords)

    def rational_coordinates(self, x: Sequence) -> Optional[list[Fraction]]:
        """Rational coordinates of x in the HNF basis, or None off its span.

        Back-substitution on the pivots clears x row by row, and x is in the
        span iff the residue ends at zero.  The rows are independent, so
        these are the only coordinates.
        """
        if len(x) != self.dim:
            raise InputError("point dimension mismatch")
        coords, residue = _back_substitute(self.basis, self.pivots, x)
        return None if any(residue) else coords

    def contains(self, x: Sequence[int]) -> bool:
        return self.coordinates(x) is not None


class IntegerSolver(IntegerLattice):
    """An :class:`IntegerLattice` of rows that also keeps its transform.

    The Hermite form of ``[rows | I]`` has one row per input row, as the
    identity block has full rank, and its right block U is unimodular (it
    is made by row operations) with ``U . rows == [H; 0]``, H the Hermite
    form of the rows.  So ``basis`` and ``pivots`` are the plain lattice's,
    the top rows of U write each basis vector in the rows, and the rows of
    U whose left part is zero, ``relations``, are a basis of the integer
    relations ``{x : x . rows == 0}``.  The reduction above each pivot
    bounds the entries of U as it does those of H.  ``|det U| == 1`` is
    checked here; a failure raises :class:`InternalCheckError`.
    """

    def _hermite(self) -> list[tuple[int, ...]]:
        m = len(self.rows)
        h = hermite_normal_form([row + tuple(int(i == j) for j in range(m))
                                 for i, row in enumerate(self.rows)])
        self.transform = [tuple(row[self.dim:]) for row in h]
        if abs(int_det(self.transform)) != 1:
            raise InternalCheckError("Hermite transform not unimodular")
        rank = sum(1 for row in h if any(row[:self.dim]))
        self.relations = self.transform[rank:]
        return [tuple(row[:self.dim]) for row in h[:rank]]

    def solve(self, rhs: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Integer x with ``sum x_i * rows_i == rhs``, or None: rhs's
        coordinates in the basis times the top rows of U.  x is
        re-substituted; a failure raises :class:`InternalCheckError`."""
        y = self.coordinates(rhs)
        if y is None:
            return None
        x, check = [0] * len(self.rows), [0] * self.dim
        for c, u in zip(y, self.transform):
            if c:
                x = [a + c * b for a, b in zip(x, u)]
        for c, row in zip(x, self.rows):
            if c:
                check = [a + c * b for a, b in zip(check, row)]
        if check != list(rhs):
            raise InternalCheckError("integer solve certificate failed")
        return tuple(x)


def integer_kernel(matrix: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of ``{x integer : matrix . x == 0}`` (x a column vector): the
    integer relations among the matrix's columns, each checked to be
    annihilated by the matrix."""
    if not matrix:
        raise InputError("kernel of an empty matrix needs a dimension")
    basis = IntegerSolver(len(matrix), zip(*matrix)).relations
    if any(vdot(row, x) for x in basis for row in matrix):
        raise InternalCheckError("integer kernel vector not annihilated")
    return basis


def integer_solve(rows: Sequence[Sequence[int]],
                  rhs: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Integer coefficients x with ``sum x_i * rows_i == rhs``, or None."""
    return IntegerSolver(len(rhs), rows).solve(rhs)


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Smith normal form with transformations: returns (U, D, V, V^-1).

    No program path calls it; only the benchmark's tracer keeps it, by name.
    ``U`` and ``V`` are unimodular, ``U . A . V == D``, and the diagonal of
    D is a nonnegative divisibility chain d1 | d2 | ... .  ``V^-1`` is
    carried along the column operations (each one's inverse is applied to
    it from the left), so it is exact and integral.  Verified before
    returning; a failed check raises :class:`InternalCheckError`.
    """
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    if m == 0:
        raise InputError("empty matrix")
    n = len(a[0])
    for row in a:
        if len(row) != n:
            raise InputError("ragged matrix")
    original = [row[:] for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    vinv = [row[:] for row in v]
    rm, rn = range(m), range(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        ai, aj = a[i], a[j]
        for k in rn:
            ai[k] -= q * aj[k]
        ui, uj = u[i], u[j]
        for k in rm:
            ui[k] -= q * uj[k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]
        wi, wj = vinv[i], vinv[j]
        for k in rn:
            wj[k] += q * wi[k]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    t = 0
    while t < min(m, n):
        # find the smallest nonzero entry in the remaining block (the first
        # one in row-major order)
        best, least = None, 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            changed = False
            for i in range(t + 1, m):
                if a[i][t]:
                    row_op(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        swap_rows(t, i)
                    changed = True
            for j in range(t + 1, n):
                if a[t][j]:
                    col_op(j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        swap_cols(t, j)
                    changed = True
            if not changed:
                break
        # ensure the pivot divides everything below-right; if not, merge rows
        p = a[t][t]
        offender = None
        for i in range(t + 1, m):
            row = a[i]
            for j in range(t + 1, n):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # add offender row to pivot row
            continue
        if p < 0:
            row = a[t]
            for k in rn:
                row[k] = -row[k]
            row = u[t]
            for k in rm:
                row[k] = -row[k]
        t += 1

    d = a
    # verify
    if abs(int_det(u)) != 1 or abs(int_det(v)) != 1:
        raise InternalCheckError("SNF transform not unimodular")
    cols = list(zip(*original))
    ua = [[sum(map(mul, row, col)) for col in cols] for row in u]
    cols = list(zip(*v))
    if [[sum(map(mul, row, col)) for col in cols] for row in ua] != d:
        raise InternalCheckError("SNF product check failed")
    cols = list(zip(*vinv))
    if [[sum(map(mul, row, col)) for col in cols] for row in v] \
            != [[int(i == j) for j in rn] for i in rn]:
        raise InternalCheckError("SNF inverse transform check failed")
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(len(diag) - 1):
        if diag[i] == 0 and diag[i + 1] != 0:
            raise InternalCheckError("SNF zero ordering violated")
        if diag[i] != 0 and diag[i + 1] % diag[i] != 0:
            raise InternalCheckError("SNF divisibility chain violated")
    for i in rm:
        for j in rn:
            if i != j and d[i][j] != 0:
                raise InternalCheckError("SNF off-diagonal entry")
    return u, d, v, vinv


# ---------------------------------------------------------------------------
# nonnegative integer combinations


def positive_relation(vectors: Sequence[Sequence[int]],
                      pivots: Sequence[int]) -> tuple[int, ...]:
    """Strictly positive integers r with ``sum(r[i] * vectors[i]) == 0``,
    for integer vectors that positively span their linear span; ``pivots``
    are the pivot columns of their Hermite form.

    A sum of positive circuits of the vectors' distinct directions, each
    read off their entries at the pivots, taken until every direction lies
    in one, then spread over the vectors of each direction.  Such a
    relation exists iff the vectors positively span their span (Bjorner,
    Las Vergnas, Sturmfels, White, Ziegler, Oriented Matroids, 3.4); a
    relation that is not strictly positive, as when they do not, or that
    fails re-substitution raises :class:`InternalCheckError`.
    """
    # If the vectors positively span their span, then by conformal
    # decomposition of a strictly positive relation every vector lies in a
    # positive circuit, and positive circuits that cover every vector sum
    # to a strictly positive relation.  A zero vector, or a repeat or
    # positive multiple of another, adds no other circuit, so the circuits
    # are sought among one primitive direction per class of positively
    # parallel nonzero vectors.  With rho the vectors' rank, every circuit
    # is the one relation, up to scale, among some rho + 1 directions of
    # rank rho: by Cramer's rule, the signed rho-minors of their span
    # coordinates: their entries at the rho Hermite pivots, a linear map
    # that is one-to-one on the span (back-substitution on the pivots
    # recovers a vector of it).  A circuit is added when it covers a
    # direction no earlier one does, so a set of covered directions is not
    # tried.
    rho = len(pivots)
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, u in enumerate(vectors):
        if any(u):
            classes.setdefault(primitive(u), []).append(i)
    members = list(classes.values())
    scale = [gcd(*u) for u in vectors]  # u == scale * primitive(u)
    dirs = [tuple(map(d.__getitem__, pivots)) for d in classes]
    cover = [0] * len(dirs)
    for support in combinations(range(len(dirs)), rho + 1):
        if all(cover):
            break
        if all(map(cover.__getitem__, support)):
            continue
        rows = list(map(dirs.__getitem__, support))
        z = [int_det(rows[:pos] + rows[pos + 1:]) for pos in range(rho + 1)]
        z[1::2] = [-c for c in z[1::2]]
        if max(z) <= 0:
            z = [-c for c in z]
        if min(z) >= 0 and any(c and not cover[t] for c, t in zip(z, support)):
            g = gcd(*z)
            for c, t in zip(z, support):
                cover[t] += c // g
    # direction p with copies u_i == scale_i * p gets cover_p * T spread as
    # cover_p * T / (n_p * scale_i) on each of its n_p copies, T divisible
    # by every such denominator; a zero vector takes any positive coefficient
    t = lcm(1, *(len(ix) * scale[i] for ix in members for i in ix))
    rel = [1] * len(vectors)
    for c, ix in zip(cover, members):
        for i in ix:
            rel[i] = c * t // (len(ix) * scale[i])
    rel = primitive(rel)
    if not all(r > 0 for r in rel):
        raise InternalCheckError("the vectors do not positively span their span")
    if any(sum(map(mul, rel, col)) for col in zip(*vectors)):
        raise InternalCheckError("positive relation failed re-substitution")
    return rel


class CombinationSearch:
    """Complete search for naturals n with ``sum(n[i] * generators[i]) == target``.

    ``normals`` is the h-representation of the cone the generators span
    (:attr:`RationalCone.h_rep`) and ``w`` their sum.  The search rests on a
    split of the generators:

    * a *unit* is a generator on which every normal vanishes, i.e. one in
      the cone's lineality space.  The units span that space as a cone, so
      ``-u`` is a nonnegative integer combination of units for every unit
      ``u``, and the nonnegative integer combinations of units form the
      group ``Z*units``;
    * every other generator is *positive*: ``w(p) > 0``.

    ``w`` vanishes on the units, so every combination satisfies the exact
    weight equality ``sum(n[i] * w(p[i])) == w(target)`` over the positive
    generators.  The depth-first search over positive coefficients under
    that equality therefore has finitely many leaves and no coefficient
    cap; at a leaf the residue must lie in ``Z*units`` (be zero when there
    are no units).  On coordinates no unit touches, a node's residue must
    lie between ``W`` times the least and the greatest ratio ``p[j] / w(p)``
    of the generators from its depth on (``W`` the remaining weight; each
    ratio is kept as an integer pair and compared by cross-multiplication),
    and residues already refuted at a depth are not searched again.  None
    therefore certifies that no combination exists.

    The root is checked against those bounds once; every level but the last
    cuts its coefficient range ahead instead.  The child with coefficient c
    has residue ``r - c*p`` and weight ``W - c*w(p)``, so each of the next
    level's bounds is a linear inequality ``a*c <= b`` in c, and together
    they leave an interval of c.  A child outside it would be rejected on
    entry (by the bounds, or, when no weight is left, by the unit lattice,
    which is zero on those coordinates) without adding to the refuted set.
    So the cut search visits the other children in the same descending
    order, meets the same refuted residues, and ``find`` returns the same
    first certificate as the uncut search.  ``nodes`` counts depth-first
    calls over all ``find`` calls.

    One :class:`IntegerSolver` over the units is built here, so one Hermite
    form of ``[units | I]`` serves every search on this object: a leaf asks
    it whether the residue lies in ``Z*units`` and keeps the integer unit
    coefficients it returns, the certificate uses those coefficients, and
    :meth:`unit_relation`, which shifts negative ones, reads the units'
    span coordinates at the same form's pivots.  No rational simplex is run.
    """

    def __init__(self, generators: Sequence[Sequence[int]], normals: Sequence[Sequence[int]]):
        self.generators = tuple(tuple(map(int, g)) for g in generators)
        if not self.generators:
            raise InputError("combination search needs at least one generator")
        self.dim = len(self.generators[0])
        if any(len(g) != self.dim for g in self.generators):
            raise InputError("generator dimension mismatch")
        normals = [tuple(map(int, n)) for n in normals]
        self.units: list[int] = []
        self.positive: list[int] = []
        self._weights: list[int] = []  # w(p) == sum of the normals' values on p
        for i, g in enumerate(self.generators):
            values = [vdot(n, g) for n in normals]
            if min(values, default=0) < 0:
                raise InputError("generator outside the cone of the given normals")
            if any(values):
                self.positive.append(i)
                self._weights.append(sum(values))
            else:
                self.units.append(i)
        self.weight = tuple(map(sum, zip(*normals))) if normals else (0,) * self.dim
        self._unit_vectors = [self.generators[i] for i in self.units]
        self._unit_solver = IntegerSolver(self.dim, self._unit_vectors)
        free = [j for j in range(self.dim) if not any(u[j] for u in self._unit_vectors)]
        # bounds[i]: (j, lo_n, lo_w, hi_n, hi_w) per free coordinate j, the
        # least and greatest ratio p[j] / w(p) over the positive generators
        # from depth i on, as pairs (p[j], w(p)) with w(p) > 0
        bounds: list[list[tuple]] = []
        later: list[tuple] = []
        for i in reversed(range(len(self.positive))):
            g, w = self.generators[self.positive[i]], self._weights[i]
            if later:  # the bounds from depth i + 1 on, where they win
                rows = []
                for j, lo_n, lo_w, hi_n, hi_w in later:
                    x = g[j]
                    if x * lo_w <= lo_n * w:
                        lo_n, lo_w = x, w
                    if x * hi_w >= hi_n * w:
                        hi_n, hi_w = x, w
                    rows.append((j, lo_n, lo_w, hi_n, hi_w))
            else:
                rows = [(j, g[j], w, g[j], w) for j in free]
            bounds.append(rows)
            later = rows
        bounds.reverse()
        self._root_bounds = bounds[0] if bounds else []
        # _cuts[i], for every depth but the last: the bounds at depth i + 1
        # on the child with coefficient c, as (j, a, s, t) meaning
        # a*c <= s*W - t*r[j] for the node's residue r and weight W.  An
        # inequality with a == 0 is left out: p[i]'s ratio then equals the
        # bound at depth i + 1, so the bound at depth i is the same one,
        # and the node already meets it.
        self._cuts: list[list[tuple]] = []
        for i in range(len(self.positive) - 1):
            g, w = self.generators[self.positive[i]], self._weights[i]
            cut = []
            for j, lo_n, lo_w, hi_n, hi_w in bounds[i + 1]:
                # (r - c*g[j]) * hi_w <= (W - c*w) * hi_n
                # (r - c*g[j]) * lo_w >= (W - c*w) * lo_n
                a = w * hi_n - g[j] * hi_w
                if a:
                    cut.append((j, a, hi_n, hi_w))
                a = g[j] * lo_w - w * lo_n
                if a:
                    cut.append((j, a, -lo_n, -lo_w))
            self._cuts.append(cut)
        self._relation: Optional[tuple[int, ...]] = None
        self.nodes = 0

    def unit_relation(self) -> tuple[int, ...]:
        """Strictly positive integers r with ``sum(r[i] * units[i]) == 0``:
        :func:`positive_relation` of the units, read at the pivots of the
        one Hermite form of ``[units | I]``, built once."""
        if self._relation is None:
            self._relation = positive_relation(self._unit_vectors, self._unit_solver.pivots)
        return self._relation

    def find(self, target: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Nonnegative coefficients over ``generators`` summing to target, or None.

        A returned certificate is re-substituted; a failure raises
        :class:`InternalCheckError`.
        """
        x = tuple(int(v) for v in target)
        if len(x) != self.dim:
            raise InputError("target dimension mismatch")
        total = vdot(self.weight, x)
        if total < 0:
            return None
        for j, lo_n, lo_w, hi_n, hi_w in self._root_bounds:
            if x[j] * hi_w > total * hi_n or x[j] * lo_w < total * lo_n:
                return None
        gens, positive, weights, cuts = self.generators, self.positive, self._weights, self._cuts
        last = len(positive) - 1
        solve_units = self._unit_solver.solve
        coeffs = [0] * len(positive)
        refuted = set()

        def dfs(i, residue, rest) -> Optional[tuple[int, ...]]:
            """The unit coefficients of the first leaf below, or None."""
            self.nodes += 1
            if rest == 0 or i > last:
                return solve_units(residue) if rest == 0 else None
            if (i, residue) in refuted:
                return None
            g, w = gens[positive[i]], weights[i]
            if i == last:
                choices = (rest // w,) if rest % w == 0 else ()
            else:
                hi, lo = rest // w, 0
                for j, a, s, t in cuts[i]:
                    b = s * rest - t * residue[j]
                    if a > 0:
                        if b // a < hi:
                            hi = b // a
                    elif -(b // -a) > lo:
                        lo = -(b // -a)
                choices = range(hi, lo - 1, -1)
            for c in choices:
                coeffs[i] = c
                z = dfs(i + 1, tuple(r - c * gj for r, gj in zip(residue, g)), rest - c * w)
                if z is not None:
                    return z
            coeffs[i] = 0
            refuted.add((i, residue))
            return None

        z = dfs(0, x, total)
        if z is None:
            return None
        return self._certificate(x, coeffs, z)

    def _certificate(self, x, coeffs, z) -> tuple[int, ...]:
        """Full coefficients from the leaf's positive coefficients and its
        integer unit coefficients z, negative ones shifted by the relation."""
        full = [0] * len(self.generators)
        for i, c in zip(self.positive, coeffs):
            full[i] = c
        if any(c < 0 for c in z):
            rel = self.unit_relation()
            shift = max(-(c // r) for c, r in zip(z, rel))
            z = tuple(c + shift * r for c, r in zip(z, rel))
        for i, c in zip(self.units, z):
            full[i] = c
        check = tuple(sum(c * g[j] for c, g in zip(full, self.generators)) for j in range(self.dim))
        if check != x or any(c < 0 for c in full):
            raise InternalCheckError("combination certificate failed re-substitution")
        return tuple(full)


# ---------------------------------------------------------------------------
# bounded nonnegative integer combinations (the reference the tests use)


def default_combination_bound(target: Sequence[int], generators: Sequence[Sequence[int]]) -> int:
    """Crude but safe coefficient-sum envelope for desk-scale instances."""
    weight = max((sum(abs(int(c)) for c in g) for g in generators), default=1)
    return 1 + sum(abs(int(x)) for x in target) * max(weight, 1)


def bounded_nonneg_combination(generators: Sequence[Sequence[int]],
                               target: Sequence[int],
                               bound: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """Search for naturals n with ``sum(n[i] * generators[i]) == target``.

    Exhaustive branch and bound over coefficient vectors with
    ``sum(n) <= bound``; complete within the bound, so a None answer
    certifies absence of any combination with that coefficient budget.
    """
    gens = [tuple(int(c) for c in g) for g in generators]
    tgt = tuple(int(x) for x in target)
    if any(len(g) != len(tgt) for g in gens):
        raise InputError("generator dimension mismatch")
    if bound is None:
        bound = default_combination_bound(tgt, gens)
    dim = len(tgt)

    def prune(rest: int, residue, budget: int) -> bool:
        for j in range(dim):
            r = residue[j]
            if r == 0:
                continue
            signs = [gens[i][j] for i in range(rest, len(gens))]
            if r > 0 and all(s <= 0 for s in signs):
                return True
            if r < 0 and all(s >= 0 for s in signs):
                return True
            step = max((abs(s) for s in signs), default=0)
            if step == 0 or abs(r) > budget * step:
                return True
        return False

    coeffs = [0] * len(gens)

    def dfs(i: int, residue, budget: int):
        if all(x == 0 for x in residue):
            return tuple(coeffs[:i]) + (0,) * (len(gens) - i)
        if i == len(gens) or budget == 0 or prune(i, residue, budget):
            return None
        g = gens[i]
        for c in range(0, budget + 1):
            coeffs[i] = c
            res = tuple(residue[j] - c * g[j] for j in range(dim))
            found = dfs(i + 1, res, budget - c)
            if found is not None:
                return found
        coeffs[i] = 0
        return None

    return dfs(0, tgt, bound)
