"""Shared fixtures: deterministic hypothesis profile and the instance corpus."""

import importlib
import itertools
import math
import os
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from monoidorder.monoids import (BiadditiveOp, FiniteMonoid, LatticeMonoid,
                                 OpenConeMonoid, cyclic_group_monoid,
                                 cyclic_product_op, elementwise_product_op,
                                 free_monoid, half_open_half_plane,
                                 half_plane_product_tensor,
                                 matrix_product_op, saturating_product_op,
                                 truncated_free_monoid)
from monoidorder.core import InputError
from monoidorder.exactmath import RationalCone

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

INSTANCE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "instances")


def instance_path(name: str) -> str:
    return os.path.abspath(os.path.join(INSTANCE_DIR, name))


def opposite_op(op: BiadditiveOp) -> BiadditiveOp:
    """The opposite of an operation on a vector carrier, ``(a, b) -> mu(b,
    a)``: its tensor with the two input slots swapped."""
    d = op.carrier.dim
    return BiadditiveOp(op.carrier, tensor=[[op.tensor[j][i] for j in range(d)]
                                            for i in range(d)])


def seeded(salt: int = 0) -> random.Random:
    return random.Random(20240901 + salt)


def sample_elements(m: OpenConeMonoid, count: int = 12) -> list[tuple[Fraction, ...]]:
    """Deterministic nonzero members of an open cone built from its rays:
    ``k * p + r`` for each ray r and k = 1, 2, 3, with p the first member
    ray, else the ray sum if it is a member (else there are none)."""
    rays = m.cone.v_rep
    interior = next((r for r in rays if m.contains(r)), None)
    if interior is None:
        acc = tuple(map(sum, zip(*rays))) if rays else (0,) * m.dim
        interior = acc if m.contains(acc) else None
    out = []
    if interior is None:
        return out
    for r in rays:
        for k in (1, 2, 3):
            cand = tuple(k * p + x for p, x in zip(interior, r))
            if m.contains(cand):
                out.append(tuple(Fraction(v) for v in cand))
            if len(out) >= count:
                return out
    return out


def default_pairs(m, count: int = 200, seed: int = 20240901) -> list[tuple]:
    """Deterministic element pairs for the order-transfer checks: every pair
    of a finite carrier, else ``count`` pairs drawn from a pool of members."""
    if isinstance(m, FiniteMonoid):
        return [(a, b) for a in m.elements() for b in m.elements()]
    rng = random.Random(seed)
    if isinstance(m, LatticeMonoid):
        pool = m.element_pool(3)
    else:
        # a cone is divisible: halves and triples of its samples are members
        zero = tuple(Fraction(0) for _ in range(m.dim))
        pool = []
        for p in [zero] + [tuple(Fraction(x) for x in p) for p in sample_elements(m, 12)]:
            pool.append(p)
            pool.append(tuple(x / 2 for x in p))
            pool.append(tuple(3 * x for x in p))
    return [(rng.choice(pool), rng.choice(pool)) for _ in range(count)]


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination over Fraction: the reference for the rank, solve
# and kernel the program reads off the Hermite form


def rational_rank(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def rational_solve(rows, rhs):
    """One exact solution of ``rows^T . x = rhs`` treating rows as columns.

    ``rows`` is a list of vectors; we solve for coefficients ``x`` with
    ``sum(x[i] * rows[i]) == rhs``.  Returns None when inconsistent.
    """
    if not rows:
        return [] if all(Fraction(v) == 0 for v in rhs) else None
    dim = len(rows[0])
    aug = [[Fraction(rows[j][i]) for j in range(len(rows))] + [Fraction(rhs[i])]
           for i in range(dim)]
    n = len(rows)
    pivots = []
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, dim) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [x * inv for x in aug[rank]]
        for r in range(dim):
            if r != rank and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[rank])]
        pivots.append((rank, col))
        rank += 1
    for r in range(rank, dim):
        if aug[r][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for r, col in pivots:
        sol[col] = aug[r][n]
    return sol


def rational_nullspace(rows):
    """Basis of ``{x : row . x == 0 for every row}``."""
    if not rows:
        raise InputError("nullspace of an empty constraint list needs a dimension")
    dim = len(rows[0])
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    rank = 0
    for col in range(dim):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    free = [c for c in range(dim) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * dim
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# reference integer kernels: the double description, primitive vectors, the
# Hermite and Smith forms, the unit relation and the first combination
# certificate, written with one tuple-building helper per arithmetic step.
# The kernels in ``exactmath`` must return exactly what these return.


def _o_vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _o_vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _o_vneg(a):
    return tuple(-x for x in a)


def _o_vscale(c, a):
    return tuple(c * x for x in a)


def _o_vdot(a, b):
    assert len(a) == len(b)
    return sum(x * y for x, y in zip(a, b))


def oracle_primitive(a):
    g = 0
    for x in a:
        g = math.gcd(g, abs(x))
    if g == 0:
        return tuple(0 for _ in a)
    return tuple(x // g for x in a)


def oracle_int_det(mat):
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def oracle_hermite_normal_form(rows):
    mat = [list(map(int, row)) for row in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    result = []
    work = [row[:] for row in mat if any(row)]
    col = 0
    while work and col < ncols:
        cand = [r for r in work if r[col] != 0]
        if not cand:
            col += 1
            continue
        while True:
            cand.sort(key=lambda r: abs(r[col]))
            piv = cand[0]
            done = True
            for r in cand[1:]:
                q = r[col] // piv[col]
                for j in range(ncols):
                    r[j] -= q * piv[j]
                if r[col] != 0:
                    done = False
            cand = [piv] + [r for r in cand[1:] if r[col] != 0]
            if done or len(cand) == 1:
                break
        if piv[col] < 0:
            for j in range(ncols):
                piv[j] = -piv[j]
        result.append(piv)
        work = [r for r in work if r is not piv and any(r)]
        col += 1
    for i in range(len(result)):
        piv_col = next(j for j, x in enumerate(result[i]) if x != 0)
        piv = result[i][piv_col]
        for k in range(i):
            q = result[k][piv_col] // piv
            if q:
                for j in range(len(result[k])):
                    result[k][j] -= q * result[i][j]
    return result


def oracle_dd_insert(normal, idx, lineality, rays):
    dots = [_o_vdot(normal, l) for l in lineality]
    pivot = next((i for i in range(len(lineality)) if dots[i] != 0), None)
    if pivot is not None:
        l0 = lineality[pivot]
        d0 = dots[pivot]
        if d0 < 0:
            l0 = _o_vneg(l0)
            d0 = -d0
        new_lin = []
        for i, l in enumerate(lineality):
            if i == pivot:
                continue
            new_lin.append(oracle_primitive(_o_vsub(_o_vscale(d0, l), _o_vscale(dots[i], l0))))
        new_rays = [(oracle_primitive(_o_vsub(_o_vscale(d0, r), _o_vscale(_o_vdot(normal, r), l0))),
                     zs | {idx}) for r, zs in rays]
        new_rays.append((oracle_primitive(l0), frozenset(range(idx))))
        return new_lin, new_rays
    pos, zero, neg = [], [], []
    for r, zs in rays:
        d = _o_vdot(normal, r)
        if d > 0:
            pos.append((r, zs, d))
        elif d < 0:
            neg.append((r, zs, d))
        else:
            zero.append((r, zs | {idx}))
    if not neg:
        return lineality, [(r, zs) for r, zs, _ in pos] + zero
    result = [(r, zs) for r, zs, _ in pos] + zero
    for rp, zp, dp in pos:
        for rn, zn, dn in neg:
            common = zp & zn
            adjacent = True
            for r2, zs2 in rays:
                if r2 is rp or r2 is rn:
                    continue
                if common <= zs2:
                    adjacent = False
                    break
            if not adjacent:
                continue
            combo = oracle_primitive(_o_vadd(_o_vscale(dp, rn), _o_vscale(-dn, rp)))
            result.append((combo, common | {idx}))
    return lineality, result


def _o_as_int_vector(a):
    fracs = [Fraction(x) for x in a]
    denom = math.lcm(1, *(f.denominator for f in fracs))
    return oracle_primitive([int(f * denom) for f in fracs])


def _o_reduce_mod_lineality(ray, lin_basis):
    residue = [Fraction(v) for v in ray]
    for row in lin_basis:
        piv = next(j for j, x in enumerate(row) if x)
        c = residue[piv] / row[piv]
        residue = [x - c * y for x, y in zip(residue, row)]
    return _o_as_int_vector(residue)


def oracle_cone_from_inequalities(normals, dim):
    cleaned = sorted({oracle_primitive(tuple(int(x) for x in n)) for n in normals
                      if not all(x == 0 for x in n)})
    lineality = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays = []
    for idx, n in enumerate(cleaned):
        lineality, rays = oracle_dd_insert(n, idx, lineality, rays)
    lin_basis = oracle_hermite_normal_form([list(l) for l in lineality])
    ray_list = sorted({_o_reduce_mod_lineality(r, lin_basis) for r, _ in rays})
    return [tuple(row) for row in lin_basis], ray_list


def oracle_h_rep(rays, dim):
    """The facet normals ``RationalCone.from_rays(rays, dim).h_rep`` lists."""
    lin, dual_rays = oracle_cone_from_inequalities(rays, dim)
    h = list(dual_rays)
    for l in lin:
        h.append(tuple(l))
        h.append(_o_vneg(l))
    return sorted(set(oracle_primitive(n) for n in h))


def oracle_smith_normal_form(matrix):
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0])
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [row[:] for row in v]

    def row_op(i, j, q):  # row_i -= q * row_j
        for k in range(n):
            a[i][k] -= q * a[j][k]
        for k in range(m):
            u[i][k] -= q * u[j][k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for k in range(m):
            a[k][i] -= q * a[k][j]
        for k in range(n):
            v[k][i] -= q * v[k][j]
            vinv[j][k] += q * vinv[i][k]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for k in range(m):
            a[k][i], a[k][j] = a[k][j], a[k][i]
        for k in range(n):
            v[k][i], v[k][j] = v[k][j], v[k][i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            changed = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    row_op(i, t, a[i][t] // a[t][t])
                    if a[i][t] != 0:
                        swap_rows(t, i)
                    changed = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    col_op(j, t, a[t][j] // a[t][t])
                    if a[t][j] != 0:
                        swap_cols(t, j)
                    changed = True
            if not changed:
                break
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)
            continue
        if a[t][t] < 0:
            for k in range(n):
                a[t][k] = -a[t][k]
            for k in range(m):
                u[t][k] = -u[t][k]
        t += 1
    return u, [row[:] for row in a], v, vinv


def oracle_lineality_coordinates(m):
    """What ``m.lineality_coordinates()`` returns, by the route it took
    before it read the units: the integer kernel of the closed cone's facet
    normals read on ``span_basis``, of a zero row when the cone has none,
    taken as the rows of the Hermite form of ``[A^T | I]`` whose left part
    is zero (A the normals' rows)."""
    basis = m.span_basis
    normals = [[_o_vdot(n, b) for b in basis] for n in m.cone.h_rep] or [[0] * len(basis)]
    k, r = len(normals), len(basis)
    # row j of [A^T | I]: column j of A, then the unit vector e_j
    h = oracle_hermite_normal_form([[row[j] for row in normals] + [int(i == j) for i in range(r)]
                                    for j in range(r)])
    return [tuple(row[k:]) for row in h if not any(row[:k])]


def cauchy_root_bound(p) -> Fraction:
    """Cauchy's bound ``1 + max |c_i| / |c_n|``: every real root of ``p``
    (a polynomial, or integers low degree first) lies inside ``(-B, B)``."""
    c = p if isinstance(p, tuple) else _o_as_int_vector(p.coefficients)
    if len(c) <= 1:
        return Fraction(1)
    return 1 + Fraction(max(abs(x) for x in c[:-1]), abs(c[-1]))


def oracle_cauchy_isolation(chain, bound=None) -> list:
    """What ``formallyreal._isolate(chain)`` returned when isolation
    bisected ``[-B, B]``, B ``bound`` or else the Cauchy bound of the
    chain's seed: integer grids ``(lo, hi, d)`` over ``den(B) * 2^t``, left
    to right, with the counts at grid points outside ``(-tail, tail)``
    read off the infinities rather than evaluated."""
    def variations(n, d):
        if n <= -chain.tail * d:
            return chain.minus_infinity
        if n >= chain.tail * d:
            return chain.plus_infinity
        return chain._variations(n, d)

    if len(chain.chain[0]) <= 1:
        return []
    bound = bound or cauchy_root_bound(chain.chain[0])
    b, out = bound.numerator, []
    stack = [(-b, b, bound.denominator, chain.minus_infinity, chain.plus_infinity)]
    while stack:
        lo, hi, d, at_lo, at_hi = stack.pop()
        if at_lo - at_hi == 1:
            out.append((lo, hi, d))
        elif at_lo - at_hi > 1:
            mid, lo, hi, d = lo + hi, 2 * lo, 2 * hi, 2 * d
            at_mid = variations(mid, d)
            stack.append((mid, hi, d, at_mid, at_hi))
            stack.append((lo, mid, d, at_lo, at_mid))
    return out


def _o_integer_solve(rows, rhs):
    """Integer x with ``sum(x[i] * rows[i]) == rhs``, or None: rhs's integer
    coordinates on the rows of the Hermite form of ``[rows | I]`` whose
    pivot lies in the rows' block, times those rows' identity part."""
    m, n = len(rows), len(rhs)
    h = oracle_hermite_normal_form([list(r) + [int(i == j) for j in range(m)]
                                    for i, r in enumerate(rows)])
    residue, x = list(rhs), [0] * m
    for row in h:
        piv = next(j for j, c in enumerate(row) if c)
        if piv >= n:
            break
        if residue[piv] % row[piv]:
            return None
        q = residue[piv] // row[piv]
        residue = [a - q * b for a, b in zip(residue, row)]
        x = [a + q * b for a, b in zip(x, row[n:])]
    return None if any(residue) else tuple(x)


def oracle_certificate(generators, normals, target, relation):
    """The first certificate ``CombinationSearch(generators, normals).find``
    returns, or None: a depth-first search over the positive generators'
    coefficients, each from ``rest // w`` down to 0, that rejects a node
    breaking the ``Fraction`` ratio bounds on the coordinates no unit
    touches; the unit part is the solution read off the Hermite form of
    ``[units | I]``, shifted by ``relation``, the units' strictly positive
    relation, when it has a negative entry."""
    gens = [tuple(g) for g in generators]
    weight = tuple(sum(n[j] for n in normals) for j in range(len(target)))
    positive = [i for i, g in enumerate(gens) if any(_o_vdot(n, g) for n in normals)]
    units = [i for i in range(len(gens)) if i not in positive]
    weights = [_o_vdot(weight, gens[i]) for i in positive]
    unit_vectors = [gens[i] for i in units]
    free = [j for j in range(len(target)) if all(u[j] == 0 for u in unit_vectors)]
    coeffs = [0] * len(positive)

    def leaf(residue):
        if not units:
            return () if not any(residue) else None
        return _o_integer_solve(unit_vectors, residue)

    def dfs(i, residue, rest):
        if i == len(positive):
            return leaf(residue) if rest == 0 else None
        for j in free:
            ratios = [Fraction(gens[k][j], w) for k, w in zip(positive[i:], weights[i:])]
            if not min(ratios) * rest <= residue[j] <= max(ratios) * rest:
                return None
        g, w = gens[positive[i]], weights[i]
        for c in range(rest // w, -1, -1):
            coeffs[i] = c
            z = dfs(i + 1, _o_vsub(residue, _o_vscale(c, g)), rest - c * w)
            if z is not None:
                return z
        coeffs[i] = 0
        return None

    total = _o_vdot(weight, target)
    z = None if total < 0 else dfs(0, tuple(target), total)
    if z is None:
        return None
    if any(c < 0 for c in z):
        shift = max(-(c // r) for c, r in zip(z, relation))
        z = tuple(c + shift * r for c, r in zip(z, relation))
    full = [0] * len(gens)
    for i, c in zip(positive, coeffs):
        full[i] = c
    for i, c in zip(units, z):
        full[i] = c
    return tuple(full)


# ---------------------------------------------------------------------------
# corpus builders (used by several test modules and the acceptance gate)


def finite_corpus() -> list:
    """Small finite monoids, with element count <= 6 for exhaustive sweeps."""
    return [
        ("truncated-1-cap2", truncated_free_monoid(1, cap=2)),
        ("truncated-1-cap3", truncated_free_monoid(1, cap=3)),
        ("flag", FiniteMonoid([[0, 1], [1, 1]], names=["o", "t"])),
        ("cyclic-2", cyclic_group_monoid(2)),
        ("cyclic-3", cyclic_group_monoid(3)),
        ("cyclic-5", cyclic_group_monoid(5)),
        ("chain-4", FiniteMonoid([[min(i + j, 3) for j in range(4)]
                                  for i in range(4)])),
    ]


def monogenic_table(index, period):
    """The addition table of the monogenic monoid C(index, period): the
    multiples 0 .. index + period - 1 of one generator, where
    ``index + period`` wraps to ``index`` (a cyclic group at index 0)."""
    n = index + period

    def reduce(k):
        return k if k < n else index + (k - index) % period
    return [[reduce(i + j) for j in range(n)] for i in range(n)]


def product_table(tables):
    """The direct product of finite monoids, tuples in lexicographic order
    (so the neutral tuple is element 0)."""
    tuples = list(itertools.product(*(range(len(t)) for t in tables)))
    index = {x: i for i, x in enumerate(tuples)}
    return [[index[tuple(t[u][v] for t, u, v in zip(tables, x, y))] for y in tuples]
            for x in tuples]


def lattice_corpus() -> list:
    return [
        ("free-2", free_monoid(2)),
        ("free-3", free_monoid(3)),
        ("slanted", LatticeMonoid(2, [(1, 0), (1, 2)])),
        ("plane-with-line", LatticeMonoid(2, [(1, 0), (-1, 0), (0, 1)])),
        ("full-rank-3", LatticeMonoid(3, [(1, 0, 0), (1, 1, 0), (1, 1, 1)])),
        ("matrix-4", free_monoid(4)),
    ]


def cone_corpus() -> list:
    quarter = RationalCone.from_rays([(1, 0), (0, 1)], 2)
    return [
        ("half-open-half-plane", half_open_half_plane()),
        ("open-quadrant", OpenConeMonoid(quarter, [(1, 0), (0, 1)])),
        ("closed-quadrant", OpenConeMonoid(quarter, [])),
    ]


def weakly_localizable_ops() -> list:
    """Operations with weak-localizability certificates: the theorem corpus."""
    ops = []
    for cap in (1, 2):
        for coords in (1, 2):
            m = truncated_free_monoid(coords, cap=cap)
            ops.append((f"saturating-{coords}-cap{cap}", saturating_product_op(m)))
    for k in (2, 3, 5, 7):
        ops.append((f"cyclic-mult-{k}", cyclic_product_op(k)))
    flag = FiniteMonoid([[0, 1], [1, 1]], names=["o", "t"])
    ops.append(("flag-meet", BiadditiveOp(flag, table=[[0, 0], [0, 1]])))
    ops.append(("flag-zero", BiadditiveOp(flag, table=[[0, 0], [0, 0]])))
    for dim in (1, 2, 3, 4):
        ops.append((f"elementwise-{dim}",
                    elementwise_product_op(free_monoid(dim))))
    for dim, weights in ((2, [2, 3]), (3, [1, 2, 1]), (3, [5, 1, 4])):
        from monoidorder.monoids import diagonal_tensor
        ops.append((f"weighted-{dim}-{''.join(map(str, weights))}",
                    BiadditiveOp(free_monoid(dim),
                                 tensor=diagonal_tensor(dim, weights))))
    for dim in (2, 3):
        zero = tuple(tuple(tuple(0 for _ in range(dim)) for _ in range(dim))
                     for _ in range(dim))
        ops.append((f"zero-op-{dim}", BiadditiveOp(free_monoid(dim), tensor=zero)))
    m = truncated_free_monoid(3, cap=1)
    ops.append(("saturating-3-cap1", saturating_product_op(m)))
    return ops


@pytest.fixture(scope="session")
def half_plane_op() -> BiadditiveOp:
    return BiadditiveOp(half_open_half_plane(),
                        tensor=half_plane_product_tensor())


@pytest.fixture(scope="session")
def matrix_op() -> BiadditiveOp:
    return matrix_product_op()


def _rebind(monkeypatch, function, replacement):
    """Every name in the package bound to ``function`` is bound to
    ``replacement`` for one test."""
    import monoidorder

    for info in pkgutil.iter_modules(monoidorder.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"monoidorder.{info.name}")
            for name, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, name, replacement)


def _make_unreachable(monkeypatch, function, what):
    """Every name in the package bound to ``function`` raises when called."""

    def unreachable(*args, **kwargs):
        raise AssertionError(f"a program path reached {what}")

    _rebind(monkeypatch, function, unreachable)


@pytest.fixture
def no_smith_form(monkeypatch):
    """Make the Smith form unreachable for one test.  Only the benchmark's
    tracer keeps that function, so no program path may reach it."""
    from monoidorder import exactmath

    _make_unreachable(monkeypatch, exactmath.smith_normal_form, "the Smith form")


@pytest.fixture
def no_simplex(monkeypatch):
    """Make the rational simplex unreachable for one test: cones and dual
    rays are certified by their structure, and the simplex is kept only as
    the tests' reference and by name in the benchmark's tracer."""
    from monoidorder import exactmath

    for function in (exactmath.solve_nonneg_rational, exactmath.lp_feasible,
                     exactmath._phase_one):
        _make_unreachable(monkeypatch, function, f"the simplex ({function.__name__})")


@pytest.fixture
def cones_built(monkeypatch):
    """The ``(normals, dim)`` of every double description
    (:func:`exactmath.cone_from_inequalities`) run during one test, in
    order, wherever in the package it is called from."""
    from monoidorder import exactmath

    built = []
    real = exactmath.cone_from_inequalities

    def counted(normals, dim):
        built.append((normals, dim))
        return real(normals, dim)

    _rebind(monkeypatch, real, counted)
    return built


@pytest.fixture
def adjugates_made(monkeypatch):
    """The matrices of every :func:`exactmath.int_adjugate` call made during
    one test, in order, wherever in the package it is called from."""
    from monoidorder import exactmath

    made = []
    real = exactmath.int_adjugate

    def counted(mat):
        made.append(mat)
        return real(mat)

    _rebind(monkeypatch, real, counted)
    return made


@pytest.fixture
def searches_built(monkeypatch):
    """The argument tuples of every :class:`CombinationSearch` that a lattice
    carrier builds during one test, in order."""
    from monoidorder import monoids

    built = []

    class Counted(monoids.CombinationSearch):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(monoids, "CombinationSearch", Counted)
    return built


@pytest.fixture
def lattices_built(monkeypatch):
    """The argument tuples of every :class:`IntegerLattice` (one Hermite form
    each) that a carrier builds during one test, in order."""
    from monoidorder import monoids

    built = []

    class Counted(monoids.IntegerLattice):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(monoids, "IntegerLattice", Counted)
    return built


@pytest.fixture
def mu_calls(monkeypatch):
    """The ``(op, a, b)`` of every :meth:`BiadditiveOp.mu` call during one
    test, in order; :func:`calls_of` keeps those of one operation."""
    calls = []
    mu = BiadditiveOp.mu

    def counted(self, a, b):
        calls.append((self, a, b))
        return mu(self, a, b)

    monkeypatch.setattr(BiadditiveOp, "mu", counted)
    return calls


def calls_of(mu_calls, op) -> list:
    """The operand pairs of the ``mu_calls`` made on ``op``."""
    return [(a, b) for o, a, b in mu_calls if o is op]
