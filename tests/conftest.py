"""Shared fixtures: deterministic hypothesis profile and the instance corpus."""

import itertools
import os
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
from monoidorder.exactmath import InputError, RationalCone

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


def seeded(salt: int = 0) -> random.Random:
    return random.Random(20240901 + salt)


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
        for p in [zero] + [tuple(Fraction(x) for x in p) for p in m.sample_elements(12)]:
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
