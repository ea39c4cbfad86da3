"""Reference answers that do not come from the code under test.

Nothing here imports ``monoidorder``.  Each reference is re-derived from
the definitions: cone membership from the facet normals of the generator
cone, the least refuted shift from how the sums-of-squares inputs are
planted, and the worked examples from the golden files shipped next to
the package.  The documented exit codes sit with each command in
``workloads.py``.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# exact linear algebra, kept separate from monoidorder.exactmath


def rank(rows) -> int:
    """Rank over the rationals by Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def det(mat) -> int:
    """Integer determinant by cofactor expansion (dimensions here are <= 4)."""
    if len(mat) == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j] * det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)) if mat[0][j])


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(v) -> tuple:
    g = 0
    for x in v:
        g = gcd(g, int(x))
    return tuple(int(x) // g for x in v) if g else tuple(v)


def dual_extreme_rays(gens, dim: int) -> frozenset:
    """Facet normals of the cone spanned by ``gens`` (which must span Z^dim).

    Every facet is spanned by dim - 1 independent generators, so each
    candidate is the generalized cross product of such a subset; a
    candidate is a facet normal when it is nonnegative on every generator
    and its tight generators have rank dim - 1.  A cone that is the whole
    space has no facets.
    """
    gens = [tuple(int(x) for x in g) for g in gens]
    if rank(gens) != dim:
        raise ValueError("the dual-ray oracle needs a full-dimensional cone")
    if dim == 1:
        cands = {(1,), (-1,)}
    else:
        cands = set()
        for sub in itertools.combinations(gens, dim - 1):
            normal = tuple((-1) ** j * det([list(g[:j] + g[j + 1:]) for g in sub])
                           for j in range(dim))
            if any(normal):
                cands.add(normal)
                cands.add(tuple(-x for x in normal))
    rays = set()
    for c in cands:
        if all(dot(c, g) >= 0 for g in gens):
            if rank([g for g in gens if dot(c, g) == 0] or [[0] * dim]) == dim - 1:
                rays.add(primitive(c))
    return frozenset(rays)


def cone_member(rays, y) -> bool:
    return all(dot(c, y) >= 0 for c in rays)


def order_answer(rays, a, b, relation: str) -> bool:
    """``a <~ b`` holds iff b - a lies in the closed generator cone;
    ``a ~~ b`` iff both b - a and a - b do (acceptance criterion 10)."""
    diff = tuple(y - x for x, y in zip(a, b))
    if relation == "leq":
        return cone_member(rays, diff)
    return cone_member(rays, diff) and cone_member(rays, tuple(-d for d in diff))


def half_plane_answer(a, b, relation: str) -> bool:
    """Points with positive first coordinate plus the origin."""
    diff = tuple(Fraction(y) - Fraction(x) for x, y in zip(a, b))
    if relation == "leq":
        return not any(diff) or diff[0] > 0
    return diff[0] == 0


# ---------------------------------------------------------------------------
# planted sums-of-squares shifts


def poly_eval(coeffs, x: Fraction) -> Fraction:
    """Horner evaluation of sum(coeffs[i] * x**i)."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def planted_value(p, q, s: int, x: Fraction) -> Fraction:
    """f(x) = p(x)^2 / (q(x)^2 + 1) + s, the function the workload plants."""
    qx = poly_eval(q, x)
    return poly_eval(p, x) ** 2 / (qx * qx + 1) + s


def check_shift(p, q, s: int, result: dict):
    """f - k stays nonnegative for k <= s, and f(root of p) - (s+1) = -1,
    so the least refuted natural shift is exactly s + 1; the witness must
    make f - k exactly negative."""
    if result.get("k") != s + 1:
        return f"least refuted shift {result.get('k')} != {s + 1}"
    w = result.get("witness")
    if w is None:
        return "no witness"
    if planted_value(p, q, s, Fraction(w)) - (s + 1) >= 0:
        return f"witness {w} does not make f - k negative"
    return None


# ---------------------------------------------------------------------------
# golden reports


def canonical_json(doc) -> str:
    """The documented report form: sorted keys, two-space indent, ASCII."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def check_golden(stdout: str, golden_bytes: bytes):
    """A reproduce report is the golden document plus ``golden_match: true``."""
    doc = json.loads(stdout)
    if doc.pop("golden_match", None) is not True:
        return "report does not claim a golden match"
    if canonical_json(doc).encode("ascii") != golden_bytes:
        return "report differs from the packaged golden bytes"
    return None
