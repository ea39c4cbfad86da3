"""Extended f-rings on coordinatewise lattice groups.

The positive cone of ``Z^d`` or ``Q^d`` with the coordinatewise order is
the orthant, where meet and join are coordinatewise min and max, so a
bilinear operation on the lattice group is carried as a
:class:`BiadditiveOp` on its orthant (see :func:`monoids.orthant`).  An
operation whose products with positive elements keep disjoint supports
disjoint is an extended f-ring; on the orthant this pins the tensor to
its full diagonal (proved in :func:`is_extended_f_ring`), which upgrades
localizability and makes the operation associative and commutative on
the nose.  The module also builds the fixed three-coordinate operation
that satisfies the weaker disjoint-products-vanish axiom while failing
associativity.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .exactmath import InternalCheckError
from .functionals import verify_theorem_main
from .localizability import is_strongly_localizable, is_weakly_localizable
from .monoids import BiadditiveOp, free_monoid


def _meets(x, y) -> bool:
    """Whether ``x meet y``, the coordinatewise min, is nonzero."""
    return any(min(s, t) for s, t in zip(x, y))


def is_extended_f_ring(op: BiadditiveOp) -> dict:
    """Disjointness preservation of an operation on the orthant, decided
    exactly from its tensor.

    The defining condition is: whenever ``a`` and ``b`` are positive with
    ``a meet b = 0``, both ``mu(c, a) meet b`` and ``mu(a, c) meet b``
    vanish for every positive ``c``.  It holds if and only if every
    nonzero tensor entry ``T[i][j][k]`` has ``i == j == k``, and this
    reduction is the proof of the verdict.

    On the orthant, ``a meet b = 0`` means disjoint supports.  The op is
    validated, so every generator product, hence every tensor entry, is
    nonnegative; no terms cancel, and the support of ``mu(c, a)`` is the
    set of ``k`` with ``T[i][j][k] > 0`` for some ``i`` in the support of
    ``c`` and ``j`` in that of ``a``.  On a diagonal tensor that set lies
    in the support of ``a``, which misses ``b`` (the right product
    alike).  Conversely, take the first off-diagonal nonzero
    ``T[i][j][k]`` in ``i, j, k`` order.  If ``k != j``, then ``a = e_j``,
    ``b = e_k``, ``c = e_i`` violate the condition on the left, since
    ``mu(e_i, e_j)`` has a positive coordinate ``k``; if ``k == j``, then
    ``i != k`` and ``a = e_i``, ``b = e_k``, ``c = e_j`` violate it on the
    right.  That witness is rebuilt with ``op.mu`` and checked again.
    """
    d = op.carrier.dim
    t = op.tensor
    offender = next(((i, j, k) for i in range(d) for j in range(d)
                     for k in range(d) if t[i][j][k] and not i == j == k), None)
    witness = None
    if offender is not None:
        i, j, k = offender
        unit = [tuple(int(n == m) for m in range(d)) for n in range(d)]
        a, b, c, side = ((unit[j], unit[k], unit[i], "left-multiplier") if k != j
                         else (unit[i], unit[k], unit[j], "right-multiplier"))
        witness = {"a": a, "b": b, "c": c, "side": side,
                   "value": op.mu(unit[i], unit[j])}
        if _meets(a, b):
            raise InternalCheckError("witness supports are not disjoint")
        hit = op.mu(c, a) if side == "left-multiplier" else op.mu(a, c)
        if not _meets(hit, b):
            raise InternalCheckError("witness does not violate the condition")
    return {
        "verdict": "yes" if offender is None else "no",
        "structural_diagonal": offender is None,
        "offending_entry": offender,
        "witness": witness,
    }


def fring_strong_localizability(op: BiadditiveOp) -> dict:
    """Support-preserving operations are strongly localizable and exact.

    Requires the disjointness-preservation verdict; then asserts strong
    localizability of the operation on the orthant, and that
    commutativity and associativity hold with on-the-nose equality (on
    coordinatewise archimedean carriers the equivalence collapses to
    equality).
    """
    fr = is_extended_f_ring(op)
    if fr["verdict"] != "yes":
        return {"status": "skipped", "ok": True,
                "reason": "operation does not preserve disjoint supports",
                "f_ring": fr}
    strong = is_strongly_localizable(op)
    theorem = verify_theorem_main(op)
    exact = (theorem["commutativity"]["exact_equality_failures"] == 0
             and theorem["associativity"]["exact_equality_failures"] == 0)
    ok = strong["verdict"] == "yes" and theorem["ok"] and exact
    if not ok:
        raise InternalCheckError(
            "support-preserving operation failed the strength upgrade")
    return {"status": "confirmed", "ok": True, "f_ring": fr,
            "strong": strong,
            "exact_commutativity": True, "exact_associativity": True,
            "theorem": {"mode": theorem["mode"],
                        "pool_size": theorem["pool_size"],
                        "pairs": theorem["commutativity"]["checked"],
                        "triples": theorem["associativity"]["checked"]}}


# ---------------------------------------------------------------------------
# the three-coordinate commutative, non-associative operation


def almost_fring_tensor() -> list:
    """Tensor of ``mu(a, b) = (a_0 b_0 + a_2 b_2) * (1, 1, 1)`` on three coordinates."""
    t = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        t[0][0][k] = 1
        t[2][2][k] = 1
    return t


def _combination(coefficients, vectors) -> tuple:
    """``sum_j coefficients[j] * vectors[j]`` of int vectors."""
    return tuple(sum(c * v[t] for c, v in zip(coefficients, vectors))
                 for t in range(len(vectors[0])))


def almost_fring_counterexample() -> dict:
    """Disjoint products vanish, yet the operation is not associative.

    The fixed operation on three coordinates multiplies the outer
    coordinates and spreads the sum over all three.  The report verifies,
    in exact arithmetic over the box of side 3: the vanishing of products
    of disjointly supported positive pairs, the archimedean property of
    the coordinatewise order, commutativity of the operation, and a
    concrete triple on which the two associators differ — so
    commutativity of such operations cannot be an instance of the
    localizability route, whose weak hypothesis this operation refutes
    outright.

    One operation on the integer orthant serves the box and the weak
    check, whose first bad ray in the ray-product table refutes the
    rational form alike.
    The box cells are int vectors and the tensor is integral, so every
    product, comparison and multiple is an int; each distinct product is
    computed once per call.  An integral rational prints as an int in a
    report, so the document is also the one the rational carrier gives.
    """
    op = BiadditiveOp(free_monoid(3), tensor=almost_fring_tensor())
    cells = list(product(range(3), repeat=3))
    mul = cache(op.mu)

    # mu is bilinear and the box holds every unit vector e_i, so the pair
    # laws on the box are read off the tensor: disjoint products vanish iff
    # T[i][j] == 0 for i != j (disjoint a, b have a_i b_i == 0 for every
    # i, and e_i, e_j are disjoint), and mu is commutative iff T[i][j] ==
    # T[j][i].  Both hold on the fixed tensor, so each is checked on every
    # pair of the box: the b disjoint from a number 3^(zeros of a), and
    # the pairs 27^2.
    t = op.tensor
    if any(any(t[i][j]) for i in range(3) for j in range(3) if i != j):
        raise InternalCheckError("a product of disjoint unit vectors is nonzero")
    if any(t[i][j] != t[j][i] for i in range(3) for j in range(3)):
        raise InternalCheckError("the tensor is not symmetric")
    axiom_checked = sum(3 ** a.count(0) for a in cells)
    commut_checked = len(cells) ** 2

    # The associator (ab)c - a(bc) is trilinear, and the box holds every
    # unit vector e_j, so for a fixed a its values A[j][k] on (e_j, e_k)
    # give it everywhere: sum_jk b_j c_k A[j][k].  An a with A == 0 has no
    # witness, nor, under an a, a b with sum_j b_j A[j][k] == 0 for every
    # k; the first (a, b) left has one at some c = e_k, and its first c in
    # box order is the first witness, recomputed with mul.
    units = [tuple(int(i == j) for i in range(3)) for j in range(3)]
    witness = None
    for a in cells:
        assoc = [[tuple(x - y for x, y in zip(mul(mul(a, e), f), mul(a, mul(e, f))))
                  for f in units] for e in units]
        if not any(any(v) for row in assoc for v in row):
            continue
        for b in cells:
            # on_b[k] is the associator on (a, b, e_k)
            on_b = [_combination(b, [row[k] for row in assoc]) for k in range(3)]
            if any(any(v) for v in on_b):
                c = next(c for c in cells if any(_combination(c, on_b)))
                left, right = mul(mul(a, b), c), mul(a, mul(b, c))
                if left == right:
                    raise InternalCheckError(
                        "the associator's trilinear form disagrees with mul")
                witness = {"a": a, "b": b, "c": c, "left": left, "right": right}
                break
        break

    archimedean_checked = 0
    archimedean_failures = []
    for a in cells:
        if all(x == 0 for x in a):
            continue
        for b in cells:
            archimedean_checked += 1
            # ell * x <= y for every ell up to max(b) + 2 iff for the last,
            # the cells being nonnegative
            dominated_forever = all((max(b) + 2) * x <= y for x, y in zip(a, b))
            if dominated_forever:
                archimedean_failures.append({"a": a, "b": b})

    weak = is_weakly_localizable(op)
    ok = (witness is not None and not archimedean_failures
          and weak.verdict == "no")
    return {
        "ok": ok,
        "disjoint_products_vanish": {"checked": axiom_checked,
                                     "failures": []},
        "commutative": {"checked": commut_checked, "failures": []},
        "archimedean": {"checked": archimedean_checked,
                        "failures": archimedean_failures},
        "non_associative_witness": witness,
        "weak_localizability": {"verdict": weak.verdict,
                                "reason": weak.reason,
                                "refuted": weak.refuted},
    }

