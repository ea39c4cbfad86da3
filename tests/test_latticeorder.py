"""Extended f-rings on coordinatewise lattice groups, carried as
operations on the positive orthant."""

import itertools
import json
import random
from fractions import Fraction
from functools import cache
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidorder import latticeorder
from monoidorder.core import InputError, InternalCheckError, vadd
from monoidorder.latticeorder import (almost_fring_counterexample,
                                      almost_fring_tensor,
                                      fring_strong_localizability,
                                      is_extended_f_ring)
from monoidorder.monoids import BiadditiveOp, diagonal_tensor, orthant
from monoidorder.reports import canonical


def _box(dim, lo, hi):
    return list(itertools.product(range(lo, hi + 1), repeat=dim))


def _meet(x, y):
    return tuple(min(a, b) for a, b in zip(x, y))


def _orthant_op(dim, tensor, scalar="integer"):
    return BiadditiveOp(orthant(dim, scalar), tensor=tensor)


def _diagonal_op(dim, weights=None):
    """Coordinatewise multiplication with optional positive weights."""
    return _orthant_op(dim, diagonal_tensor(dim, weights or [1] * dim))


# ---------------------------------------------------------------------------
# disjointness-preserving bilinear operations


def _single_entry_tensor(dim, i, j, k, value=1):
    t = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    t[i][j][k] = value
    return tuple(tuple(tuple(r) for r in slab) for slab in t)


@pytest.mark.parametrize("scalar", ["integer", "rational"])
def test_candidate_rejects_bad_tensors(scalar):
    with pytest.raises(InputError, match="shape mismatch"):
        _orthant_op(2, _single_entry_tensor(3, 0, 0, 0), scalar)
    # a negative entry leaves the orthant, which validation reports
    op = _orthant_op(2, _single_entry_tensor(2, 1, 0, 1, value=-1), scalar)
    assert len(op.validate()) == 1


def test_half_weight_off_diagonal_is_refused_not_truncated():
    # e0 * e1 = e1 / 2 is not support preserving; truncating 1/2 to 0
    # would turn the tensor diagonal and the verdict into "yes"
    tensor = [[[1, 0], [0, Fraction(1, 2)]], [[0, 0], [0, 1]]]
    with pytest.raises(InputError, match="not an integer"):
        _orthant_op(2, tensor, "rational")
    op = _orthant_op(2, [[[1, 0], [0, 1]], [[0, 0], [0, 1]]], "rational")
    assert is_extended_f_ring(op)["offending_entry"] == (0, 1, 1)


def test_candidate_mu_is_bilinear():
    op = _diagonal_op(2, weights=[2, 3])
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(3))
        assert op.mu(vadd(a, b), c) == vadd(op.mu(a, c), op.mu(b, c))
        assert op.mu(a, vadd(b, c)) == vadd(op.mu(a, b), op.mu(a, c))
    assert op.mu((1, 1), (1, 1)) == (2, 3)


@pytest.mark.parametrize("dim,weights", [(1, None), (2, None), (3, None),
                                         (2, [2, 3]), (3, [5, 1, 4])])
def test_diagonal_candidates_are_f_rings(dim, weights):
    res = is_extended_f_ring(_diagonal_op(dim, weights=weights))
    assert res == {"verdict": "yes", "structural_diagonal": True,
                   "offending_entry": None, "witness": None}


@pytest.mark.parametrize("dim,i,j,k", [
    (dim,) + t for dim in (2, 3) for t in itertools.product(range(dim), repeat=3)
    if not t[0] == t[1] == t[2]])
def test_every_off_diagonal_entry_is_refuted(dim, i, j, k):
    op = _orthant_op(dim, _single_entry_tensor(dim, i, j, k))
    res = is_extended_f_ring(op)
    assert res["verdict"] == "no"
    assert res["offending_entry"] == (i, j, k)
    w = res["witness"]
    zero = (0,) * dim
    assert _meet(w["a"], w["b"]) == zero
    hit = (_meet(op.mu(w["c"], w["a"]), w["b"])
           if w["side"] == "left-multiplier"
           else _meet(op.mu(w["a"], w["c"]), w["b"]))
    assert hit != zero
    unit = [tuple(int(n == m) for m in range(dim)) for n in range(dim)]
    assert tuple(w["value"]) == op.mu(unit[i], unit[j])


def _reference_f_ring(d, tensor):
    """The f-ring report by a per-triple sweep of the side-3 box, with its
    own exact product; the sweep finds a violation iff the structural
    reduction does."""

    def mu(a, b):
        return tuple(sum(a[i] * b[j] * tensor[i][j][k]
                         for i in range(d) for j in range(d))
                     for k in range(d))

    def meets(p, b):
        return any(min(x, y) != 0 for x, y in zip(p, b))

    offender = next(((i, j, k) for i in range(d) for j in range(d)
                     for k in range(d) if tensor[i][j][k] and not i == j == k),
                    None)
    witness = None
    if offender is not None:
        i, j, k = offender
        unit = [tuple(int(t == n) for t in range(d)) for n in range(d)]
        a, c, side = ((unit[j], unit[i], "left-multiplier") if k != j
                      else (unit[i], unit[j], "right-multiplier"))
        witness = {"a": a, "b": unit[k], "c": c, "side": side,
                   "value": mu(unit[i], unit[j])}
    cells = list(itertools.product(range(3), repeat=d))
    found = any(meets(mu(c, a), b) or meets(mu(a, c), b)
                for a in cells for b in cells if not meets(a, b)
                for c in cells)
    assert found == (offender is not None)
    return {"verdict": "yes" if offender is None else "no",
            "structural_diagonal": offender is None,
            "offending_entry": offender, "witness": witness}


@st.composite
def _candidate_tensors(draw):
    d = draw(st.integers(1, 3))
    diagonal_only = draw(st.booleans())
    tensor = [[[0 if diagonal_only and not i == j == k
                else draw(st.integers(0, 2))
                for k in range(d)] for j in range(d)] for i in range(d)]
    return d, draw(st.sampled_from(["integer", "rational"])), tensor


@settings(max_examples=60)
@given(_candidate_tensors())
def test_structural_verdict_matches_the_box_sweep_reference(case):
    d, scalar, tensor = case
    op = _orthant_op(d, tensor, scalar)
    assert op.validate() == []
    assert is_extended_f_ring(op) == _reference_f_ring(d, tensor)


def test_fring_strong_localizability_confirmed():
    res = fring_strong_localizability(_diagonal_op(2, weights=[2, 3]))
    assert res["status"] == "confirmed" and res["ok"]
    assert res["exact_commutativity"] and res["exact_associativity"]
    assert res["strong"]["verdict"] == "yes"
    strong = res["strong"]
    assert dict(zip(strong["rays"], strong["weights"])) == {(1, 0): 2, (0, 1): 3}
    assert res["theorem"]["mode"] == "certified"


def test_fring_strong_localizability_skips_non_f_ring():
    res = fring_strong_localizability(
        _orthant_op(2, _single_entry_tensor(2, 0, 1, 0)))
    assert res["status"] == "skipped" and res["ok"]
    assert "disjoint supports" in res["reason"]


# ---------------------------------------------------------------------------
# the almost-but-not-quite instance


def test_almost_fring_counterexample_sections():
    res = almost_fring_counterexample()
    assert res["ok"]
    assert res["disjoint_products_vanish"]["failures"] == []
    assert res["commutative"]["failures"] == []
    assert res["archimedean"]["failures"] == []
    assert res["weak_localizability"]["verdict"] == "no"


def test_almost_fring_archimedean_count_matches_the_box_loop():
    # the report reads the archimedean law off an argument; the loop over
    # the box of side 3 finds, for each pair (a, b) with a nonzero, a scalar
    # l <= max(b) + 1 with l * a <= b failing in some coordinate
    cells = list(itertools.product(range(3), repeat=3))
    checked, failures = 0, []
    for a in cells:
        if not any(a):
            continue
        for b in cells:
            checked += 1
            if all(all(l * x <= y for x, y in zip(a, b)) for l in range(1, max(b) + 2)):
                failures.append({"a": a, "b": b})
    assert (checked, failures) == (702, [])
    assert almost_fring_counterexample()["archimedean"] == {"checked": 702, "failures": []}


def test_almost_fring_counterexample_computes_in_ints():
    res = almost_fring_counterexample()
    assert res["ok"]
    w = res["non_associative_witness"]
    assert all(type(t) is int for key in ("a", "b", "c", "left", "right")
               for t in w[key])


def test_almost_fring_witness_revalidated():
    res = almost_fring_counterexample()
    w = res["non_associative_witness"]
    op = _orthant_op(3, almost_fring_tensor(), "rational")
    left = op.mu(op.mu(w["a"], w["b"]), w["c"])
    right = op.mu(w["a"], op.mu(w["b"], w["c"]))
    assert left == tuple(w["left"]) and right == tuple(w["right"])
    assert left != right
    # the same operation is exactly commutative on a full box
    for a in _box(3, -1, 1):
        for b in _box(3, -1, 1):
            assert op.mu(a, b) == op.mu(b, a)


def test_almost_fring_tensor_shape():
    t = almost_fring_tensor()
    nonzero = [(i, j, k)
               for i in range(3) for j in range(3) for k in range(3)
               if t[i][j][k]]
    assert nonzero == [(0, 0, 0), (0, 0, 1), (0, 0, 2),
                       (2, 2, 0), (2, 2, 1), (2, 2, 2)]


def test_the_associator_is_read_off_its_trilinear_form(monkeypatch, mu_calls):
    # both pair laws hold on the tensor, so neither is swept (the sweeps
    # computed each of the 729 box products once); the witness search
    # computes 19 products and looks them up (4,647 lookups when every
    # triple up to the witness is multiplied out)
    memos = []
    monkeypatch.setattr(latticeorder, "cache", lambda f: memos.append(cache(f)) or memos[-1])
    res = almost_fring_counterexample()
    (mul,) = memos
    lookups = mul.cache_info().hits + mul.cache_info().misses
    assert lookups <= 1700
    assert len(mu_calls) == mul.cache_info().misses == 19
    golden = resources.files("monoidorder").joinpath("goldens", "almost-fring.json")
    assert canonical(res) == json.loads(golden.read_text(encoding="utf-8"))["result"]


def _box_pair_laws(tensor):
    """Both pair laws swept over the box of side 3, the reference."""
    op = BiadditiveOp(orthant(3, "integer"), tensor=tensor)
    cells = list(itertools.product(range(3), repeat=3))
    disjoint = [(a, b) for a in cells for b in cells if not any(min(s, t) for s, t in zip(a, b))]
    return ({"checked": len(disjoint),
             "failures": [{"a": a, "b": b, "mu": op.mu(a, b)}
                          for a, b in disjoint if any(op.mu(a, b))]},
            {"checked": len(cells) ** 2,
             "failures": [{"a": a, "b": b} for a in cells for b in cells
                          if op.mu(a, b) != op.mu(b, a)]})


def test_pair_laws_read_off_the_tensor_match_the_box_sweep():
    # both laws hold on the tensor, so the report gives the sweep's counts
    # and no failure
    res = almost_fring_counterexample()
    disjoint, commutative = _box_pair_laws(almost_fring_tensor())
    assert res["disjoint_products_vanish"] == disjoint
    assert res["commutative"] == commutative
    assert disjoint["checked"] == 125 and commutative["checked"] == 729


@pytest.mark.parametrize("slot, value", [((0, 1), [1, 0, 0]), ((2, 1), [0, 0, 1])])
def test_a_tensor_that_breaks_a_pair_law_is_an_internal_error(monkeypatch, slot, value):
    # (0, 1) and (1, 0) both set: symmetric, but disjoint unit vectors
    # multiply to nonzero; (2, 1) alone: not symmetric either
    tensor = almost_fring_tensor()
    i, j = slot
    tensor[i][j] = value
    if slot == (0, 1):
        tensor[j][i] = value
    disjoint, commutative = _box_pair_laws(tensor)
    assert disjoint["failures"] and (commutative["failures"] or slot == (0, 1))
    monkeypatch.setattr(latticeorder, "almost_fring_tensor", lambda: tensor)
    with pytest.raises(InternalCheckError):
        almost_fring_counterexample()
