"""Coordinatewise lattice-ordered groups and disjointness-preserving products."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidorder.exactmath import (InputError, InternalCheckError, vadd, vneg,
                                   vscale, vsub)
from monoidorder.instancefile import load_instance
from monoidorder.latticeorder import (FRingCandidate, LatticeGroup,
                                      almost_fring_counterexample,
                                      almost_fring_tensor,
                                      fring_strong_localizability,
                                      is_extended_f_ring)
from monoidorder.monoids import diagonal_tensor

from conftest import instance_path

vec2 = st.tuples(st.integers(-8, 8), st.integers(-8, 8))


# ---------------------------------------------------------------------------
# lattice identities


def _leq(x, y) -> bool:
    return all(a <= b for a, b in zip(x, y))


def _box(dim, lo, hi):
    return list(itertools.product(range(lo, hi + 1), repeat=dim))


def _diagonal_candidate(dim, weights=None):
    """Coordinatewise multiplication with optional positive weights."""
    return FRingCandidate(LatticeGroup(dim),
                          diagonal_tensor(dim, weights or [1] * dim))


@given(vec2, vec2)
def test_meet_join_are_coordinatewise(x, y):
    g = LatticeGroup(2)
    assert g.meet(x, y) == tuple(min(a, b) for a, b in zip(x, y)) == g.meet(y, x)


@given(vec2)
def test_positive_negative_parts(x):
    g = LatticeGroup(2)
    neg = vneg(g.meet(x, g.zero))
    pos = vadd(x, neg)
    assert vsub(pos, neg) == g.coerce(x)
    assert g.meet(pos, neg) == g.zero


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_identity_sweep_exhaustive_box(dim):
    # the meet is the greatest lower bound, and translation commutes with it
    g = LatticeGroup(dim)
    cells = _box(dim, -1, 1)
    shift = (1,) * dim
    for x in cells:
        for y in cells:
            m = g.meet(x, y)
            assert _leq(m, x) and _leq(m, y)
            assert all(_leq(z, m) for z in cells if _leq(z, x) and _leq(z, y))
            assert g.meet(vadd(x, shift), vadd(y, shift)) == vadd(m, shift)


def _riesz_holds(g, a, b, c) -> bool:
    """``a <= (b meet a) + (c meet a)``, for positive ``a <= b + c``."""
    return _leq(a, vadd(g.meet(b, a), g.meet(c, a)))


@pytest.mark.parametrize("dim,scalar", [(1, "integer"), (2, "integer"),
                                        (3, "integer"), (2, "rational")])
def test_riesz_lemma_sampled(dim, scalar):
    g = LatticeGroup(dim, scalar=scalar)
    rng = random.Random(20240901)

    def positive():
        return g.coerce(rng.randint(0, 4) for _ in range(dim))

    for _ in range(100):
        b, c = positive(), positive()
        a = g.meet(vadd(b, c), positive())
        assert _riesz_holds(g, a, b, c)


def test_riesz_lemma_exhaustive_dim_two():
    g = LatticeGroup(2)
    cells = _box(2, 0, 2)
    for b in cells:
        for c in cells:
            for a in cells:
                if _leq(a, vadd(b, c)):
                    assert _riesz_holds(g, a, b, c)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_weakly_archimedean_check(dim):
    # no infinitesimals: when a has a negative coordinate, l*a + b leaves the
    # positive cone for some l up to the largest coordinate of b's positive
    # part plus two
    g = LatticeGroup(dim)
    cells = _box(dim, -3, 3)
    for a in cells:
        if g.meet(a, g.zero) == g.zero:
            continue
        for b in cells:
            limit = max(max(b), 0) + 2
            assert any(not _leq(g.zero, vadd(vscale(ell, a), b))
                       for ell in range(1, limit + 1))


def test_group_input_validation():
    with pytest.raises(InputError):
        LatticeGroup(0)
    with pytest.raises(InputError):
        LatticeGroup(2, scalar="real")
    g = LatticeGroup(2)
    with pytest.raises(InputError):
        g.coerce((1, 2, 3))
    with pytest.raises(InputError):
        g.coerce((Fraction(1, 2), 0))
    gr = LatticeGroup(2, scalar="rational")
    assert gr.coerce(("1/2", 3)) == (Fraction(1, 2), Fraction(3))


def _fraction_round_trip(g, x):
    """Coercion as every entry through ``Fraction`` and back (no fast path)."""
    v = tuple(Fraction(t) for t in x)
    if len(v) != g.dim:
        raise InputError("element arity mismatch")
    if g.scalar == "integer":
        if any(t.denominator != 1 for t in v):
            raise InputError(f"{tuple(x)!r} is not an integer vector")
        return tuple(int(t) for t in v)
    return v


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except (InputError, TypeError, ValueError) as exc:
        return ("raises", type(exc), str(exc))
    return ("returns", value, tuple(type(t) for t in value))


@pytest.mark.parametrize("scalar", ["integer", "rational"])
@pytest.mark.parametrize("x", [
    (1, -2), [0, 7], (Fraction(3), Fraction(-4)), (Fraction(1, 2), 0),
    ("1/2", 3), ("5", "-6"), ("x", 1), (2.0, 1), (0.5, 1), (True, False),
    (True, 2), (1, 2, 3), (Fraction(1),), (), (Fraction(1), 2),
])
def test_coerce_fast_path_matches_fraction_round_trip(scalar, x):
    g = LatticeGroup(2, scalar=scalar)
    assert _outcome(g.coerce, x) == _outcome(_fraction_round_trip, g, x)


def test_coerce_fast_path_returns_exact_scalar_vectors_unchanged():
    assert LatticeGroup(2).coerce([3, -1]) == (3, -1)
    v = (Fraction(1, 2), Fraction(-3))
    out = LatticeGroup(2, scalar="rational").coerce(v)
    assert out == v and all(a is b for a, b in zip(out, v))
    # bool is an int subclass but still goes through the round trip
    assert [type(t) for t in LatticeGroup(2).coerce((True, 0))] == [int, int]


# ---------------------------------------------------------------------------
# disjointness-preserving bilinear operations


def _single_entry_tensor(dim, i, j, k, value=1):
    t = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    t[i][j][k] = value
    return tuple(tuple(tuple(r) for r in slab) for slab in t)


def test_candidate_rejects_bad_tensors():
    g = LatticeGroup(2)
    with pytest.raises(InputError):
        FRingCandidate(g, _single_entry_tensor(3, 0, 0, 0))  # shape mismatch
    with pytest.raises(InputError):
        FRingCandidate(g, _single_entry_tensor(2, 0, 0, 0, value=-1))


@pytest.mark.parametrize("entry", [Fraction(1, 2), 2.7, "1/3", "two"])
def test_candidate_refuses_non_integral_entries(entry):
    tensor = [list(map(list, slab)) for slab in _single_entry_tensor(2, 0, 0, 0)]
    tensor[1][0][1] = entry
    with pytest.raises(InputError, match=r"tensor entry \(1, 0, 1\)"):
        FRingCandidate(LatticeGroup(2), tensor)


def test_half_weight_off_diagonal_is_refused_not_truncated():
    # e0 * e1 = e1 / 2 is not support preserving; truncating 1/2 to 0 used
    # to turn the tensor diagonal and the verdict into "yes"
    tensor = [[[1, 0], [0, Fraction(1, 2)]], [[0, 0], [0, 1]]]
    with pytest.raises(InputError, match="not an integer"):
        FRingCandidate(LatticeGroup(2, "rational"), tensor)
    cand = FRingCandidate(LatticeGroup(2, "rational"),
                          [[[1, 0], [0, 1]], [[0, 0], [0, 1]]])
    assert is_extended_f_ring(cand)["offending_entry"] == (0, 1, 1)


def test_candidate_accepts_integral_entries_of_any_numeric_type():
    cand = FRingCandidate(LatticeGroup(1), [[[Fraction(4, 2)]]])
    assert cand.tensor == (((2,),),) and type(cand.tensor[0][0][0]) is int
    assert FRingCandidate(LatticeGroup(1), [[[3.0]]]).tensor == (((3,),),)


def test_candidate_mu_is_bilinear():
    cand = _diagonal_candidate(2, weights=[2, 3])
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(3))
        assert cand.mu(vadd(a, b), c) == vadd(cand.mu(a, c), cand.mu(b, c))
        assert cand.mu(a, vadd(b, c)) == vadd(cand.mu(a, b), cand.mu(a, c))
    assert cand.mu((1, 1), (1, 1)) == (2, 3)


@pytest.mark.parametrize("dim,weights", [(1, None), (2, None), (3, None),
                                         (2, [2, 3]), (3, [5, 1, 4])])
def test_diagonal_candidates_are_f_rings(dim, weights):
    res = is_extended_f_ring(_diagonal_candidate(dim, weights=weights))
    assert res["verdict"] == "yes"
    assert res["structural_diagonal"] and res["offending_entry"] is None
    assert res["box_checked"] > 0


@pytest.mark.parametrize("i,j,k", [t for t in itertools.product(range(2),
                                                                repeat=3)
                                   if not t[0] == t[1] == t[2]])
def test_every_off_diagonal_entry_is_refuted_dim_two(i, j, k):
    g = LatticeGroup(2)
    cand = FRingCandidate(g, _single_entry_tensor(2, i, j, k))
    res = is_extended_f_ring(cand)
    assert res["verdict"] == "no"
    assert res["offending_entry"] == (i, j, k)
    w = res["witness"]
    assert g.meet(w["a"], w["b"]) == g.zero
    hit = (g.meet(cand.mu(w["c"], w["a"]), w["b"])
           if w["side"] == "left-multiplier"
           else g.meet(cand.mu(w["a"], w["c"]), w["b"]))
    assert hit != g.zero
    assert tuple(w["value"]) == tuple(cand.mu((1, 0) if res["offending_entry"][0] == 0 else (0, 1),
                                              (1, 0) if res["offending_entry"][1] == 0 else (0, 1)))


def test_off_diagonal_refutation_dim_three_sample():
    g = LatticeGroup(3)
    for entry in [(0, 1, 2), (2, 2, 0), (1, 0, 1)]:
        cand = FRingCandidate(g, _single_entry_tensor(3, *entry))
        res = is_extended_f_ring(cand)
        assert res["verdict"] == "no" and res["offending_entry"] == entry


def _reference_f_ring(group, tensor, box_bound=3):
    """The f-ring report by a per-triple loop with its own exact product."""
    d = group.dim

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
    checked = 0
    cells = list(itertools.product(range(box_bound), repeat=d))
    found = False
    for a in cells:
        for b in cells:
            if meets(a, b):
                continue
            for c in cells:
                checked += 1
                if meets(mu(c, a), b) or meets(mu(a, c), b):
                    found = True
                    break
            if found:
                break
        if found:
            break
    assert found == (offender is not None)
    return {"verdict": "yes" if offender is None else "no",
            "offending_entry": offender, "witness": witness,
            "box_checked": checked}


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
def test_box_sweep_matches_per_triple_reference(case):
    d, scalar, tensor = case
    group = LatticeGroup(d, scalar)
    res = is_extended_f_ring(FRingCandidate(group, tensor))
    ref = _reference_f_ring(group, tensor)
    assert {key: res[key] for key in ref} == ref


def _count_group_calls(monkeypatch) -> dict:
    """Count LatticeGroup.coerce and LatticeGroup.meet calls from now on."""
    calls = {"coerce": 0, "meet": 0}
    for name in calls:
        def counted(self, *args, _name=name, _original=getattr(LatticeGroup, name)):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(LatticeGroup, name, counted)
    return calls


@pytest.mark.parametrize("make_candidate,checked,verdict", [
    (lambda: _diagonal_candidate(3), 3375, "yes"),
    (lambda: load_instance(instance_path("almost-fring.mon")).candidate, 758, "no"),
], ids=["elementwise-3", "almost-fring-instance"])
def test_box_sweep_works_on_support_masks(monkeypatch, make_candidate,
                                          checked, verdict):
    # work counters do not jitter: the box sweep reads int products as
    # positive-support bitmasks, where the per-triple loop made 17,874
    # coerce and 6,750 meet calls on the elementwise product of dimension 3;
    # what is left is the structural witness of a refuted candidate
    cand = make_candidate()
    calls = _count_group_calls(monkeypatch)
    res = is_extended_f_ring(cand)
    assert res["verdict"] == verdict
    assert res["box_checked"] == checked
    assert calls["coerce"] <= 12 and calls["meet"] <= 2


def test_box_sweep_refuses_a_negative_product():
    # the mask argument needs nonnegative products; a tensor entry that
    # went negative after construction is an internal fault, not a verdict
    cand = _diagonal_candidate(2)
    cand._entries = ((0, 0, 0, -1),)
    with pytest.raises(InternalCheckError, match="negative entry"):
        is_extended_f_ring(cand)


def test_fring_strong_localizability_confirmed():
    res = fring_strong_localizability(_diagonal_candidate(2, weights=[2, 3]))
    assert res["status"] == "confirmed" and res["ok"]
    assert res["exact_commutativity"] and res["exact_associativity"]
    assert res["strong"]["verdict"] == "yes"
    assert res["strong"]["weights"] == [2, 3]
    assert res["theorem"]["mode"] == "certified"


def test_fring_strong_localizability_skips_non_f_ring():
    cand = FRingCandidate(LatticeGroup(2), _single_entry_tensor(2, 0, 1, 0))
    res = fring_strong_localizability(cand)
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


def test_almost_fring_counterexample_computes_in_ints(monkeypatch):
    # 4,986 coerce calls when the box products went through the rational
    # carrier's coerce
    calls = _count_group_calls(monkeypatch)
    res = almost_fring_counterexample()
    assert res["ok"]
    assert calls == {"coerce": 0, "meet": 0}
    assert all(type(t) is int for t in res["non_associative_witness"]["left"])


def test_almost_fring_witness_revalidated():
    res = almost_fring_counterexample()
    w = res["non_associative_witness"]
    cand = FRingCandidate(LatticeGroup(3, scalar="rational"),
                          almost_fring_tensor())
    left = cand.mu(cand.mu(w["a"], w["b"]), w["c"])
    right = cand.mu(w["a"], cand.mu(w["b"], w["c"]))
    assert left == tuple(w["left"]) and right == tuple(w["right"])
    assert left != right
    # the same operation is exactly commutative on a full box
    for a in _box(3, -1, 1):
        for b in _box(3, -1, 1):
            assert cand.mu(a, b) == cand.mu(b, a)


def test_almost_fring_tensor_shape():
    t = almost_fring_tensor()
    nonzero = [(i, j, k)
               for i in range(3) for j in range(3) for k in range(3)
               if t[i][j][k]]
    assert nonzero == [(0, 0, 0), (0, 0, 1), (0, 0, 2),
                       (2, 2, 0), (2, 2, 1), (2, 2, 2)]
