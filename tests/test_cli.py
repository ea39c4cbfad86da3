"""End-to-end tests for the command-line harness.

The contract under test: exit code 0 = answered/pass, 1 = refuted,
2 = refused (hypothesis failed), 3 = input error, 4 = budget exhausted,
5 = internal self-check failed;
reports are deterministic JSON (sorted keys, exact rationals, no
timestamps) on stdout, and diagnostics go to stderr.
"""

import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from monoidorder import (cli, formallyreal, functionals, latticeorder,
                         localizability)
from monoidorder.cli import (EXIT_BUDGET, EXIT_INPUT, EXIT_INTERNAL, EXIT_PASS,
                             EXIT_REFUSED, EXIT_REFUTED, REPRODUCE_IDS,
                             default_golden_path, main, reproduce_document)
from monoidorder.exactmath import InternalCheckError
from monoidorder.instancefile import load_instance
from monoidorder.latticeorder import (fring_strong_localizability,
                                      is_extended_f_ring)
from monoidorder.monoids import BiadditiveOp, leq
from monoidorder.reports import render_report

from conftest import instance_path


def run_cli(*argv):
    """Invoke the CLI in-process and capture (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv)
    return code, (json.loads(out) if out else None), err


# --------------------------------------------------------------------------
# order
# --------------------------------------------------------------------------

def test_order_reports_both_directions_and_reductions():
    code, doc, _ = run_json("order", instance_path("slanted-cone.mon"),
                            "1,0", "2,2")
    assert code == EXIT_PASS
    assert doc["command"] == "order"
    assert doc["leq_ab"] is True and doc["leq_ba"] is False
    assert doc["approx"] is False
    assert doc["reduction_level1_leq_ab"] is True
    assert doc["reduction_level2_equal"] is False
    assert doc["consistent"] is True


def test_order_decides_members_with_large_coefficients(tmp_path):
    # 1 = 78*97 - 85*89, so 0 <~ 1 and, with 1 a unit, 1 <~ 0
    path = tmp_path / "wide-line.mon"
    path.write_text("kind: lattice\ndim: 1\n\n[generators]\n97\n-89\n",
                    encoding="utf-8")
    code, doc, err = run_json("order", str(path), "1", "0")
    assert code == EXIT_PASS, err
    assert doc["leq_ab"] is True and doc["leq_ba"] is True


def test_order_on_finite_instance_uses_element_names():
    code, doc, _ = run_json("order", instance_path("finite-flag.mon"),
                            "o", "t")
    assert code == EXIT_PASS
    assert doc["a"] == "o" and doc["b"] == "t"
    assert doc["consistent"] is True


@pytest.mark.parametrize("name,a,b", [
    ("free-monoid-2.mon", "2,0", "1,3"),
    ("half-open-half-plane.mon", "1,0", "1,5"),
    ("cyclic-3.mon", "a", "z"),
])
def test_order_reductions_always_agree_with_direct_decision(name, a, b):
    code, doc, _ = run_json("order", instance_path(name), a, b)
    assert code == EXIT_PASS
    assert doc["consistent"] is True


def test_order_output_is_byte_stable():
    args = ("order", instance_path("half-open-half-plane.mon"),
            "1/2,-3", "1/2,7")
    _, first, _ = run_cli(*args)
    _, second, _ = run_cli(*args)
    assert first.encode() == second.encode()
    doc = json.loads(first)
    assert doc["approx"] is True and doc["leq_ab"] is False


# --------------------------------------------------------------------------
# localizable
# --------------------------------------------------------------------------

def test_localizable_element_yes_exits_zero():
    code, doc, _ = run_json("localizable", instance_path("matrix-2x2.mon"),
                            "1,0,0,1")
    assert code == EXIT_PASS
    assert doc["mode"] == "element"
    assert doc["result"]["verdict"] == "yes"


def test_localizable_element_no_exits_one():
    code, doc, _ = run_json("localizable", instance_path("matrix-2x2.mon"),
                            "0,1,1,0")
    assert code == EXIT_REFUTED
    assert doc["result"]["verdict"] == "no"


def test_localizable_weak_verdicts():
    code, doc, _ = run_json("localizable", instance_path("matrix-2x2.mon"),
                            "--weak")
    assert code == EXIT_REFUTED
    assert doc["certificate"]["verdict"] == "no"
    assert doc["certificate"]["refuted"] is not None

    code, doc, _ = run_json("localizable",
                            instance_path("free-monoid-3.mon"), "--weak")
    assert code == EXIT_PASS
    assert doc["certificate"]["verdict"] == "yes"
    assert doc["certificate"]["assignments"]


def test_weak_refutation_builds_no_dominator_candidates(monkeypatch):
    # the obstruction refutes the matrix product before any dominator search,
    # so a large budget costs nothing: only the budget-2 obstruction pool
    requested = []
    candidates = localizability._lattice_candidates

    def counted(m, budget):
        requested.append(budget)
        return candidates(m, budget)

    monkeypatch.setattr(localizability, "_lattice_candidates", counted)
    code, doc, _ = run_json("--budget", "64", "localizable",
                            instance_path("matrix-2x2.mon"), "--weak")
    assert code == EXIT_REFUTED
    assert requested == [2]
    _, small, _ = run_json("localizable", instance_path("matrix-2x2.mon"),
                           "--weak")
    assert small["certificate"]["budget"] == 8
    assert doc["certificate"]["budget"] == 64
    assert dict(doc["certificate"], budget=8) == small["certificate"]


def test_localizable_strong_exits_zero_on_elementwise_product():
    code, doc, _ = run_json("localizable",
                            instance_path("free-monoid-3.mon"), "--strong")
    assert code == EXIT_PASS
    assert doc["result"]["verdict"] == "yes"


def test_localizable_without_element_or_mode_is_an_input_error():
    code, _, err = run_cli("localizable", instance_path("free-monoid-2.mon"))
    assert code == EXIT_INPUT
    assert "needs an element argument or --weak/--strong" in err


@pytest.mark.parametrize("name,a,b,shown", [
    ("free-monoid-2.mon", "-1,0", "0,0", "[-1, 0]"),
    ("half-open-half-plane.mon", "1/2,0", "-1/2,0", "[-1/2, 0]"),
    ("half-open-half-plane.mon", "-1/2,0", "1,0", "[-1/2, 0]"),
])
def test_an_element_with_a_negative_first_coordinate_is_a_positional(name, a, b, shown):
    code, out, err = run_cli("order", instance_path(name), a, b)
    assert code == EXIT_INPUT and out == ""
    assert f"input error: element {shown} is not in the monoid described by" in err


def test_a_refused_rational_element_is_printed_with_rationals():
    code, _, err = run_cli("order", instance_path("half-open-half-plane.mon"), "1/2,0", "0,-1/2")
    assert code == EXIT_INPUT
    assert "input error: element [0, -1/2] is not in the monoid described by" in err
    assert "Fraction" not in err


# --------------------------------------------------------------------------
# verify --main / --fring / --orderunit / --weak-strong
# --------------------------------------------------------------------------

def test_verify_main_passes_on_elementwise_product():
    code, doc, _ = run_json("verify", instance_path("free-monoid-3.mon"),
                            "--main")
    assert code == EXIT_PASS
    assert doc["status"] == "pass"
    assert doc["result"]["ok"] is True
    assert doc["result"]["mode"] == "certified"
    hyp = doc["hypotheses"][0]
    assert hyp["name"] == "weak-localizability"
    assert hyp["status"] == "checked"


def test_verify_main_refuses_on_matrix_product():
    code, doc, _ = run_json("verify", instance_path("matrix-2x2.mon"),
                            "--main")
    assert code == EXIT_REFUSED
    assert doc["status"] == "refused"
    assert "refuted" in doc["reason"]
    assert doc["hypotheses"][0]["detail"]["verdict"] == "no"


def test_verify_main_runs_one_weak_search(monkeypatch):
    # work counters do not jitter: the sweep reuses the certificate that
    # gated it instead of searching again
    calls = []
    search = localizability.is_weakly_localizable

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    for module in (cli, functionals):
        monkeypatch.setattr(module, "is_weakly_localizable", counted)
    assert main(["verify", instance_path("free-monoid-3.mon"), "--main"]) == EXIT_PASS
    assert len(calls) == 1


def test_verify_fring_passes_on_weighted_product():
    code, doc, _ = run_json("verify", instance_path("fring-weighted-2.mon"),
                            "--fring")
    assert code == EXIT_PASS
    assert doc["status"] == "pass"
    assert doc["result"]["status"] == "confirmed"


def test_verify_fring_refuses_on_almost_fring():
    code, doc, _ = run_json("verify", instance_path("almost-fring.mon"),
                            "--fring")
    assert code == EXIT_REFUSED
    assert doc["status"] == "refused"
    assert doc["reason"] == "the candidate is not an extended f-ring"
    assert doc["hypotheses"][0]["detail"]["verdict"] == "no"


def _direct_fring_document(name):
    """The ``verify --fring`` report, built from direct library calls."""
    inst = load_instance(instance_path(name))
    fr = is_extended_f_ring(inst.op)
    doc = {"command": "verify", "instance": inst.describe(), "goal": "fring",
           "hypotheses": [{"name": "extended-f-ring",
                           "status": "checked" if fr["verdict"] == "yes"
                           else "failed",
                           "detail": fr}]}
    if fr["verdict"] != "yes":
        doc["status"] = "refused"
        doc["reason"] = "the candidate is not an extended f-ring"
        return doc, EXIT_REFUSED
    doc["result"] = fring_strong_localizability(inst.op)
    doc["status"] = "pass"
    return doc, EXIT_PASS


@pytest.mark.parametrize("name", ["fring-elementwise-3.mon",
                                  "fring-weighted-2.mon", "almost-fring.mon"])
def test_verify_fring_report_equals_direct_calls(name):
    expected, expected_code = _direct_fring_document(name)
    args = cli.build_parser().parse_args(["verify", instance_path(name),
                                          "--fring"])
    doc, code = args.func(args)
    assert code == expected_code
    assert list(doc) == list(expected) and doc == expected
    code, out, _ = run_cli("verify", instance_path(name), "--fring")
    assert (code, out) == (expected_code, render_report(expected))


def _count_f_ring_work(monkeypatch):
    """Count f-ring verdicts and ``BiadditiveOp.mu`` products."""
    calls = {"verdicts": 0, "mu": 0}
    verdict, mu = latticeorder.is_extended_f_ring, BiadditiveOp.mu

    def counted_verdict(*args, **kwargs):
        calls["verdicts"] += 1
        return verdict(*args, **kwargs)

    def counted_mu(self, a, b):
        calls["mu"] += 1
        return mu(self, a, b)

    monkeypatch.setattr(latticeorder, "is_extended_f_ring", counted_verdict)
    # also where the command module may hold its own reference
    monkeypatch.setattr(cli, "is_extended_f_ring", counted_verdict,
                        raising=False)
    monkeypatch.setattr(BiadditiveOp, "mu", counted_mu)
    return calls


def test_verify_fring_decides_once_and_the_verdict_makes_no_products(
        monkeypatch):
    # work counters do not jitter: the verdict reads the tensor, so on a
    # diagonal one it computes no product
    calls = _count_f_ring_work(monkeypatch)
    path = instance_path("fring-elementwise-3.mon")
    code, _, _ = run_cli("verify", path, "--fring")
    assert code == EXIT_PASS
    assert calls["verdicts"] == 1
    op = load_instance(path).op
    calls["mu"] = 0
    assert latticeorder.is_extended_f_ring(op)["verdict"] == "yes"
    assert calls["mu"] == 0


def test_reproduce_almost_fring_memoizes_products(monkeypatch):
    calls = _count_f_ring_work(monkeypatch)
    code, _, _ = run_cli("reproduce", "almost-fring")
    assert code == EXIT_PASS
    assert calls["mu"] <= 1000


def test_rational_fring_is_strongly_localizable_by_structure(tmp_path):
    # the closed orthant of Q^2 with a diagonal tensor takes the structural
    # path, as N^2 does, not a sampled one
    path = tmp_path / "fring-rational-2.mon"
    path.write_text("kind: lattice-group\ndim: 2\nscalar: rational\n"
                    "[tensor]\n0 0 2 0\n1 1 0 3\n")
    code, doc, _ = run_json("verify", str(path), "--fring")
    assert (code, doc["status"]) == (EXIT_PASS, "pass")
    assert doc["result"]["strong"]["confirmed"] == "structural"
    assert doc["result"]["strong"]["weights"] == [2, 3]
    code, doc, _ = run_json("localizable", str(path), "--strong")
    assert (code, doc["result"]["confirmed"]) == (EXIT_PASS, "structural")
    # the orthant is pointed with no excluded face, so the weak-strong
    # audit's hypothesis holds, as on the integer form of the f-ring
    code, doc, _ = run_json("verify", str(path), "--weak-strong")
    assert (code, doc["status"]) == (EXIT_PASS, "confirmed")
    assert doc["result"]["weak"]["verdict"] == "yes"
    assert doc["result"]["strong"]["confirmed"] == "structural"


def test_weak_unknown_reason_prints_rationals_as_p_over_q(tmp_path):
    path = tmp_path / "cone.mon"
    path.write_text("kind: open-cone\ndim: 2\n[rays]\n1 0\n1 2\n"
                    "[tensor]\n0 0 0 0\n1 0 1 0\n")
    code, doc, _ = run_json("localizable", str(path), "--weak")
    assert code == EXIT_BUDGET
    assert doc["certificate"]["reason"] == (
        "no localizable dominator found for (2, 0) within budget 8")


def test_verify_fring_needs_a_lattice_group_instance():
    code, _, err = run_cli("verify", instance_path("free-monoid-2.mon"),
                           "--fring")
    assert code == EXIT_INPUT
    assert "needs a lattice-group instance" in err


def test_verify_orderunit_fast_path_on_elementwise_unit():
    code, doc, _ = run_json("verify", instance_path("free-monoid-3.mon"),
                            "--orderunit", "--element", "1,1,1")
    assert code == EXIT_PASS
    assert doc["status"] == "pass"
    assert doc["certificate"]["verdict"] == "yes"
    assert doc["certificate"]["method"] == "order-unit"


def test_verify_orderunit_falls_back_to_search_for_one_sided_unit():
    # (1, 0) is only a left unit for the half-plane operation, so the fast
    # path refuses and the generic search still answers yes.
    code, doc, _ = run_json("verify",
                            instance_path("half-open-half-plane.mon"),
                            "--orderunit", "--element", "1,0")
    assert code == EXIT_PASS
    assert doc["certificate"]["verdict"] == "yes"
    assert doc["certificate"]["method"] == "search-after-refusal"


def test_verify_orderunit_reports_the_refusal_in_its_ledger():
    # the fast path refuses the non-unit, the search refutes weak
    # localizability, and the exit code follows that verdict
    code, doc, _ = run_json("verify", instance_path("matrix-2x2.mon"),
                            "--orderunit", "--element", "1,1,1,1")
    assert code == EXIT_REFUTED
    assert doc["status"] == "refuted"
    assert doc["hypotheses"] == [{
        "name": "order-unit-and-operation-unit", "status": "failed",
        "detail": ["not a two-sided unit for the operation"]}]


def test_verify_weak_strong_statuses_and_exits():
    code, doc, _ = run_json("verify", instance_path("free-monoid-3.mon"),
                            "--weak-strong")
    assert (code, doc["status"]) == (EXIT_PASS, "confirmed")

    code, doc, _ = run_json("verify", instance_path("matrix-2x2.mon"),
                            "--weak-strong")
    assert (code, doc["status"]) == (EXIT_PASS, "vacuous")
    assert "not weakly localizable" in doc["result"]["reason"]

    code, doc, _ = run_json("verify",
                            instance_path("half-open-half-plane.mon"),
                            "--weak-strong")
    assert (code, doc["status"]) == (EXIT_REFUSED, "skipped")
    assert "lattice carrier" in doc["result"]["reason"]


# --------------------------------------------------------------------------
# extremals
# --------------------------------------------------------------------------

def test_extremals_on_slanted_cone_lists_both_support_functionals():
    code, doc, _ = run_json("extremals", instance_path("slanted-cone.mon"),
                            "--elements", "1,0; 1,2")
    assert code == EXIT_PASS
    assert doc["extremal_count"] == 2
    covectors = sorted(tuple(e["carrier_covector"]) for e in doc["extremals"])
    assert covectors == [(0, 1), (2, -1)]
    # Each extremal vanishes on exactly one generator of the cone.
    value_rows = sorted(
        tuple(v["value"] for v in e["values"]) for e in doc["extremals"])
    assert value_rows == [(0, 1), (1, 0)]


def test_extremals_on_line_group_reports_degenerate_subgroup():
    code, doc, _ = run_json("extremals", instance_path("line-group.mon"),
                            "--elements", "1; -1")
    assert code == EXIT_PASS
    assert doc["extremal_count"] == 0
    assert doc["extremals"] == []
    assert "degenerate" in doc["note"]


def test_extremals_with_operation_reports_multiplicative_normalization():
    code, doc, _ = run_json("extremals", instance_path("free-monoid-2.mon"),
                            "--elements", "1,0; 0,1; 1,1")
    assert code == EXIT_PASS
    assert doc["extremal_count"] == 2
    for entry in doc["extremals"]:
        assert entry["normalization"]["status"] == "multiplicative"
    covectors = sorted(tuple(e["carrier_covector"]) for e in doc["extremals"])
    assert covectors == [(0, 1), (1, 0)]


def test_extremals_on_a_cone_with_more_dual_rays_than_its_rank(tmp_path):
    # the dual cone of this square pyramid has four extreme rays in rank 3;
    # each one is a linear, but not a conic, combination of the other three
    path = tmp_path / "pyramid.mon"
    path.write_text("kind: lattice\ndim: 3\n\n[generators]\n1 0 1\n0 1 1\n"
                    "-1 0 1\n0 -1 1\n", encoding="utf-8")
    code, doc, err = run_json("extremals", str(path), "--elements",
                              "1,0,1; 0,1,1; -1,0,1; 0,-1,1")
    assert code == EXIT_PASS, err
    assert doc["extremal_count"] == 4
    covectors = sorted(tuple(e["ambient_covector"]) for e in doc["extremals"])
    assert covectors == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]


# mu(e0, e0) = (1, 1) and mu(e1, e0) = e0 on N^2
VANISHING_AT_S_ONLY = ("kind: lattice\ndim: 2\n[generators]\n1 0\n0 1\n"
                       "[tensor]\n0 0 1 1\n1 0 1 0\n")


def test_extremals_functional_vanishing_at_s_but_not_on_a_product(tmp_path):
    # phi = the second coordinate vanishes at s = (1, 0), the only element,
    # but not at mu(s, s) = (1, 1): no rescaling of it is multiplicative
    path = tmp_path / "vanishing.mon"
    path.write_text(VANISHING_AT_S_ONLY, encoding="utf-8")
    code, doc, err = run_json("extremals", str(path), "--elements", "1,0")
    assert code == EXIT_PASS, err
    [norm] = [e["normalization"] for e in doc["extremals"]
              if e["carrier_covector"] == [0, 1]]
    assert norm["status"] == "precondition-failed"
    assert [c["ok"] for c in norm["degenerate_checks"]] == [True, False]
    assert norm["reason"]


def test_extremals_rejects_elements_outside_the_monoid():
    code, _, err = run_cli("extremals", instance_path("slanted-cone.mon"),
                           "--elements", "0,1")
    assert code == EXIT_INPUT
    assert "not in the monoid" in err


# --------------------------------------------------------------------------
# grothendieck
# --------------------------------------------------------------------------

def test_grothendieck_dump_on_cyclic_group():
    code, doc, _ = run_json("grothendieck", instance_path("cyclic-3.mon"))
    assert code == EXIT_PASS
    assert doc["grothendieck_group"] == {
        "kind": "finite", "classes": 3, "monoid_image_classes": [0, 1, 2]}
    # A finite group is order-chaotic, so both reductions collapse.
    for level_key, level in (("reduction_level1", 1),
                             ("reduction_level2", 2)):
        red = doc[level_key]
        assert red["level"] == level
        assert red["group_order"] == 1
        assert red["kernel_size"] == 3
        assert red["positive_class_count"] == 1


def test_grothendieck_dump_on_lattice_instance():
    code, doc, _ = run_json("grothendieck", instance_path("slanted-cone.mon"))
    assert code == EXIT_PASS
    assert doc["grothendieck_group"]["kind"] == "lattice"
    assert doc["grothendieck_group"]["lattice_basis"] == [[1, 0], [0, 2]]
    assert doc["level1_to_level2_map"]


def test_grothendieck_of_a_wide_lattice_ends_in_under_two_seconds(tmp_path):
    # the 10 x 6 lattice on which Smith pivoting grows its entries past
    # 20,000 bits, as nothing reduces the entries off the pivot
    path = tmp_path / "snf6.mon"
    path.write_text("kind: lattice\ndim: 6\n\n[generators]\n-2 3 -2 4 4 3\n"
                    "3 -3 -1 3 4 4\n0 4 -2 4 4 4\n0 0 2 -1 0 -2\n4 4 0 3 -1 2\n"
                    "4 -3 4 -4 2 -4\n4 -4 4 2 4 -3\n3 -3 -2 -3 4 3\n2 2 0 -1 3 3\n"
                    "-2 1 2 3 4 1\n")
    start = time.perf_counter()
    code, doc, err = run_json("grothendieck", str(path))
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_PASS, err
    for level in ("reduction_level1", "reduction_level2"):
        assert (doc[level]["free_rank"], doc[level]["kernel_rank"]) == (6, 0)


def test_grothendieck_refuses_instances_without_a_canonical_order():
    code, _, err = run_cli("grothendieck", instance_path("rational-function.mon"))
    assert code == EXIT_INPUT
    assert "no canonical quasi-order" in err


@pytest.mark.parametrize("name", ["almost-fring.mon", "fring-weighted-2.mon",
                                  "fring-elementwise-3.mon"])
@pytest.mark.parametrize("command", [["grothendieck"], ["order", "1,1", "1,1"],
                                     ["extremals", "--elements", "1,1"]])
def test_carrier_commands_refuse_a_lattice_group_by_its_kind(name, command):
    # the file fixes its carrier to an orthant and gives an operation on
    # it, so questions about a carrier belong to a lattice or open-cone file
    code, out, err = run_cli(command[0], instance_path(name), *command[1:])
    assert (code, out) == (EXIT_INPUT, "")
    assert (f"{instance_path(name)}: kind 'lattice-group' gives an operation on "
            "a fixed orthant; carrier questions go to a lattice or open-cone "
            "instance") in err


# --------------------------------------------------------------------------
# sos
# --------------------------------------------------------------------------

def test_sos_membership_pass_and_refuted():
    code, doc, _ = run_json("sos", "x^2 + 1")
    assert code == EXIT_PASS
    assert doc["result"]["member"] is True

    code, doc, _ = run_json("sos", "x")
    assert code == EXIT_REFUTED
    assert doc["result"]["member"] is False
    assert doc["result"]["witness"] == -1


def test_sos_parse_errors_carry_a_position():
    code, _, err = run_cli("sos", "x^")
    assert code == EXIT_INPUT
    assert "position" in err

    code, _, err = run_cli("sos", "1/0")
    assert code == EXIT_INPUT
    assert "nonzero divisor" in err


@pytest.mark.parametrize("expression,needle", [
    ("x^99999999999", "exponent 99999999999 is above the cap of 1000"),
    ("2^99999999999", "exponent 99999999999 is above the cap of 1000"),
    ("x^999*x^999", "expression reaches degree 1998; the cap is 1000"),
    ("x^600 + 1/x^600", "expression reaches degree 1200"),
    ("((2^1000)^1000)^100", "more than 4096 bits"),
    ("1" * 1234, "an integer of at most 1233 digits"),
])
def test_sos_input_past_the_caps_is_refused_fast(expression, needle):
    # each is refused before the power, product or integer is formed
    start = time.perf_counter()
    code, out, err = run_cli("sos", expression)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INPUT
    assert out == ""
    assert needle in err and "Traceback" not in err


def test_sos_input_at_the_degree_cap_is_accepted():
    code, doc, _ = run_json("sos", "x^1000 + 1")
    assert code == EXIT_PASS
    assert doc["result"]["member"] is True


def test_sos_negative_at_zero_isolates_no_root(monkeypatch):
    # 0 is the first candidate, so it is signed before the 1000 roots of
    # the Sturm chain are isolated and refined
    calls = []
    isolate = formallyreal.isolate_real_roots

    def counted(chain):
        calls.append(chain)
        return isolate(chain)

    monkeypatch.setattr(formallyreal, "isolate_real_roots", counted)
    code, doc, err = run_json("sos", "(x+1)^1000-2")
    assert code == EXIT_REFUTED, err
    assert doc["result"]["member"] is False
    assert doc["result"]["witness"] == 0
    assert doc["result"]["witness_value"] == -1
    assert calls == []


def test_sos_two_roots_closer_than_recursion_depth_are_refuted():
    # the roots 1 and 1 + 2^-1000 separate only after ~1000 bisections,
    # deeper than Python's default recursion limit
    start = time.monotonic()
    code, doc, err = run_json("sos", "(x-1)*(x-1-1/(2^1000))")
    elapsed = time.monotonic() - start
    assert code == EXIT_REFUTED, err
    assert doc["result"]["member"] is False
    assert Fraction(doc["result"]["witness_value"]) < 0
    assert "Traceback" not in err
    assert elapsed < 2


def test_sos_isolation_evaluates_no_point_beyond_the_roots(monkeypatch):
    # the Cauchy bound of (x-3)^200-1 is ~2^397 wide, but every grid point
    # beyond the chain's power-of-two root bound has a known count
    calls = []
    variations = formallyreal.SturmChain.variations

    def counted(self, x):
        calls.append(x)
        return variations(self, x)

    monkeypatch.setattr(formallyreal.SturmChain, "variations", counted)
    start = time.monotonic()
    code, doc, err = run_json("sos", "(x-3)^200-1")
    elapsed = time.monotonic() - start
    assert code == EXIT_REFUTED, err
    assert (doc["result"]["witness"], doc["result"]["witness_value"]) == (3, -1)
    assert len(calls) <= 50
    assert elapsed < 2


def test_sos_theorem_samples_past_the_denominator_roots():
    # the denominator vanishes at 0, 1, -1, 2, -2, 3 and -3; the sample walk
    # takes at most deg(den) + 1 = 8 points, so it reaches 4
    text = "1/(x*(x-1)*(x+1)*(x-2)*(x+2)*(x-3)*(x+3))"
    code, doc, err = run_json("sos", text, "--theorem")
    assert code == EXIT_PASS, err
    result = doc["result"]
    assert result["k"] == 1
    assert result["sample_point"] == 4
    witness = Fraction(str(result["witness"]))
    value = Fraction(str(result["witness_value"]))
    f = formallyreal.parse_rational_function(text)
    assert value < 0
    assert f.evaluate(witness) - 1 == value


def test_sos_theorem_mode_reports_the_least_refuted_shift():
    code, doc, _ = run_json("sos", "(x^4+3)/(x^2+1)", "--theorem")
    assert code == EXIT_PASS
    assert doc["mode"] == "least-refuted-shift"
    assert doc["result"]["k"] == 3
    assert doc["result"]["witness"] == 1
    assert doc["result"]["witness_value"] == -1


def test_sos_theorem_large_shift_needs_logarithmically_many_memberships(
        monkeypatch):
    calls, witnesses = [], []
    decide = formallyreal._shift_is_member
    membership = formallyreal.is_sos_membership

    def counted(n, d, k):
        calls.append(k)
        return decide(n, d, k)

    def counted_witness(f):
        witnesses.append(f)
        return membership(f)

    monkeypatch.setattr(formallyreal, "_shift_is_member", counted)
    monkeypatch.setattr(formallyreal, "is_sos_membership", counted_witness)
    code, doc, _ = run_json("sos", "x^2+100000", "--theorem")
    assert code == EXIT_PASS
    result = doc["result"]
    assert result["k"] == 100001
    witness = Fraction(str(result["witness"]))
    value = Fraction(str(result["witness_value"]))
    assert value < 0
    assert witness * witness + 100000 - result["k"] == value
    cap = result["bound"]
    ceil_log2_cap = (cap - 1).bit_length()
    assert len(calls) <= 2 * ceil_log2_cap + 2
    assert len(witnesses) == 1


def test_sos_categorize_both_known_fields():
    code, doc, _ = run_json("sos", "--categorize", "Q")
    assert code == EXIT_PASS
    assert doc["result"]["category"] == 3
    # Least refuted shift per sampled element: n needs k = n + 1.
    assert [(e["element"], e["k"]) for e in doc["result"]["evidence"]] == \
        [("0", 1), ("1", 2), ("2", 3), ("7", 8)]

    code, doc, _ = run_json("sos", "--categorize", "Q(x)")
    assert code == EXIT_PASS
    assert doc["result"]["category"] == 3
    assert doc["result"]["minus_one_member"] is False


def test_sos_categorize_unknown_field_is_an_input_error():
    code, _, err = run_cli("sos", "--categorize", "octonions")
    assert code == EXIT_INPUT
    assert "input error" in err


# --------------------------------------------------------------------------
# reproduce: worked examples against packaged goldens
# --------------------------------------------------------------------------

@pytest.mark.parametrize("example", REPRODUCE_IDS)
def test_reproduce_matches_packaged_golden(example):
    code, doc, _ = run_json("reproduce", example)
    assert code == EXIT_PASS
    assert doc["ok"] is True
    assert doc["golden_match"] is True


@pytest.mark.parametrize("example", REPRODUCE_IDS)
def test_reproduce_document_renders_to_golden_bytes(example):
    rendered = render_report(reproduce_document(example), "json")
    golden = default_golden_path(example).read_text(encoding="utf-8")
    assert rendered == golden


def test_reproduce_unknown_id_lists_the_known_ones():
    code, _, err = run_cli("reproduce", "bogus-id")
    assert code == EXIT_INPUT
    for example in REPRODUCE_IDS:
        assert example in err


def test_reproduce_detects_a_stale_golden(tmp_path):
    stale = tmp_path / "stale.json"
    stale.write_text("{}\n", encoding="utf-8")
    code, doc, err = run_json("reproduce", "intro-free-monoid",
                              "--golden", str(stale))
    assert code == EXIT_REFUTED
    assert doc["golden_match"] is False
    assert "differs from golden" in err


# --------------------------------------------------------------------------
# output discipline
# --------------------------------------------------------------------------

def test_text_format_flattens_the_report():
    code, out, _ = run_cli("--format", "text", "order",
                           instance_path("slanted-cone.mon"), "1,0", "2,2")
    assert code == EXIT_PASS
    lines = out.splitlines()
    assert "leq_ab: true" in lines
    assert "leq_ba: false" in lines
    assert "consistent: true" in lines
    assert not out.startswith("{")


def test_stdout_is_pure_json_and_timing_goes_to_stderr():
    code, out, err = run_cli("localizable",
                             instance_path("free-monoid-2.mon"), "--weak")
    assert code == EXIT_PASS
    json.loads(out)
    assert "[timing]" in err
    assert "[timing]" not in out


def test_missing_instance_file_is_an_input_error():
    code, _, err = run_cli("order", instance_path("never-there.mon"),
                           "0", "1")
    assert code == EXIT_INPUT
    assert "cannot read instance file" in err


def test_module_entry_point_runs_as_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "monoidorder", "order",
         instance_path("free-monoid-2.mon"), "1,0", "2,0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_PASS
    doc = json.loads(proc.stdout)
    assert doc["leq_ab"] is True and doc["approx"] is False


@pytest.mark.parametrize("argv,needle", [
    (["--bogus", "sos", "x"], "unrecognized arguments: --bogus"),
    (["sos", "--x"], "unrecognized arguments: --x"),
    (["sos", "x", "--budget", "3"], "unrecognized arguments: --budget 3"),
    (["--budget", "-1", "sos", "x"], "argument --budget: must be nonnegative"),
    (["--samples=5", "sos", "x"], "unrecognized arguments: --samples=5"),
    (["--budget", "many", "sos", "x"], "argument --budget: invalid int value"),
    (["frobnicate"], "argument command: invalid choice"),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_are_input_errors(argv, needle):
    code, out, err = run_cli(*argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: ") and needle in err


def test_zero_budget_is_accepted():
    code, doc, _ = run_json("--budget", "0", "sos", "x^2")
    assert code == EXIT_PASS and doc["result"]["member"] is True


def test_help_still_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run_cli("-h")
    assert exc.value.code == 0


def test_exit_code_constants_are_the_documented_contract():
    assert (EXIT_PASS, EXIT_REFUTED, EXIT_REFUSED, EXIT_INPUT,
            EXIT_BUDGET, EXIT_INTERNAL) == (0, 1, 2, 3, 4, 5)


@pytest.mark.parametrize("argv", [
    ["order", "a", "b"],
    ["localizable", "a"],
    ["localizable", "--weak"],
    ["localizable", "--strong"],
    ["verify", "--main"],
    ["verify", "--fring"],
    ["verify", "--orderunit", "--element", "a"],
    ["verify", "--weak-strong"],
    ["extremals", "--elements", "a"],
    ["grothendieck"],
])
def test_a_finite_file_without_elements_is_an_input_error(tmp_path, argv):
    # an empty "names:" header leaves no neutral element
    path = tmp_path / "empty.mon"
    path.write_text("kind: finite\nnames:\n\n[add]\n\n[mu]\n")
    code, out, err = run_cli(argv[0], str(path), *argv[1:])
    assert code == EXIT_INPUT
    assert out == ""
    assert "finite carrier needs at least one element" in err


@pytest.mark.parametrize("tensor", ["0 0 1 0\n", ""])
def test_huge_dim_without_matching_tensor_rows_is_an_input_error(
        tmp_path, tensor):
    path = tmp_path / "huge.mon"
    path.write_text(f"kind: lattice-group\ndim: 99999999999\n[tensor]\n{tensor}")
    code, out, err = run_cli("verify", str(path), "--fring")
    assert code == EXIT_INPUT
    assert out == ""
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["grothendieck"], ["localizable", "--weak"]])
def test_huge_dim_open_cone_without_inequalities_fails_fast(tmp_path, command):
    path = tmp_path / "huge-cone.mon"
    path.write_text("kind: open-cone\ndim: 99999999999\n[inequalities]\n")
    start = time.perf_counter()
    code, out, err = run_cli(command[0], str(path), *command[1:])
    assert time.perf_counter() - start < 5.0
    assert code == EXIT_INPUT
    assert out == ""
    assert "[inequalities] must not be empty" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["grothendieck"], ["localizable", "0"], ["localizable", "--weak"],
    ["verify", "--main"], ["order", "0", "0"],
], ids=["grothendieck", "localizable", "localizable-weak", "verify-main", "order"])
def test_all_zero_lattice_generators_are_an_input_error(tmp_path, command):
    path = tmp_path / "zero.mon"
    path.write_text("kind: lattice\ndim: 1\n[generators]\n0\n[tensor]\n0 0 1\n")
    code, out, err = run_cli(command[0], str(path), *command[1:])
    assert code == EXIT_INPUT
    assert out == ""
    reported = [line for line in err.splitlines() if line.startswith("input error:")]
    assert reported == [f"input error: {path}: [generators] needs a nonzero row"]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["grothendieck"], ["localizable", "0"], ["localizable", "--weak"],
    ["verify", "--main"],
], ids=["grothendieck", "localizable", "localizable-weak", "verify-main"])
def test_open_cone_that_is_only_the_origin_is_an_input_error(tmp_path, command):
    path = tmp_path / "origin.mon"
    path.write_text("kind: open-cone\ndim: 1\n[inequalities]\n1\n-1\n"
                    "[tensor]\n0 0 1\n")
    code, out, err = run_cli(command[0], str(path), *command[1:])
    assert code == EXIT_INPUT
    assert out == ""
    reported = [line for line in err.splitlines() if line.startswith("input error:")]
    assert reported == [f"input error: {path}: the closed cone is only the origin"]
    assert "Traceback" not in err


LOWER_DIMENSIONAL = {
    # the ray (1, 1) spans a line in the plane: h_rep keeps the implicit
    # equality x = y as the pair (-1, 1), (1, -1)
    "open-cone-line": "kind: open-cone\ndim: 2\n[rays]\n1 1\n"
                      "[tensor]\n0 0 1 0\n1 1 0 1\n",
    # a coordinate plane in 3-D
    "open-cone-plane": "kind: open-cone\ndim: 3\n[rays]\n1 0 0\n0 1 0\n"
                       "[tensor]\n0 0 1 0 0\n1 1 0 1 0\n2 2 0 0 1\n",
    # the lattice analogue of the line
    "lattice-line": "kind: lattice\ndim: 2\n[generators]\n1 1\n2 2\n"
                    "[tensor]\n0 0 1 0\n1 1 0 1\n",
}


@pytest.mark.parametrize("command", [
    ["localizable", "--weak"], ["localizable", "--strong"], ["verify", "--main"],
], ids=["weak", "strong", "verify-main"])
@pytest.mark.parametrize("name", sorted(LOWER_DIMENSIONAL))
def test_lower_dimensional_cones_are_decided(tmp_path, name, command):
    # the ray sum is relatively interior: only the forms that vanish on
    # every ray may vanish on it (these exited 5, "ray sum is not
    # relatively interior", on the open cones)
    path = tmp_path / f"{name}.mon"
    path.write_text(LOWER_DIMENSIONAL[name])
    code, doc, err = run_json(command[0], str(path), *command[1:])
    assert code == EXIT_PASS, err
    assert "Traceback" not in err
    if command[0] == "localizable":
        assert (doc.get("certificate") or doc["result"])["verdict"] == "yes"
    else:
        assert doc["status"] == "pass"


@pytest.mark.parametrize("command", [["grothendieck"], ["localizable", "--weak"]])
def test_open_normal_vanishing_on_the_cone_is_an_input_error(tmp_path, command):
    # an implicit equality chosen as a strict face leaves only the origin
    path = tmp_path / "line-open.mon"
    path.write_text("kind: open-cone\ndim: 2\n[rays]\n1 1\n"
                    "[open-normals]\n1 -1\n[tensor]\n0 0 1 0\n1 1 0 1\n")
    code, out, err = run_cli(command[0], str(path), *command[1:])
    assert code == EXIT_INPUT
    assert out == ""
    assert (f"input error: {path}: open normal [1, -1] vanishes on the whole "
            "closed cone, which leaves only the origin") in err


def test_unverified_hypothesis_exits_with_the_budget_code(tmp_path):
    # within coefficient budget 1 the weak search finds no dominator for
    # (0, 1, 0): verify --main answers "unknown" with the same code as the
    # weak search itself, 4, not the "refused" code 2
    path = tmp_path / "five.mon"
    path.write_text("kind: lattice\ndim: 3\n[generators]\n1 0 0\n0 1 0\n"
                    "0 0 1\n4 5 0\n-1 2 6\n[tensor]\n0 0 0 0 0\n"
                    "1 0 0 0 0\n1 1 0 2 2\n1 2 1 1 0\n2 1 1 2 0\n")
    code, doc, _ = run_json("--budget", "1", "verify", str(path), "--main")
    assert code == EXIT_BUDGET
    assert doc["status"] == "unknown"
    assert doc["hypotheses"][0]["status"] == "unknown"
    assert "could not be verified within budget" in doc["reason"]
    code, doc, _ = run_json("--budget", "1", "localizable", str(path), "--weak")
    assert code == EXIT_BUDGET
    assert doc["certificate"]["verdict"] == "unknown"


FIVE_GENERATORS = ("kind: lattice\ndim: 3\n[generators]\n1 0 0\n0 1 0\n0 0 1\n"
                   "4 5 0\n-1 2 6\n[tensor]\n0 0 0 0 0\n1 0 0 0 0\n"
                   "1 1 0 2 2\n1 2 1 1 0\n2 1 1 2 0\n")
FOUR_GENERATORS = ("kind: lattice\ndim: 3\n[generators]\n1 0 0\n0 1 0\n0 0 1\n"
                   "5 9 3\n[tensor]\n0 1 1 1 2\n1 2 2 0 1\n2 0 1 2 0\n")


def _count_witness_work(monkeypatch):
    counts = {"_witness_pair": 0, "_validate_witness": 0}
    for name in counts:
        real = getattr(localizability, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(localizability, name, counted)
    return counts


def _unknown_weak(source, generators, budget, query, assignments):
    instance = {"dim": 3, "generators": generators, "has_operation": True,
                "kind": "lattice", "source": source}
    certificate = {
        "assignments": assignments, "budget": budget, "details": {},
        "method": "search", "refuted": None, "verdict": "unknown",
        "reason": f"no localizable dominator found for {query} within "
                  f"coefficient budget {budget}"}
    return instance, certificate


def test_weak_search_builds_no_witness_it_does_not_print(tmp_path, monkeypatch):
    # a refuted candidate only needs its verdict: the search and the
    # verify --main gate build and re-validate no witness pair, and print
    # what they printed when they built one for every refuted candidate
    five, four = tmp_path / "five.mon", tmp_path / "four.mon"
    five.write_text(FIVE_GENERATORS, encoding="utf-8")
    four.write_text(FOUR_GENERATORS, encoding="utf-8")
    five_gens = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [4, 5, 0], [-1, 2, 6]]
    four_gens = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [5, 9, 3]]
    inst5, weak5 = _unknown_weak(str(five), five_gens, 8, "(0, 1, 0)",
                                 {"['1', '0', '0']": ["1", "0", "0"]})
    inst4, weak4 = _unknown_weak(str(four), four_gens, 16, "(1, 0, 0)", {})
    runs = [
        (("--budget", "8", "localizable", str(five), "--weak"),
         {"command": "localizable", "instance": inst5, "mode": "weak",
          "certificate": weak5}),
        (("--budget", "16", "localizable", str(four), "--weak"),
         {"command": "localizable", "instance": inst4, "mode": "weak",
          "certificate": weak4}),
        (("--budget", "8", "verify", str(five), "--main"),
         {"command": "verify", "goal": "main", "instance": inst5,
          "hypotheses": [{"detail": weak5, "name": "weak-localizability",
                          "status": "unknown"}],
          "reason": "the weak localizability hypothesis could not be "
                    "verified within budget",
          "status": "unknown"}),
    ]
    for argv, want in runs:
        counts = _count_witness_work(monkeypatch)
        code, out, err = run_cli(*argv)
        assert code == EXIT_BUDGET, err
        assert out == render_report(want)
        assert counts == {"_witness_pair": 0, "_validate_witness": 0}, argv


@pytest.mark.parametrize("text,element,direction,witness", [
    (FIVE_GENERATORS, "0,1,0", [-15, -4, 14], [["12", "24", "21"], ["-3", "20", "35"]]),
    (FOUR_GENERATORS, "0,1,0", [-2, 0, 1], [["6", "10", "4"], ["4", "10", "5"]]),
    (FOUR_GENERATORS, "1,1,1", [-2, 2, 1], [["6", "10", "4"], ["4", "12", "5"]]),
], ids=["five-0,1,0", "four-0,1,0", "four-1,1,1"])
def test_a_printed_witness_is_built_and_re_validated(tmp_path, monkeypatch, text,
                                                     element, direction, witness):
    path = tmp_path / "carrier.mon"
    path.write_text(text, encoding="utf-8")
    counts = _count_witness_work(monkeypatch)
    code, doc, err = run_json("localizable", str(path), element)
    assert code == EXIT_REFUTED, err
    assert doc["result"] == {
        "details": {"injective_on_span": True, "violating_direction": direction},
        "kind": "full", "verdict": "no", "witness": witness,
        "reason": "left condition fails: preimage cone escapes the positivity cone",
        "subject": element.split(",")}
    assert counts == {"_witness_pair": 1, "_validate_witness": 1}


OPEN_QUADRANT = ("kind: open-cone\ndim: 2\n\n[rays]\n1 0\n0 1\n\n"
                 "[open-normals]\n1 0\n\n[tensor]\n")


def _open_quadrant_report(tmp_path, tensor_rows, element):
    """Run ``localizable`` on the quadrant with open normal (1, 0) and the
    given tensor rows; the exit code, stdout, stderr and the report with
    its result left out."""
    path = tmp_path / "quadrant.mon"
    path.write_text(OPEN_QUADRANT + tensor_rows, encoding="utf-8")
    code, out, err = run_cli("localizable", str(path), element)
    frame = {"command": "localizable", "mode": "element",
             "element": [int(v) for v in element.split(",")],
             "instance": {"closed_rays": [[0, 1], [1, 0]], "dim": 2,
                          "has_operation": True, "kind": "open-cone",
                          "open_normals": [[1, 0]], "source": str(path)}}
    return code, out, err, frame


def _refutes(path, element, witness) -> bool:
    """The witness breaks the left condition at the element, read from the
    definitions: ``mu(s, a) + a <~ mu(s, b) + b`` but not ``a <~ b``."""
    op = load_instance(str(path)).require_op()
    m = op.carrier
    s = tuple(Fraction(v) for v in element.split(","))
    a, b = (tuple(Fraction(v) for v in w) for w in witness)

    def damped(x):
        return tuple(p + v for p, v in zip(op.mu(s, x), x))
    return leq(m, damped(a), damped(b)) and not leq(m, a, b)


def test_open_cone_kernel_refutation_report_is_unchanged(tmp_path):
    # the report as recorded before lattices and open cones shared a decision
    code, out, err, frame = _open_quadrant_report(
        tmp_path, "0 0 0 1\n0 1 1 0\n1 0 2 0\n1 1 2 1\n", "1,0")
    assert code == EXIT_REFUTED, err
    assert out == render_report(dict(frame, result={
        "details": {"kernel_direction": ["-1", "1"]}, "kind": "full",
        "reason": "left condition fails: damped map kills a direction "
                  "outside the strict cone",
        "subject": ["1", "0"], "verdict": "no",
        "witness": [["2", "2"], ["1", "3"]]}))


@pytest.mark.parametrize("rows,element,direction,witness", [
    ("0 0 0 2\n0 1 0 0\n1 0 1 0\n1 1 2 0\n", "1,0", [1, -2],
     [["2", "2"], ["3", "0"]]),
    # the image of (-2, 1) lies on the excluded face, so it is perturbed
    ("0 0 0 0\n0 1 1 2\n1 0 1 2\n1 1 0 1\n", "2,0", [-2, 1],
     [["2", "2"], ["3/5", "16/5"]]),
    # a tensor entry A puts the base point at k = 2A; the bound on k comes
    # from the facet inequalities, so no fixed guard cuts a large A short
    ("0 1 5000 0\n", "1,0", [-5000, 1], [["10000", "10000"], ["1", "10002"]]),
    ("0 1 20000 0\n", "1,0", [-20000, 1], [["40000", "40000"], ["1", "40002"]]),
], ids=["escape", "strictified", "entry-5000", "entry-20000"])
def test_open_cone_escape_refutations_share_the_lattice_report(
        tmp_path, rows, element, direction, witness):
    code, out, err, frame = _open_quadrant_report(tmp_path, rows, element)
    assert code == EXIT_REFUTED, err
    assert out == render_report(dict(frame, result={
        "details": {"injective_on_span": True, "violating_direction": direction},
        "kind": "full",
        "reason": "left condition fails: preimage cone escapes the positivity cone",
        "subject": element.split(","), "verdict": "no", "witness": witness}))
    assert _refutes(tmp_path / "quadrant.mon", element, witness)


def test_internal_check_failure_is_not_a_refutation(monkeypatch):
    def failing(args):
        raise InternalCheckError("planted self-check failure")

    monkeypatch.setattr(cli, "cmd_sos", failing)
    code, out, err = run_cli("sos", "x")
    assert code == EXIT_INTERNAL
    assert out == ""
    reported = [line for line in err.splitlines()
                if line.startswith("internal check failed")]
    assert reported == ["internal check failed: planted self-check failure"]


def test_uncaught_exception_is_an_internal_error_not_a_refutation(monkeypatch):
    def failing(args):
        raise RuntimeError("planted bug")

    monkeypatch.setattr(cli, "cmd_sos", failing)
    code, out, err = run_cli("sos", "x")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert "Traceback" not in err
    reported = [line for line in err.splitlines()
                if line.startswith("internal error")]
    assert reported == ["internal error: RuntimeError: planted bug"]


# --------------------------------------------------------------------------
# the exit-code contract on drawn inputs
# --------------------------------------------------------------------------


def _damage(draw, lines):
    """One line of an instance file dropped, cut short, widened by a token
    or replaced by an unknown section, or (three times in four) the file
    left whole."""
    how = draw(st.sampled_from(["none"] * 12 + ["drop", "cut", "widen", "section"]))
    if how == "none":
        return lines
    i = draw(st.integers(0, len(lines) - 1))
    damaged = {"drop": [], "cut": [lines[i][:-1]], "widen": [lines[i] + " 1"],
               "section": ["[bogus]"]}[how]
    return lines[:i] + damaged + lines[i + 1:]


@st.composite
def instance_files(draw):
    """The kind, dimension (size) and text lines of a lattice, open-cone,
    lattice-group or finite file of dimension or size at most 3, with
    tensor entries 0..2 (-1..2 on a lattice group, which leaves the
    orthant), mostly with an operation, sometimes malformed."""
    kind = draw(st.sampled_from(["lattice", "open-cone", "lattice-group", "finite"]))
    if kind == "finite":
        n = draw(st.integers(1, 3))
        names = "zab"[:n]
        table = draw(st.sampled_from(["cyclic", "chain"] * 2 + ["any"]))
        add = {"cyclic": lambda i, j: (i + j) % n, "chain": lambda i, j: min(i + j, n - 1),
               "any": lambda i, j: draw(st.integers(0, n - 1))}[table]
        product = draw(st.sampled_from(["zero", "product"] * 2 + ["any"]))
        mu = {"zero": lambda i, j: 0,
              "product": lambda i, j: (i * j) % n if table == "cyclic" else min(i * j, n - 1),
              "any": lambda i, j: draw(st.integers(0, n - 1))}[product]
        lines = ["kind: finite", "names: " + " ".join(names), "[add]"]
        lines += [" ".join(names[add(i, j)] for j in range(n)) for i in range(n)]
        if draw(st.sampled_from([True, True, True, False])):
            lines += ["[mu]"] + [" ".join(names[mu(i, j)] for j in range(n)) for i in range(n)]
        return kind, n, _damage(draw, lines)
    d = draw(st.integers(1, 3))
    index = st.integers(0, d - 1)
    pairs = st.lists(st.tuples(index, index), min_size=1, max_size=d * d, unique=True)
    if kind == "lattice-group":
        lines = [f"kind: {kind}", f"dim: {d}"]
        lines += draw(st.sampled_from([[], ["scalar: integer"], ["scalar: rational"]]))
        lines += ["[tensor]"] + [
            f"{i} {j} " + " ".join(str(draw(st.integers(-1, 2))) for _ in range(d))
            for i, j in draw(pairs)]
        return kind, d, _damage(draw, lines)
    unit = index.map(lambda i: [int(i == j) for j in range(d)])
    vector = st.one_of(unit, st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    section = "generators" if kind == "lattice" else \
        draw(st.sampled_from(["rays", "inequalities"]))
    rows = draw(st.lists(vector, min_size=1, max_size=4))
    lines = [f"kind: {kind}", f"dim: {d}", f"[{section}]"] + [" ".join(map(str, r)) for r in rows]
    if kind == "open-cone" and draw(st.booleans()):
        # a listed inequality or a coordinate is often a facet normal
        normal = st.sampled_from(rows) if section == "inequalities" else unit
        lines += ["[open-normals]"] + [" ".join(map(str, r))
                                       for r in draw(st.lists(normal, min_size=1, max_size=2))]
    if draw(st.sampled_from([True, True, True, False])):
        lines += ["[tensor]"] + [
            f"{i} {j} " + " ".join(str(draw(st.integers(0, 2))) for _ in range(d))
            for i, j in draw(pairs)]
    return kind, d, _damage(draw, lines)


@st.composite
def elements(draw, kind, d):
    """An element of a carrier of that kind and dimension, or not."""
    if kind == "finite":
        return draw(st.sampled_from("zab"[:d] + "c0"))
    entry = st.sampled_from([str(v) for v in range(3)] * 3 + ["-1", "-2", "1/2", "-1/3", "x"])
    size = draw(st.sampled_from([d] * 4 + [d + 1]))
    return ",".join(draw(st.lists(entry, min_size=size, max_size=size)))


@st.composite
def rational_functions(draw):
    """Quotients of polynomials of degree <= 4 with coefficients -3..3,
    sometimes cut short or with a stray character."""
    term = st.builds("{:+d}*x^{}".format, st.integers(-3, 3), st.integers(0, 4))
    poly = st.lists(term, min_size=1, max_size=3).map(lambda ts: "".join(ts).lstrip("+"))
    text = draw(poly)
    if draw(st.booleans()):
        text = f"({text})/({draw(poly)})"
    how = draw(st.sampled_from(["none", "none", "cut", "stray"]))
    i = draw(st.integers(0, len(text)))
    if how == "cut":
        text = text[:i]
    elif how == "stray":
        text = text[:i] + draw(st.sampled_from(list("()^/*+y."))) + text[i:]
    return text


@st.composite
def cli_calls(draw):
    """The file text (None for sos and reproduce) and the argument list,
    ``FILE`` standing for the file, of one CLI call."""
    options = ["--budget", str(draw(st.integers(0, 4))),
               "--format", draw(st.sampled_from(["json", "text"]))]
    command = draw(st.sampled_from(["file"] * 8 + ["sos", "reproduce"]))
    if command == "sos":
        argv = draw(st.sampled_from([[], ["--theorem"], ["--categorize"]]))
        if argv == ["--categorize"]:
            return None, options + ["sos", "--categorize",
                                    draw(st.sampled_from(["Q", "Q(x)", "R"]))]
        return None, options + ["sos", draw(rational_functions())] + argv
    if command == "reproduce":
        return None, options + ["reproduce", draw(st.sampled_from(REPRODUCE_IDS + ("none",)))]
    kind, d, lines = draw(instance_files())
    a, b = draw(elements(kind, d)), draw(elements(kind, d))
    argv = draw(st.sampled_from([
        ["order", "FILE", a, b], ["localizable", "FILE", a],
        ["localizable", "FILE", "--weak"], ["localizable", "FILE", "--strong"],
        ["verify", "FILE", "--main"], ["verify", "FILE", "--fring"],
        ["verify", "FILE", "--orderunit", "--element", a],
        ["verify", "FILE", "--weak-strong"],
        ["extremals", "FILE", "--elements", f"{a}; {b}"], ["grothendieck", "FILE"]]))
    return "\n".join(lines) + "\n", options + argv


@settings(max_examples=600)
@given(call=cli_calls())
@example(call=(VANISHING_AT_S_ONLY, ["--budget", "2", "--format", "json",
                                     "extremals", "FILE", "--elements", "1,0"]))
def test_every_drawn_call_keeps_the_exit_code_contract(call, tmp_path_factory):
    # a break of the contract is a bug in the program, never a reason to
    # narrow the strategies
    text, argv = call
    if text is not None:
        path = tmp_path_factory.mktemp("fuzz") / "drawn.mon"
        path.write_text(text)
        argv = [str(path) if a == "FILE" else a for a in argv]
    code, out, err = run_cli(*argv)
    event(f"exit {code}")
    assert code in (EXIT_PASS, EXIT_REFUTED, EXIT_REFUSED, EXIT_INPUT, EXIT_BUDGET), err
    assert "Traceback" not in err
    if code == EXIT_INPUT:
        assert out == ""
    elif argv[3] == "json":
        json.loads(out)
