"""Command-line harness: decisions, verifiers, and reproducible examples.

Exit codes: 0 answered/pass, 1 refuted/counterexample, 2 refused because a
hypothesis does not hold, 3 input error, 4 resource budget exhausted or a
verdict left undecided, 5 internal self-check failed (no report is
printed).

Imports.  Of the package, this module imports only the shared leaf
:mod:`monoidorder.core` and :mod:`monoidorder.reports` at module level.
Each handler imports the layers it runs itself, one plain ``from .x
import ...`` statement per layer, so a fresh process compiles only those:
``sos`` loads the sums-of-squares layer and no polyhedral code, ``order``
and ``grothendieck`` no localizability, functionals or sums of squares.
A handler reads each name from its defining module when it runs, so a
test that rebinds the name there reaches every handler.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction

from .core import InputError, InternalCheckError, ResourceBudgetError
from .reports import render_json_without, render_report, stderr_timer

EXIT_PASS = 0
EXIT_REFUTED = 1
EXIT_REFUSED = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

REPRODUCE_IDS = ("intro-free-monoid", "open-cone-approx",
                 "matrix-not-localizable", "almost-fring",
                 "rational-function-category")


def _verdict_exit(verdict: str) -> int:
    if verdict == "yes":
        return EXIT_PASS
    if verdict == "no":
        return EXIT_REFUTED
    return EXIT_BUDGET


def _ordered_monoid(instance):
    if instance.kind == "lattice-group":
        raise InputError(
            f"{instance.source}: kind 'lattice-group' gives an operation on "
            "a fixed orthant; carrier questions go to a lattice or open-cone "
            "instance")
    if instance.monoid is None:
        raise InputError(
            f"{instance.source}: kind {instance.kind!r} has no canonical "
            "quasi-order; use a finite, lattice, or open-cone instance")
    return instance.monoid


# ---------------------------------------------------------------------------
# subcommands


def cmd_order(args) -> tuple:
    from .grothendieck import nabla
    from .instancefile import check_membership, load_instance, parse_element
    from .monoids import approx, leq

    instance = load_instance(args.file)
    m = _ordered_monoid(instance)
    a = parse_element(instance, args.a)
    b = parse_element(instance, args.b)
    check_membership(instance, a)
    check_membership(instance, b)
    red1 = nabla(m, 1)
    red2 = nabla(m, 2)
    leq_ab = leq(m, a, b)
    leq_ba = leq(m, b, a)
    approx_ab = approx(m, a, b)
    red1_leq = red1.leq(red1.iota(a), red1.iota(b))
    red2_eq = red2.eq(red2.iota(a), red2.iota(b))
    doc = {
        "command": "order",
        "instance": instance.describe(),
        "a": m.element_text(a),
        "b": m.element_text(b),
        "leq_ab": leq_ab,
        "leq_ba": leq_ba,
        "approx": approx_ab,
        "reduction_level1_leq_ab": red1_leq,
        "reduction_level2_equal": red2_eq,
        "consistent": (leq_ab == red1_leq) and (approx_ab == red2_eq),
    }
    return doc, EXIT_PASS


def cmd_localizable(args) -> tuple:
    from .instancefile import check_membership, load_instance, parse_element
    from .localizability import is_localizable, is_strongly_localizable, is_weakly_localizable

    instance = load_instance(args.file)
    op = instance.require_op()
    doc = {"command": "localizable", "instance": instance.describe()}
    if args.weak:
        cert = is_weakly_localizable(op)
        cert.budget = args.budget
        doc["mode"] = "weak"
        doc["certificate"] = cert.as_dict()
        return doc, _verdict_exit(cert.verdict)
    if args.strong:
        res = is_strongly_localizable(op)
        doc["mode"] = "strong"
        doc["result"] = res
        return doc, _verdict_exit(res["verdict"])
    if args.element is None:
        raise InputError(
            "localizable needs an element argument or --weak/--strong")
    s = parse_element(instance, args.element)
    check_membership(instance, s)
    verdict = is_localizable(op, s)
    doc["mode"] = "element"
    doc["element"] = op.carrier.element_text(s)
    doc["result"] = verdict.as_dict()
    return doc, _verdict_exit(verdict.verdict)


def cmd_verify(args) -> tuple:
    from .instancefile import load_instance

    if args.element is not None and args.goal != "orderunit":
        raise InputError("--element is read only with --orderunit")
    instance = load_instance(args.file)
    doc = {"command": "verify", "instance": instance.describe()}
    if args.goal == "main":
        return _verify_main(instance, doc, args)
    if args.goal == "fring":
        return _verify_fring(instance, doc, args)
    if args.goal == "orderunit":
        return _verify_orderunit(instance, doc, args)
    return _verify_weak_strong(instance, doc, args)


def _verify_main(instance, doc, args) -> tuple:
    from .functionals import verify_theorem_main
    from .localizability import is_weakly_localizable

    op = instance.require_op()
    cert = is_weakly_localizable(op)
    cert.budget = args.budget
    hypothesis = {"name": "weak-localizability",
                  "status": "checked" if cert.verdict == "yes" else cert.verdict,
                  "detail": cert.as_dict()}
    doc["goal"] = "main"
    doc["hypotheses"] = [hypothesis]
    if cert.verdict == "no":
        doc["status"] = "refused"
        doc["reason"] = "the weak localizability hypothesis is refuted"
        return doc, EXIT_REFUSED
    result = verify_theorem_main(op, weak=cert)
    doc["result"] = result
    doc["status"] = "pass" if result["ok"] else "failed"
    return doc, EXIT_PASS if result["ok"] else EXIT_REFUTED


def _verify_fring(instance, doc, args) -> tuple:
    from .latticeorder import fring_strong_localizability

    if instance.kind != "lattice-group":
        raise InputError(
            f"{instance.source}: --fring needs a lattice-group instance")
    # one f-ring verdict: fring_strong_localizability decides it and
    # reports it under "f_ring" whether it goes on or skips
    result = fring_strong_localizability(instance.op)
    fr = result["f_ring"]
    doc["goal"] = "fring"
    doc["hypotheses"] = [{"name": "extended-f-ring", "status":
                          "checked" if fr["verdict"] == "yes" else "failed",
                          "detail": fr}]
    if fr["verdict"] != "yes":
        doc["status"] = "refused"
        doc["reason"] = "the candidate is not an extended f-ring"
        return doc, EXIT_REFUSED
    doc["result"] = result
    doc["status"] = "pass" if result["ok"] else "failed"
    return doc, EXIT_PASS if result["ok"] else EXIT_REFUTED


def _verify_orderunit(instance, doc, args) -> tuple:
    from .instancefile import check_membership, parse_element
    from .localizability import order_unit_fast_path

    op = instance.require_op()
    if args.element is None:
        raise InputError("--orderunit needs --element (the candidate unit)")
    e = parse_element(instance, args.element)
    check_membership(instance, e)
    cert = order_unit_fast_path(op, e)
    cert.budget = args.budget
    doc["goal"] = "orderunit"
    doc["element"] = op.carrier.element_text(e)
    doc["certificate"] = cert.as_dict()
    refusals = cert.details.get("refusal_reasons", [])
    doc["hypotheses"] = [{
        "name": "order-unit-and-operation-unit",
        "status": "checked" if not refusals else "failed",
        "detail": refusals}]
    doc["status"] = "pass" if cert.verdict == "yes" else "refuted"
    return doc, _verdict_exit(cert.verdict)


def _verify_weak_strong(instance, doc, args) -> tuple:
    from .functionals import weak_implies_strong_audit

    op = instance.require_op()
    audit = weak_implies_strong_audit(op)
    if "weak" in audit:
        audit["weak"]["budget"] = args.budget
    doc["goal"] = "weak-strong"
    doc["result"] = audit
    doc["status"] = audit["status"]
    return doc, {"confirmed": EXIT_PASS, "vacuous": EXIT_PASS,
                 "discrepancy": EXIT_REFUTED, "skipped": EXIT_REFUSED}[audit["status"]]


def cmd_extremals(args) -> tuple:
    from .functionals import (normalize_multiplicative, positive_functionals,
                              span_of_elements, span_with_products)
    from .instancefile import check_membership, load_instance, parse_element

    instance = load_instance(args.file)
    m = _ordered_monoid(instance)
    if not args.elements:
        raise InputError("extremals needs --elements \"e1; e2; ...\"")
    elements = []
    for part in args.elements.split(";"):
        part = part.strip()
        if not part:
            continue
        e = parse_element(instance, part)
        check_membership(instance, e)
        elements.append(e)
    if not elements:
        raise InputError("no elements given")
    op = instance.op
    if op is not None:
        subgroup = span_with_products(op, elements)
    else:
        subgroup = span_of_elements(m, elements)
    phis = positive_functionals(subgroup)
    doc = {
        "command": "extremals",
        "instance": instance.describe(),
        "elements": [m.element_text(e) for e in elements],
        "subgroup": subgroup.describe(),
        "extremal_count": len(phis),
        "extremals": [],
    }
    if subgroup.rank == 0:
        doc["note"] = ("the generated subgroup is degenerate (rank 0); "
                       "only the zero functional is positive")
    elif not phis:
        doc["note"] = ("the positive cone is all of the subgroup; only the "
                       "zero functional is positive")
    for phi in phis:
        entry = phi.describe()
        entry["values"] = [
            {"element": m.element_text(e),
             "value": phi.value_on_element(e)}
            for e in elements]
        if op is not None:
            entry["normalization"] = normalize_multiplicative(
                op, elements, phi).as_dict()
        doc["extremals"].append(entry)
    return doc, EXIT_PASS


def cmd_grothendieck(args) -> tuple:
    from .grothendieck import nabla, pi12
    from .instancefile import load_instance

    instance = load_instance(args.file)
    m = _ordered_monoid(instance)
    comparison = pi12(m)
    doc = {
        "command": "grothendieck",
        "instance": instance.describe(),
        "grothendieck_group": comparison.red1.describe_group(),
        "reduction_level1": nabla(m, 1).describe(),
        "reduction_level2": nabla(m, 2).describe(),
        "level1_to_level2_map": dict(comparison.report),
    }
    return doc, EXIT_PASS


def cmd_sos(args) -> tuple:
    from .formallyreal import (categorize, is_sos_membership, parse_rational_function,
                               theorem_skew_hypothesis)

    if args.categorize is not None:
        report = categorize(args.categorize)
        doc = {"command": "sos", "mode": "categorize", "result": report}
        return doc, EXIT_PASS
    if args.expression is None:
        raise InputError("sos needs an expression or --categorize FIELD")
    fn = parse_rational_function(args.expression)
    if args.theorem:
        result = theorem_skew_hypothesis(fn)
        doc = {"command": "sos", "mode": "least-refuted-shift",
               "expression": fn.text(), "result": result}
        return doc, EXIT_PASS
    result = is_sos_membership(fn)
    doc = {"command": "sos", "mode": "membership",
           "expression": fn.text(), "result": result}
    return doc, EXIT_PASS if result["member"] else EXIT_REFUTED


# ---------------------------------------------------------------------------
# reproduction of the worked examples


def _reproduce_intro_free_monoid() -> dict:
    from .monoids import enumerate_biadditive_ops, saturating_product_op, truncated_free_monoid

    cases = []
    for coords in (1, 2, 3):
        m = truncated_free_monoid(coords, cap=2)
        unit = m._cache["tuple_index"][(1,) * coords]
        ops = enumerate_biadditive_ops(m, unital=unit)
        expected = saturating_product_op(m)
        cases.append({
            "coordinates": coords,
            "cap": 2,
            "carrier_size": m.n,
            "operations_found": len(ops),
            "unique": len(ops) == 1,
            "matches_elementwise_multiplication":
                len(ops) == 1 and ops[0].table == expected.table,
        })
    return {
        "example": "intro-free-monoid",
        "claim": "the only biadditive operation with the all-ones unit on a "
                 "truncated free commutative monoid is the elementwise "
                 "(saturating) multiplication",
        "cases": cases,
        "ok": all(c["matches_elementwise_multiplication"] for c in cases),
    }


def _reproduce_open_cone_approx() -> dict:
    import random

    from .monoids import approx, half_open_half_plane

    m = half_open_half_plane()
    rng = random.Random(20240901)
    x_pool = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
              Fraction(3, 2), Fraction(5, 3)]

    def sample_element(idx):
        if idx % 10 == 9:
            return (Fraction(0), Fraction(0))
        x = x_pool[rng.randrange(len(x_pool))]
        y = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        return (x, y)

    pairs = []
    agree = True
    for idx in range(50):
        a = sample_element(idx)
        b = sample_element(idx)
        got = approx(m, a, b)
        want = a[0] == b[0]
        agree = agree and (got == want)
        pairs.append({"a": list(a), "b": list(b), "approx": got,
                      "same_first_coordinate": want, "agree": got == want})
    return {
        "example": "open-cone-approx",
        "claim": "on the half-open half-plane, two elements are equivalent "
                 "up to damped error exactly when their first coordinates "
                 "are equal",
        "pairs": pairs,
        "pair_count": len(pairs),
        "ok": agree,
    }


def _reproduce_matrix_not_localizable() -> dict:
    from .localizability import is_left_localizable, is_weakly_localizable
    from .monoids import leq, matrix_product_op

    op = matrix_product_op()
    weak = is_weakly_localizable(op)
    swap = (0, 1, 1, 0)  # both off-diagonal entries positive
    above = [
        ("swap matrix", (0, 1, 1, 0)),
        ("swap plus upper-left unit", (1, 1, 1, 0)),
        ("swap plus lower-right unit", (0, 1, 1, 1)),
        ("swap plus identity", (1, 1, 1, 1)),
        ("twice the swap", (0, 2, 2, 0)),
    ]
    entries = []
    for label, s in above:
        dominates = leq(op.carrier, swap, s)
        verdict = is_left_localizable(op, s)
        entries.append({"label": label, "matrix": list(s),
                        "dominates_swap": dominates,
                        "verdict": verdict.as_dict()})
    ok = weak.verdict == "no" and all(
        e["verdict"]["verdict"] == "no" and e["dominates_swap"]
        for e in entries)
    return {
        "example": "matrix-not-localizable",
        "claim": "the 2x2 matrix product on entrywise-nonnegative matrices "
                 "is not weakly localizable: nothing dominating the "
                 "off-diagonal swap matrix is left localizable",
        "weak_certificate": weak.as_dict(),
        "matrices_above_swap": entries,
        "ok": ok,
    }


def _reproduce_almost_fring() -> dict:
    from .latticeorder import almost_fring_counterexample

    result = almost_fring_counterexample()
    return {
        "example": "almost-fring",
        "claim": "an almost-f-ring operation can fail associativity: "
                 "disjointness annihilation holds on the box, commutativity "
                 "holds, yet a concrete triple breaks associativity and the "
                 "integer-orthant form of the operation is not weakly "
                 "localizable",
        "result": result,
        "ok": result["ok"],
    }


def _reproduce_rational_function_category() -> dict:
    from .formallyreal import categorize

    report = categorize("Q(x)")
    return {
        "example": "rational-function-category",
        "claim": "the rational function field in one variable lands in the "
                 "third category: -1 stays outside the sums of squares even "
                 "after damped shifts",
        "result": report,
        "ok": report["category"] == 3 and not report["minus_one_member"],
    }


_REPRODUCERS = {
    "intro-free-monoid": _reproduce_intro_free_monoid,
    "open-cone-approx": _reproduce_open_cone_approx,
    "matrix-not-localizable": _reproduce_matrix_not_localizable,
    "almost-fring": _reproduce_almost_fring,
    "rational-function-category": _reproduce_rational_function_category,
}


def reproduce_document(example_id: str) -> dict:
    if example_id not in _REPRODUCERS:
        raise InputError(
            f"unknown example {example_id!r}; known ids: "
            f"{', '.join(REPRODUCE_IDS)}")
    return _REPRODUCERS[example_id]()


def default_golden_path(example_id: str):
    from importlib import resources

    return resources.files(__package__).joinpath("goldens",
                                                 f"{example_id}.json")


def cmd_reproduce(args) -> tuple:
    """The document with ``golden_match``, its JSON rendered once: the
    golden is compared with those bytes without that key."""
    doc = reproduce_document(args.example)
    doc["golden_match"] = True
    rendered, report = render_json_without(doc, "golden_match")
    if args.golden is not None:
        try:
            with open(args.golden, "r", encoding="utf-8") as fh:
                golden = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read golden file: {exc}") from None
    else:
        ref = default_golden_path(args.example)
        try:
            golden = ref.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            raise InputError(
                f"no golden file packaged for {args.example!r}; pass "
                "--golden PATH") from None
    if rendered != golden:
        doc["golden_match"] = False
        print(f"[reproduce] output differs from golden for {args.example}",
              file=sys.stderr)
        return doc, EXIT_REFUTED
    if not doc["ok"]:
        return report, EXIT_REFUTED
    return report, EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing and dispatch


_NUMBER = r"(\d+(/\d+)?|\d*\.\d+)"


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`InputError` (exit 3) instead of exiting 2,
    which is the code for "refused"; subparsers inherit the class.

    argparse reads an argument that starts with ``-`` as an option unless
    it looks like a negative number, and no option here does.  An element
    whose first coordinate is negative, such as ``-1,0`` or ``-1/2,0``, is
    a positional too, so argparse's negative-number pattern is widened to
    a comma-separated list of integers, ``p/q`` rationals or decimals with
    a leading minus, and to an ``sos`` expression that starts with ``-x``
    or ``-(``, such as ``-x^2`` or ``-(x-1)^2+2``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            rf"^-({_NUMBER}(,[-+]?{_NUMBER})*$|x|\()")

    def error(self, message):
        raise InputError(message)


def _count(text: str) -> int:
    """A nonnegative integer option value."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monoidorder",
        description="Exact decision procedures for ordered commutative "
                    "monoids and biadditive operations.")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report rendering (default: json)")
    parser.add_argument("--budget", type=_count, default=8,
                        help="budget echoed in localizability certificates "
                             "(default: 8)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="compare two elements in the canonical "
                                     "quasi-order and its reductions")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("localizable", help="decide localizability")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("element", nargs="?", default=None)
    mode.add_argument("--weak", action="store_true")
    mode.add_argument("--strong", action="store_true")
    p.set_defaults(func=cmd_localizable)

    p = sub.add_parser("verify", help="run a theorem verifier with its "
                                      "hypothesis ledger")
    p.add_argument("file")
    goal = p.add_mutually_exclusive_group(required=True)
    goal.add_argument("--main", dest="goal", action="store_const",
                      const="main")
    goal.add_argument("--fring", dest="goal", action="store_const",
                      const="fring")
    goal.add_argument("--orderunit", dest="goal", action="store_const",
                      const="orderunit")
    goal.add_argument("--weak-strong", dest="goal", action="store_const",
                      const="weak-strong")
    p.add_argument("--element", default=None,
                   help="candidate unit for --orderunit")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extremals", help="extreme positive functionals on "
                                         "the subgroup generated by elements")
    p.add_argument("file")
    p.add_argument("--elements", required=True,
                   help="semicolon-separated elements, e.g. \"1,0; 0,1; 1,1\"")
    p.set_defaults(func=cmd_extremals)

    p = sub.add_parser("grothendieck", help="dump the difference group and "
                                            "both reductions")
    p.add_argument("file")
    p.set_defaults(func=cmd_grothendieck)

    p = sub.add_parser("sos", help="sums-of-squares front end for the "
                                   "rational function field")
    p.add_argument("expression", nargs="?", default=None)
    p.add_argument("--theorem", action="store_true",
                   help="find the least natural shift leaving the sums of "
                        "squares")
    p.add_argument("--categorize", default=None, metavar="FIELD",
                   help="categorize 'Q' or 'Q(x)'")
    p.set_defaults(func=cmd_sos)

    p = sub.add_parser("reproduce", help="regenerate a worked example and "
                                         "compare against its golden file")
    p.add_argument("example")
    p.add_argument("--golden", default=None,
                   help="path to the golden file (default: packaged)")
    p.set_defaults(func=cmd_reproduce)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs over twenty
    times what parsing one command line does."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        # the handler is looked up by name at each call, as a parser built
        # per call would, so rebinding a cmd_* function here takes effect
        handler = globals()[args.func.__name__]
        with stderr_timer(args.command):
            doc, code = handler(args)
        report = render_report(doc, args.format)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceBudgetError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # any other exception is a bug too: exit 5 rather than Python's 1,
        # which would read as "refuted"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
