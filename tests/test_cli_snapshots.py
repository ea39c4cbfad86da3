"""Byte-level snapshots of the CLI over every shipped instance.

Each case runs ``cli.main`` in-process with the repository root as the
working directory and relative ``instances/...`` paths, and compares the
exit code, stdout and stderr (minus the ``[timing]`` lines) with the
recording in ``tests/data/cli_snapshots.json``.  The recording pins the
reports that the reproduce goldens do not cover: ``grothendieck``,
``extremals``, ``localizable``, ``verify`` and ``order`` on finite,
lattice, open-cone and lattice-group instances.

To record the file anew from the current code (only when an output change
is intended)::

    PYTHONPATH=src python tests/test_cli_snapshots.py --record
"""

from __future__ import annotations

import functools
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from monoidorder import cli
from monoidorder.exactmath import RationalCone

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SNAPSHOTS = os.path.join(ROOT, "tests", "data", "cli_snapshots.json")

# every recorded case runs with the Smith form and the simplex made unreachable
pytestmark = pytest.mark.usefixtures("no_smith_form", "no_simplex")


def _inst(name):
    return f"instances/{name}"


ALL_INSTANCES = (
    "almost-fring.mon", "cyclic-3.mon", "finite-flag.mon", "free-monoid-2.mon",
    "free-monoid-3.mon", "fring-elementwise-3.mon", "fring-weighted-2.mon",
    "half-open-half-plane.mon", "line-group.mon", "matrix-2x2.mon",
    "rational-function.mon", "slanted-cone.mon")

REPRODUCE = ("intro-free-monoid", "open-cone-approx", "matrix-not-localizable",
             "almost-fring", "rational-function-category")

# Every subcommand over the shipped instances: the fixed commands of the
# cli-corpus benchmark workload, fixed order queries in place of its seeded
# ones, every instance through grothendieck in both formats, and the
# subcommands applied to instances that must refuse them.
CASES = (
    [["grothendieck", _inst(n)] for n in ALL_INSTANCES]
    + [["--format", "text", "grothendieck", _inst(n)] for n in ALL_INSTANCES]
    + [
        ["extremals", _inst("slanted-cone.mon"), "--elements", "1,0; 1,2"],
        ["extremals", _inst("line-group.mon"), "--elements", "1; -1"],
        ["extremals", _inst("free-monoid-2.mon"), "--elements", "1,0; 0,1"],
        # 1,1 dominates 1,0, so normalization runs: both extremals rescale
        # to multiplicative, past the identity and its opposite
        ["extremals", _inst("free-monoid-2.mon"), "--elements", "1,0; 1,1"],
        ["--format", "text", "extremals", _inst("free-monoid-2.mon"), "--elements", "1,0; 1,1"],
        ["extremals", _inst("free-monoid-3.mon"), "--elements", "1,0,0; 0,1,1"],
        ["extremals", _inst("half-open-half-plane.mon"), "--elements", "1,0; 1,1"],
        ["extremals", _inst("matrix-2x2.mon"), "--elements", "1,0,0,0; 0,1,0,0"],
        ["extremals", _inst("cyclic-3.mon"), "--elements", "a; b"],
        ["extremals", _inst("finite-flag.mon"), "--elements", "t"],
        ["extremals", _inst("slanted-cone.mon"), "--elements", "1,1"],
        ["extremals", _inst("rational-function.mon"), "--elements", "1"],
        ["localizable", _inst("matrix-2x2.mon"), "0,1,1,0"],
        ["localizable", _inst("matrix-2x2.mon"), "1,0,0,1"],
        ["localizable", _inst("matrix-2x2.mon"), "--weak"],
        ["localizable", _inst("free-monoid-3.mon"), "--weak"],
        ["localizable", _inst("free-monoid-3.mon"), "--strong"],
        ["localizable", _inst("free-monoid-2.mon"), "1,1"],
        ["localizable", _inst("free-monoid-2.mon")],
        ["localizable", _inst("cyclic-3.mon"), "--weak"],
        ["localizable", _inst("cyclic-3.mon"), "a"],
        ["localizable", _inst("finite-flag.mon"), "--weak"],
        ["localizable", _inst("finite-flag.mon"), "--strong"],
        ["localizable", _inst("half-open-half-plane.mon"), "--weak"],
        ["localizable", _inst("half-open-half-plane.mon"), "--strong"],
        ["localizable", _inst("half-open-half-plane.mon"), "1,0"],
        ["localizable", _inst("half-open-half-plane.mon"), "1,1"],
        ["localizable", _inst("slanted-cone.mon"), "--weak"],
        ["localizable", _inst("fring-weighted-2.mon"), "--weak"],
        ["localizable", _inst("fring-weighted-2.mon"), "1,1"],
        ["localizable", _inst("almost-fring.mon"), "--weak"],
        ["verify", _inst("free-monoid-3.mon"), "--main"],
        ["verify", _inst("free-monoid-2.mon"), "--main"],
        ["verify", _inst("cyclic-3.mon"), "--main"],
        ["verify", _inst("matrix-2x2.mon"), "--main"],
        ["verify", _inst("half-open-half-plane.mon"), "--main"],
        ["verify", _inst("fring-weighted-2.mon"), "--fring"],
        ["verify", _inst("fring-elementwise-3.mon"), "--fring"],
        ["verify", _inst("almost-fring.mon"), "--fring"],
        ["verify", _inst("free-monoid-2.mon"), "--fring"],
        ["verify", _inst("free-monoid-3.mon"), "--orderunit", "--element", "1,1,1"],
        ["verify", _inst("free-monoid-3.mon"), "--orderunit", "--element", "1,1,0"],
        ["verify", _inst("half-open-half-plane.mon"), "--orderunit", "--element", "1,0"],
        ["verify", _inst("matrix-2x2.mon"), "--orderunit", "--element", "1,1,1,1"],
        ["verify", _inst("free-monoid-3.mon"), "--weak-strong"],
        ["verify", _inst("matrix-2x2.mon"), "--weak-strong"],
        ["verify", _inst("finite-flag.mon"), "--weak-strong"],
        ["verify", _inst("half-open-half-plane.mon"), "--weak-strong"],
        ["order", _inst("free-monoid-2.mon"), "1,2", "3,2"],
        ["order", _inst("free-monoid-3.mon"), "1,0,2", "0,1,2"],
        ["order", _inst("matrix-2x2.mon"), "1,0,0,1", "2,1,0,1"],
        ["order", _inst("slanted-cone.mon"), "1,0", "2,2"],
        ["order", _inst("slanted-cone.mon"), "2,2", "3,4"],
        ["order", _inst("line-group.mon"), "3", "-2"],
        ["order", _inst("half-open-half-plane.mon"), "1,5", "3/2,-1"],
        ["order", _inst("half-open-half-plane.mon"), "0,0", "1,-1/3"],
        ["order", _inst("cyclic-3.mon"), "a", "b"],
        ["order", _inst("finite-flag.mon"), "t", "o"],
        ["order", _inst("finite-flag.mon"), "o", "t"],
        ["order", _inst("rational-function.mon"), "1", "2"],
        ["order", _inst("slanted-cone.mon"), "1,1", "1,0"],
        ["--format", "text", "order", _inst("slanted-cone.mon"), "1,0", "2,2"],
        ["sos", "x"],
        ["sos", "--categorize", "Q(x)"],
        ["sos", "--categorize", "Q"],
        ["sos", "(x^4+3)/(x^2+1)"],
        ["sos", "(x^4+3)/(x^2+1)", "--theorem"],
        # an expression with a leading minus is a positional, not an option
        ["sos", "-x^2"],
        ["sos", "-(x-1)^2+2", "--theorem"],
        # a numerator and a denominator with a common factor, cancelled
        ["sos", "(x^2-1)/(x-1)"],
        ["--format", "text", "sos", "(x^2-1)/(x-1)"],
        ["sos", "(2*x^2-2)/(4*x-4)"],
        ["sos", "(x^3-x)/(3*x^2-3*x)", "--theorem"],
        # two cancellations, one per division
        ["sos", "(x^4-1)/(x^2+1)/(x+1)"],
    ]
    + [["reproduce", rid] for rid in REPRODUCE]
)


def _case_id(argv):
    return " ".join(argv)


def run_case(argv):
    """(exit code, stdout, stderr without timing lines) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    stderr = "".join(line for line in err.getvalue().splitlines(keepends=True)
                     if not line.startswith("[timing]"))
    return code, out.getvalue(), stderr


@functools.lru_cache(maxsize=None)
def _load():
    with open(SNAPSHOTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_has_a_recording():
    assert sorted(_load()) == sorted(_case_id(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_case_id)
def test_cli_output_matches_recording(argv):
    recorded = _load()[_case_id(argv)]
    code, stdout, stderr = run_case(argv)
    assert code == recorded["code"]
    assert stdout == recorded["stdout"]
    assert stderr == recorded["stderr"]


def test_no_cone_given_by_rays_computes_its_generators(monkeypatch):
    # a carrier's lineality is read off its facet normals, so over every
    # case only the dual cones whose extreme rays extremals reports compute
    # generators from rays
    duals, builds = set(), []
    dual, compute = RationalCone.dual, RationalCone._compute_generators

    def traced_dual(self):
        cone = dual(self)
        duals.add(id(cone))
        return cone

    def traced_compute(self):
        if self._rays is not None:
            builds.append((argv, id(self) in duals))
        return compute(self)

    monkeypatch.setattr(RationalCone, "dual", traced_dual)
    monkeypatch.setattr(RationalCone, "_compute_generators", traced_compute)
    for argv in CASES:
        run_case(argv)
    assert builds and all(is_dual and "extremals" in argv[:3]
                          for argv, is_dual in builds), builds


def test_one_parser_serves_sequential_calls(monkeypatch):
    # main builds its parser once per process; calls that follow each
    # other, across subcommands and formats and after -h, still match
    # their recordings
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    sequence = [
        ["--format", "text", "grothendieck", _inst("cyclic-3.mon")],
        ["grothendieck", _inst("cyclic-3.mon")],
        ["--format", "text", "order", _inst("slanted-cone.mon"), "1,0", "2,2"],
        ["order", _inst("slanted-cone.mon"), "1,0", "2,2"],
        ["localizable", _inst("matrix-2x2.mon"), "--weak"],
        ["verify", _inst("half-open-half-plane.mon"), "--main"],
        ["sos", "(x^4+3)/(x^2+1)", "--theorem"],
        ["reproduce", "open-cone-approx"],
    ]
    for argv in sequence + sequence[::-1]:
        recorded = _load()[_case_id(argv)]
        assert run_case(argv) == (recorded["code"], recorded["stdout"],
                                  recorded["stderr"]), argv
    with redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert exc.value.code == 0
    argv = sequence[0]
    recorded = _load()[_case_id(argv)]
    assert run_case(argv) == (recorded["code"], recorded["stdout"],
                              recorded["stderr"])
    assert built == [1]


def record():
    doc = {}
    for argv in CASES:
        code, stdout, stderr = run_case(argv)
        doc[_case_id(argv)] = {"code": code, "stdout": stdout, "stderr": stderr}
    os.makedirs(os.path.dirname(SNAPSHOTS), exist_ok=True)
    with open(SNAPSHOTS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_cli_snapshots.py --record")
    record()
