"""Byte identity of the command line over a drawn space of inputs.

A seeded generator draws instance files of every kind and the commands
that read them:

* lattices of dimension 1 to 4: cones over unit vectors, lower rank,
  lineality, ``|det B| > 1`` and generators that are all multiples of 2
  and 3 (no r-subset unimodular), each with members drawn as
  nonnegative combinations of the generators;
* open cones of dimension 2 and 3 given by inequalities, with excluded
  faces, among them the half-space of dimension 3;
* finite tables of size 1 to 4, and lattice groups of dimension 1 to 3;
* rational functions for ``sos``: products of ``(a*x-b)^k``, rootless
  quadratics, shifts and quotients.

``order``, ``grothendieck``, ``localizable`` (with an element, ``--weak``
and ``--strong``), ``verify`` (``--main``, ``--orderunit``,
``--weak-strong``, ``--fring``), ``extremals`` and ``sos`` (with and
without ``--theorem``) are drawn, a fifth of them with ``--format text``.

The recording in ``tests/data/drawn_corpus.json`` holds each instance
text once and, per case, the argument list, the exit code, a SHA-256 of
stdout and stderr (minus the ``[timing]`` lines), and the verdict fields
that make a mismatch readable.  The replay writes the instances under a
temporary directory and runs every case with ``cli.main`` in process.
Only cases well inside today's work are kept: none runs a combination
search past ``NODE_CAP`` nodes.

To record the file anew (only when an output change is intended, with a
reason for each changed case in ``CHANGES.md``)::

    PYTHONPATH=src python tests/test_drawn_corpus.py --record
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product

import pytest

from monoidorder import cli, monoids
from monoidorder.exactmath import CombinationSearch

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
RECORDING = os.path.join(ROOT, "tests", "data", "drawn_corpus.json")
SEED = 25
INSTANCES = 700
NODE_CAP = 1000
COMMANDS = ("order", "grothendieck", "localizable", "verify", "extremals", "sos")
VERDICT_KEYS = ("status", "verdict", "member", "leq_ab", "leq_ba", "approx",
                "extremal_count", "k")


# ---------------------------------------------------------------------------
# the draw


def _vec(v):
    return " ".join(map(str, v))


def _arg(v):
    return ",".join(map(str, v))


def _combination(rng, gens, d, top=2):
    return tuple(sum(rng.randint(0, top) * g[j] for g in gens) for j in range(d))


def _tensor(rng, d, shape):
    """``[tensor]`` rows of a product on Z^d or Q^d: coordinatewise, scaled
    by the first coordinate, zero, or drawn with entries 0..2."""
    if shape == "diagonal":
        rows = [(i, i, [int(j == i) for j in range(d)]) for i in range(d)]
    elif shape == "first":
        rows = [(0, j, [int(k == j) for k in range(d)]) for j in range(d)]
    elif shape == "zero":
        rows = [(0, 0, [0] * d)]
    else:
        pairs = rng.sample(list(product(range(d), repeat=2)), rng.randint(1, min(3, d * d)))
        rows = [(i, j, [rng.randint(0, 2) for _ in range(d)]) for i, j in sorted(pairs)]
    return ["[tensor]"] + [f"{i} {j} {_vec(v)}" for i, j, v in rows]


def _lattice(rng):
    """The text and a member sampler of a drawn lattice file."""
    d = rng.randint(1, 4)
    unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    family = rng.choice(["units", "units", "lower", "lineality", "det", "multiples", "any"])
    if family == "units":
        gens = unit + [tuple(rng.randint(0, 2) for _ in range(d))
                       for _ in range(rng.randint(0, 2))]
    elif family == "lower":  # rank below d: every vector in a drawn sublattice
        basis = [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(max(1, d - 1))]
        gens = [_combination(rng, basis, d, 1) for _ in range(rng.randint(1, d + 2))]
    elif family == "lineality":
        u = rng.choice(unit)
        gens = unit + [tuple(-x for x in u)]
    elif family == "det":  # a full-rank basis of determinant 2 or more
        gens = [tuple(2 * x if i == j else rng.randint(0, 1) * x for j, x in enumerate(v))
                for i, v in enumerate(unit)] + [tuple(1 for _ in range(d))]
    elif family == "multiples":  # no r-subset of them is unimodular
        gens = [tuple(k * x for x in v) for v in unit for k in (2, 3)]
        if d > 1 and rng.random() < 0.5:
            gens.append(tuple(rng.choice((-4, -2, 2)) for _ in range(d)))
    else:
        gens = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, d + 2))]
    gens = [g for g in gens if any(g)] or unit
    lines = ["kind: lattice", f"dim: {d}", "[generators]"] + [_vec(g) for g in gens]
    if rng.random() < 0.85:
        lines += _tensor(rng, d, rng.choice(["diagonal"] * 4 + ["first", "zero", "any"]))

    def element():
        if rng.random() < 0.9:
            return _arg(_combination(rng, gens, d))
        return _arg(rng.randint(-2, 3) for _ in range(d))
    return lines, element


def _open_cone(rng):
    """The text and a member sampler of a drawn open-cone file, given by
    inequalities whose normals are often its facets; a member satisfies
    every inequality and the open ones strictly, or is the origin."""
    d = rng.randint(2, 3)
    unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    family = rng.choice(["orthant", "orthant", "halfspace", "slanted"])
    if family == "orthant":
        normals = unit
    elif family == "halfspace":
        normals = unit[:1]
    else:
        normals = unit[1:] + [tuple(rng.choice((1, 2)) if j == 0 else -1 for j in range(d))]
    opened = rng.sample(normals, rng.randint(0, min(2, len(normals))))
    lines = ["kind: open-cone", f"dim: {d}", "[inequalities]"] + [_vec(n) for n in normals]
    if opened:
        lines += ["[open-normals]"] + [_vec(n) for n in opened]
    if rng.random() < 0.85:
        lines += _tensor(rng, d, rng.choice(["diagonal", "first", "first", "zero", "any"]))

    def member(x):
        values = [sum(a * b for a, b in zip(n, x)) for n in normals]
        return not any(x) or (min(values) >= 0 and all(
            sum(a * b for a, b in zip(n, x)) > 0 for n in opened))

    def element():
        entries = [Fraction(v) for v in range(-2, 4)] + [Fraction(1, 2), Fraction(-1, 3)]
        points = (tuple(rng.choice(entries) for _ in range(d)) for _ in range(20))
        if rng.random() < 0.1:
            return _arg(next(points))
        return _arg(next((x for x in points if member(x)), (0,) * d))
    return lines, element


def _finite(rng):
    n = rng.randint(1, 4)
    names = "zabc"[:n]
    table = rng.choice(["cyclic", "chain"] * 3 + ["any"])
    add = {"cyclic": lambda i, j: (i + j) % n, "chain": lambda i, j: min(i + j, n - 1),
           "any": lambda i, j: rng.randint(0, n - 1)}[table]
    mu = rng.choice([lambda i, j: 0,
                     lambda i, j: (i * j) % n if table == "cyclic" else min(i * j, n - 1),
                     lambda i, j: rng.randint(0, n - 1)])
    lines = ["kind: finite", "names: " + " ".join(names), "[add]"]
    lines += [" ".join(names[add(i, j)] for j in range(n)) for i in range(n)]
    if rng.random() < 0.85:
        lines += ["[mu]"] + [" ".join(names[mu(i, j)] for j in range(n)) for i in range(n)]
    return lines, lambda: rng.choice(names + "x")


def _lattice_group(rng):
    d = rng.randint(1, 3)
    lines = ["kind: lattice-group", f"dim: {d}"]
    lines += rng.choice([[], ["scalar: integer"], ["scalar: rational"]])
    lines += _tensor(rng, d, rng.choice(["diagonal", "first", "any"]))
    return lines, lambda: _arg(rng.randint(0, 2) for _ in range(d))


def _rational_function(rng):
    """A drawn ``sos`` expression."""
    a, b = rng.randint(1, 4), rng.randint(-5, 5)
    factor = f"({a}*x-{b})" if b >= 0 else f"({a}*x+{-b})"
    shape = rng.choice(["power", "power", "quadratic", "quotient", "product"])
    if shape == "power":
        text = f"{factor}^{rng.randint(1, 12)}"
    elif shape == "quadratic":
        text = f"x^2+{rng.randint(1, 5)}*x+{rng.randint(7, 12)}"
    elif shape == "quotient":
        text = f"({factor}^{rng.randint(1, 4)})/(x^2+{rng.randint(1, 3)})"
    else:
        text = f"{factor}^{rng.randint(1, 3)}*(x^2+{rng.randint(1, 3)})^{rng.randint(1, 2)}"
    shift = rng.randint(-3, 3)
    return text + (f"+{shift}" if shift > 0 else f"{shift}" if shift else "")


CARRIER_COMMANDS = (
    ["order", "FILE", "A", "B"], ["order", "FILE", "A", "B"], ["grothendieck", "FILE"],
    ["localizable", "FILE", "A"], ["localizable", "FILE", "--weak"],
    ["localizable", "FILE", "--strong"], ["verify", "FILE", "--main"],
    ["verify", "FILE", "--orderunit", "--element", "A"], ["verify", "FILE", "--weak-strong"],
    ["extremals", "FILE", "--elements", "A; B"], ["extremals", "FILE", "--elements", "A; B"])
# a lattice group has no carrier commands; one each stays drawn
GROUP_COMMANDS = (
    ["verify", "FILE", "--fring"], ["verify", "FILE", "--fring"],
    ["localizable", "FILE", "A"], ["localizable", "FILE", "--weak"],
    ["localizable", "FILE", "--strong"], ["verify", "FILE", "--main"],
    ["verify", "FILE", "--weak-strong"], ["order", "FILE", "A", "B"],
    ["grothendieck", "FILE"], ["extremals", "FILE", "--elements", "A; B"])


def _command_line(rng, name, element, group):
    """One command on the file ``name``, with elements drawn by ``element``."""
    a, b = element(), element()
    fill = {"FILE": name, "A": a, "B": b, "A; B": f"{a}; {b}"}
    argv = [fill.get(t, t) for t in rng.choice(GROUP_COMMANDS if group else CARRIER_COMMANDS)]
    return rng.choice([["--format", "text"]] + [[]] * 4) + argv


def draw():
    """(instance texts by name, argument lists) of the seeded draw."""
    rng = random.Random(SEED)
    kinds = [_lattice] * 5 + [_open_cone] * 3 + [_finite] * 2 + [_lattice_group]
    instances, cases = {}, []
    for i in range(INSTANCES):
        name = f"drawn/{i:04d}.mon"
        if rng.random() < 0.12:
            text = _rational_function(rng)
            argv = ["sos", text] + rng.choice([[], ["--theorem"]])
            cases.append(rng.choice([["--format", "text"]] + [[]] * 4) + argv)
            continue
        kind = rng.choice(kinds)
        lines, element = kind(rng)
        instances[name] = "\n".join(lines) + "\n"
        cases += [_command_line(rng, name, element, kind is _lattice_group)
                  for _ in range(rng.randint(4, 7))]
    return instances, cases


# ---------------------------------------------------------------------------
# running a case


def _command(argv):
    return argv[2] if argv[0] == "--format" else argv[0]


def _verdict(code, stdout, stderr, text_format):
    """The fields that make a mismatch readable: the verdict keys of a JSON
    report, at its top level and in its ``result`` and ``certificate``,
    or the first line of stderr."""
    if code == cli.EXIT_INPUT or not stdout:
        return stderr.partition("\n")[0]
    if text_format:
        return ""
    doc = json.loads(stdout)
    out = {}
    for scope, fields in (("", doc), ("result.", doc.get("result")),
                          ("certificate.", doc.get("certificate"))):
        if isinstance(fields, dict):
            out.update((scope + k, fields[k]) for k in VERDICT_KEYS
                       if k in fields and not isinstance(fields[k], (dict, list)))
    return out


def run_case(argv):
    """The recorded fields of one CLI call, run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    stdout = out.getvalue()
    stderr = "".join(line for line in err.getvalue().splitlines(keepends=True)
                     if not line.startswith("[timing]"))
    digest = hashlib.sha256(f"{stdout}\0{stderr}".encode()).hexdigest()
    return {"argv": list(argv), "code": code, "sha256": digest,
            "verdict": _verdict(code, stdout, stderr, argv[0] == "--format")}


def _write_instances(directory, instances):
    os.makedirs(os.path.join(directory, "drawn"), exist_ok=True)
    for name, text in instances.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


class _NodeMeter:
    """The most nodes one :meth:`CombinationSearch.find` call ran, while
    installed on the class."""

    def __init__(self):
        self.most = 0
        self._find = CombinationSearch.find

    def find(self, search, target):
        before = search.nodes
        try:
            return self._find(search, target)
        finally:
            self.most = max(self.most, search.nodes - before)


def _metered(monkeypatch):
    meter = _NodeMeter()
    monkeypatch.setattr(CombinationSearch, "find",
                        lambda search, target: meter.find(search, target))
    return meter


# ---------------------------------------------------------------------------
# the replay


@functools.lru_cache(maxsize=None)
def _load():
    with open(RECORDING, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    _write_instances(str(directory), _load()["instances"])
    return directory


def _replay(cases, corpus_dir, monkeypatch):
    """The recorded cases whose replay differs, each with what it gave."""
    monkeypatch.chdir(corpus_dir)
    return [(case, got) for case in cases if (got := run_case(case["argv"])) != case]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_drawn_case_matches_its_recording(command, corpus_dir, monkeypatch):
    meter = _metered(monkeypatch)
    cases = [c for c in _load()["cases"] if _command(c["argv"]) == command]
    assert _replay(cases, corpus_dir, monkeypatch)[:5] == []
    assert meter.most <= NODE_CAP


def test_the_recording_is_the_seeded_draw():
    instances, cases = draw()
    recorded = _load()
    assert recorded["instances"] == {name: instances[name] for name in recorded["instances"]}
    kept = [case["argv"] for case in recorded["cases"]]
    assert kept == [argv for argv in cases if argv in kept]


def test_the_corpus_draws_every_command_kind_and_exit_code():
    recorded = _load()
    cases = recorded["cases"]
    assert len(cases) >= 3000
    assert {_command(c["argv"]) for c in cases} == set(COMMANDS)
    assert {c["code"] for c in cases} == {0, 1, 2, 3, 4}
    kinds = {text.partition("\n")[0] for text in recorded["instances"].values()}
    assert kinds == {"kind: lattice", "kind: open-cone", "kind: finite", "kind: lattice-group"}
    assert sum(c["argv"][0] == "--format" for c in cases) >= len(cases) // 10


def test_a_planted_fault_changes_a_recorded_hash(corpus_dir, monkeypatch):
    # approx answering leq: the replay is not blind to a wrong verdict
    monkeypatch.setattr(monoids, "approx", lambda m, a, b: m.leq(a, b))
    cases = [c for c in _load()["cases"] if _command(c["argv"]) == "order" and c["code"] == 0]
    assert _replay(cases, corpus_dir, monkeypatch)


# ---------------------------------------------------------------------------
# recording


def record():
    """Run the seeded draw in a scratch directory and write the recording,
    keeping only the cases whose searches stay within ``NODE_CAP``."""
    instances, argvs = draw()
    cases = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as mp:
        _write_instances(directory, instances)
        meter = _metered(mp)
        os.chdir(directory)
        try:
            for argv in argvs:
                meter.most = 0
                case = run_case(argv)
                if meter.most <= NODE_CAP:
                    cases.append(case)
        finally:
            os.chdir(cwd)
    used = {a for case in cases for a in case["argv"]}
    doc = {"instances": {k: v for k, v in instances.items() if k in used}, "cases": cases}
    with open(RECORDING, "w", encoding="utf-8") as fh:
        fh.write('{\n"instances": {\n')
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                            for k, v in sorted(doc["instances"].items())))
        fh.write('\n},\n"cases": [\n')
        fh.write(",\n".join(json.dumps(c, sort_keys=True) for c in cases))
        fh.write("\n]\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_drawn_corpus.py --record")
    record()
