"""A fresh process imports only the layers its entry point runs.

Each case starts ``python -X importtime`` in a subprocess and reads the
modules it loads off stderr, less those that a bare ``python -c pass`` in
the same environment loads too (a site hook may preload some).  The
module set is a deterministic counter of start-up work: compiling a
module it names costs milliseconds, and that does not jitter.
"""

import functools
import os
import re
import subprocess
import sys

import pytest

import monoidorder

from conftest import instance_path

SRC = os.path.dirname(os.path.dirname(os.path.abspath(monoidorder.__file__)))
# "import time: <self us> | <cumulative us> | <indent><module>"
_IMPORTED = re.compile(r"^import time:\s+\d+ \|\s+\d+ \| +(\S+)$")


def _loaded(*args):
    """The exit code and the set of modules of one fresh interpreter run
    with ``args``."""
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    modules = {m.group(1) for m in map(_IMPORTED.match, proc.stderr.splitlines()) if m}
    return proc.returncode, modules


@functools.cache
def _bare():
    code, modules = _loaded("-c", "pass")
    assert code == 0 and modules
    return frozenset(modules)


def _added(*args):
    code, modules = _loaded(*args)
    return code, modules - _bare()


def test_the_sums_of_squares_layer_loads_only_the_shared_leaf():
    code, added = _added("-c", "import monoidorder.formallyreal")
    assert code == 0
    package = {m for m in added if m.partition(".")[0] == "monoidorder"}
    assert package == {"monoidorder", "monoidorder.core", "monoidorder.formallyreal"}
    assert added & {"dataclasses", "inspect"} == set()


def test_sos_loads_no_polyhedral_or_carrier_layer():
    code, added = _added("-m", "monoidorder", "sos", "x^2+1")
    assert code == 0
    assert "monoidorder.formallyreal" in added
    unused = {f"monoidorder.{name}" for name in (
        "exactmath", "monoids", "instancefile", "functionals", "localizability",
        "grothendieck", "latticeorder")}
    assert added & (unused | {"dataclasses"}) == set()


def test_order_loads_no_theorem_layer():
    code, added = _added("-m", "monoidorder", "order", instance_path("free-monoid-2.mon"),
                         "1,0", "2,0")
    assert code == 0
    assert {"monoidorder.monoids", "monoidorder.grothendieck"} <= added
    unused = {f"monoidorder.{name}" for name in (
        "functionals", "localizability", "latticeorder", "formallyreal")}
    assert added & unused == set()


@pytest.mark.parametrize("argv", [("sos", "x^2+1"),
                                  ("order", "free-monoid-2.mon", "1,0", "2,0")],
                         ids=lambda argv: argv[0])
def test_rendering_a_report_loads_no_json_decoder(argv):
    # reports encode strings with the C encoder of ``_json``; importing it
    # from ``json.encoder`` loaded the whole ``json`` package
    command, *rest = argv
    if command == "order":
        rest[0] = instance_path(rest[0])
    code, added = _added("-m", "monoidorder", command, *rest)
    assert code == 0
    assert "monoidorder.reports" in added
    assert added & {"json", "json.decoder", "json.scanner"} == set()


# each command runs to a verdict that exits 0
LATTICE_AND_THEOREM_COMMANDS = [
    ("order", "free-monoid-2.mon", "1,0", "2,0"),
    ("grothendieck", "matrix-2x2.mon"),
    ("verify", "free-monoid-3.mon", "--main"),
    ("localizable", "free-monoid-2.mon", "--weak"),
    ("extremals", "slanted-cone.mon", "--elements", "1,0; 1,2"),
]


@pytest.mark.parametrize("argv", LATTICE_AND_THEOREM_COMMANDS, ids=lambda argv: argv[0])
def test_a_lattice_or_theorem_command_loads_no_dataclasses(argv):
    command, name, *rest = argv
    code, added = _added("-m", "monoidorder", command, instance_path(name), *rest)
    assert code == 0
    assert "monoidorder.instancefile" in added
    assert added & {"dataclasses", "inspect"} == set()


def test_the_functionals_layer_loads_grothendieck_only_to_span_elements():
    code, added = _added("-c", "import monoidorder.functionals")
    assert code == 0
    assert {"monoidorder.functionals", "monoidorder.localizability"} <= added
    assert "monoidorder.grothendieck" not in added
