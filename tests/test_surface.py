"""The library's surface is what the program, the benchmark and acceptance use.

Every module-level function and class under ``src/monoidorder/`` must be
named, as a whole word outside its own definition, in ``src/``, in
``perfbench/`` or in ``tests/test_acceptance.py``; every method of such a
class that is not a dunder must appear there as ``.name``.  A name that
only a unit test reaches belongs next to that test, unless the test uses
it as an oracle; those few are listed in ``ORACLES`` (a method as
``Class.name``) with the test file that uses them.
"""

import ast
import os
import re

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PACKAGE = os.path.join(ROOT, "src", "monoidorder")

# name -> the test file that uses it as an oracle
ORACLES = {
    "LiftedOp": "tests/test_grothendieck.py",  # the descent of mu to a reduction
    "sign_canonical": "tests/test_exactmath.py",  # pointed cones for a property
    "RationalCone.same_cone": "tests/test_exactmath.py",  # dual of the dual
    # the first refuted element of the weak search's row obstruction
    "monomial_row_obstruction": "tests/test_localizability.py",
}


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _python_files(directory):
    for base, _, files in os.walk(directory):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(base, name)


def _span(node):
    return min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno


def _definitions():
    """(module path, name, use pattern, first line, last line) of each
    top-level def, and of each non-dunder method of a top-level class
    (named ``Class.method``, used as ``.method``)."""
    for path in sorted(_python_files(PACKAGE)):
        for node in ast.parse(_read(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield (path, node.name, rf"\b{re.escape(node.name)}\b") + _span(node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        yield (path, f"{node.name}.{item.name}",
                               rf"\.{re.escape(item.name)}\b") + _span(item)


def _users():
    """Path -> text of every file whose mentions count as a use."""
    paths = (list(_python_files(os.path.join(ROOT, "src")))
             + list(_python_files(os.path.join(ROOT, "perfbench")))
             + [os.path.join(ROOT, "tests", "test_acceptance.py")])
    return {path: _read(path) for path in paths}


def _unreached():
    users = _users()
    out = []
    for path, name, pattern, start, end in _definitions():
        word = re.compile(pattern)
        lines = users[path].splitlines()
        own = "\n".join(lines[:start - 1] + lines[end:])
        if not word.search(own) and not any(
                word.search(text) for p, text in users.items() if p != path):
            out.append(name)
    return out


def test_every_library_name_is_reached_outside_the_unit_tests():
    assert sorted(set(_unreached()) - set(ORACLES)) == []


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_each_oracle_entry_is_needed_and_used(name):
    assert name in _unreached(), f"{name} is reached from the program"
    text = _read(os.path.join(ROOT, ORACLES[name]))
    word = name.rpartition(".")[2]
    assert re.search(rf"\b{re.escape(word)}\b", text)
