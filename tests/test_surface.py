"""The library's surface is what the program, the benchmark and acceptance use.

Every module-level function and class under ``src/monoidorder/`` must be
used outside its own definition: in ``src/`` or ``tests/test_acceptance.py``
as a Python name (a name, an attribute or an imported name, so a report key
or a word in a docstring does not count), or in ``perfbench/`` as a whole
word (the tracer names its targets in strings).  Every method of such a
class that is not a dunder must be used there as an attribute (``.name``).
A name that only a unit test reaches belongs next to that test, unless the
test uses it as an oracle; those few are listed in ``ORACLES`` (a method as
``Class.name``) with the test file that uses them.

Every parameter with a default, of a library function or method, must be
passed by some call in ``src/``, ``perfbench/`` or
``tests/test_acceptance.py``: a default that no caller overrides is a
constant.  The few that only tests set are listed in ``SET_BY_TESTS`` with
the reason.

Only ``monoids`` decides what kind of carrier it holds: no module tests a
carrier class with ``isinstance``, none but the instance file loader
compares a ``kind`` with a carrier-kind string, and the one carrier fact
that stands for a finite carrier, ``order_is_total``, is read at a few
counted sites.
"""

import ast
import os
import re

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
PACKAGE = os.path.join(ROOT, "src", "monoidorder")
PERFBENCH = os.path.join(ROOT, "perfbench")

# name -> the test file that uses it as an oracle
ORACLES = {
    "sign_canonical": "tests/test_exactmath.py",  # pointed cones for a property
    "RationalCone.same_cone": "tests/test_exactmath.py",  # dual of the dual
}

# (function, parameter) -> why only tests pass it
SET_BY_TESTS = {
    ("lp_feasible", "eqs"): "the test reference of the LP kernel the tracer pins",
    ("lp_feasible", "ineqs"): "the test reference of the LP kernel the tracer pins",
    ("bounded_nonneg_combination", "bound"):
        "the test reference of the membership search the tracer pins",
    ("enumerate_biadditive_ops", "node_budget"):
        "tests set it to drive budget exhaustion",
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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(module path, name, is a method, first line, last line) of each
    top-level def, and of each non-dunder method of a top-level class
    (named ``Class.method``)."""
    for path in sorted(_python_files(PACKAGE)):
        for node in ast.parse(_read(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield (path, node.name, False) + _span(node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        yield (path, f"{node.name}.{item.name}", True) + _span(item)


def _program_files():
    """The files whose uses count: the package sources, the acceptance
    tests (read as Python) and the benchmark (read as text)."""
    python = (list(_python_files(os.path.join(ROOT, "src")))
              + [os.path.join(ROOT, "tests", "test_acceptance.py")])
    return python, list(_python_files(PERFBENCH))


def _name_uses(tree):
    """(identifier, line, as an attribute) of every name, attribute and
    imported name in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False


def _unreached():
    python, text = _program_files()
    uses = {path: list(_name_uses(ast.parse(_read(path)))) for path in python}
    words = {path: _read(path) for path in text}
    out = []
    for path, name, method, start, end in _definitions():
        word = name.rpartition(".")[2]
        used = any(ident == word and (attr or not method)
                   and not (p == path and start <= line <= end)
                   for p, found in uses.items() for ident, line, attr in found)
        pattern = re.compile((r"\." if method else r"\b") + re.escape(word) + r"\b")
        if not used and not any(pattern.search(t) for t in words.values()):
            out.append(name)
    return out


def _defaulted_parameters():
    """(function name, parameter, position) of each parameter with a
    default, of every top-level function and every method (``__init__``
    as the class) under the package.  The position is the index among the
    positional arguments of a call (a method's first parameter is bound),
    None for a keyword-only parameter."""
    for path in sorted(_python_files(PACKAGE)):
        for node in ast.parse(_read(path)).body:
            funcs = [(node.name, node, False)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                funcs = [(node.name if item.name == "__init__" else item.name, item, True)
                         for item in node.body if isinstance(item, ast.FunctionDef)
                         and (item.name == "__init__" or not _is_dunder(item.name))]
            for name, func, method in funcs:
                args = func.args.posonlyargs + func.args.args
                first = len(args) - len(func.args.defaults)
                for i, arg in enumerate(args[first:], start=first - method):
                    yield name, arg.arg, i
                for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
                    if default is not None:
                        yield name, arg.arg, None


def _passed_parameters():
    """(callee name, parameter or position) of what some call in the
    program files passes: each keyword and each index of a positional
    argument; ``"*"`` for a call that unpacks arguments."""
    python, text = _program_files()
    passed = set()
    for path in python + text:
        for node in ast.walk(ast.parse(_read(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                passed.add((callee, "*"))
            passed.update((callee, k.arg) for k in node.keywords)
            passed.update((callee, i) for i in range(len(node.args)))
    return passed


def _unpassed_defaults():
    passed = _passed_parameters()
    return sorted({(name, param) for name, param, position in _defaulted_parameters()
                   if not {(name, param), (name, position), (name, "*")} & passed})


def test_every_library_name_is_reached_outside_the_unit_tests():
    assert sorted(set(_unreached()) - set(ORACLES)) == []


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_each_oracle_entry_is_needed_and_used(name):
    assert name in _unreached(), f"{name} is reached from the program"
    text = _read(os.path.join(ROOT, ORACLES[name]))
    word = name.rpartition(".")[2]
    assert re.search(rf"\b{re.escape(word)}\b", text)


def test_every_default_is_overridden_by_the_program():
    assert sorted(set(_unpassed_defaults()) - set(SET_BY_TESTS)) == []


@pytest.mark.parametrize("entry", sorted(SET_BY_TESTS))
def test_each_test_only_default_is_needed(entry):
    assert entry in _unpassed_defaults(), f"{entry} is passed by the program"


def _unused_imports(path):
    """The names that a module imports and never reads.
    A name counts as read where it appears as a name (an attribute chain
    starts with one); a ``from __future__`` import and an import marked
    ``# noqa: F401`` (a re-export) are exempt."""
    source = _read(path)
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in read:
                out.append(name)
    return out


@pytest.mark.parametrize("path", sorted(_python_files(PACKAGE)),
                         ids=lambda path: os.path.relpath(path, PACKAGE))
def test_every_import_is_used_by_its_module(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(_python_files(os.path.join(ROOT, "tests"))),
                         ids=lambda path: os.path.relpath(path, ROOT))
def test_every_import_is_used_by_its_test_module(path):
    assert _unused_imports(path) == []


# Only ``monoids`` decides what kind of carrier it holds: the other
# modules read the carrier protocol (see the ``monoids`` docstring).  The
# instance file loader alone names the kinds, as they are spelled in files.
CARRIER_CLASSES = {"FiniteMonoid", "LatticeMonoid", "OpenConeMonoid", "VectorCarrier"}
CARRIER_KINDS = {"finite", "lattice", "cone", "open-cone"}
# the one carrier fact that stands for "a finite carrier", and its budget
TOTAL_ORDER_READS = 7


def _names_in(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _kind_decisions(directory):
    """(file, line), sorted, of each ``isinstance`` on a carrier class
    anywhere, and of each comparison of a ``kind`` or ``groth_kind`` with a carrier-kind
    string outside ``instancefile.py``."""
    out = []
    for path in sorted(_python_files(directory)):
        name = os.path.basename(path)
        for node in ast.walk(ast.parse(_read(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and _names_in(node.args[1]) & CARRIER_CLASSES):
                out.append((name, node.lineno))
            elif isinstance(node, ast.Compare) and name != "instancefile.py":
                operands = [node.left] + node.comparators
                strings = {c.value for o in operands for c in ast.walk(o)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str)}
                kinds = {o.id if isinstance(o, ast.Name) else getattr(o, "attr", None)
                         for o in operands}
                if kinds & {"kind", "groth_kind"} and strings & CARRIER_KINDS:
                    out.append((name, node.lineno))
    return sorted(out)


def _attribute_reads(directory, attr):
    return [(os.path.basename(path), node.lineno)
            for path in sorted(_python_files(directory))
            for node in ast.walk(ast.parse(_read(path)))
            if isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.ctx, ast.Load)]


def test_no_module_but_monoids_decides_the_carrier_kind():
    assert _kind_decisions(PACKAGE) == []


def test_the_total_order_fact_is_read_at_few_sites():
    reads = _attribute_reads(PACKAGE, "order_is_total")
    assert 0 < len(reads) <= TOTAL_ORDER_READS, reads


@pytest.mark.parametrize("module", ["localizability.py", "functionals.py", "cli.py"])
def test_the_deciding_modules_import_no_carrier_class(module):
    tree = ast.parse(_read(os.path.join(PACKAGE, module)))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported & CARRIER_CLASSES == set()


def test_the_kind_walk_finds_a_planted_decision(tmp_path):
    # the walk is not vacuous: each shape it forbids is found where planted
    (tmp_path / "planted.py").write_text(
        "def f(m, red, instance):\n"
        "    if isinstance(m, (FiniteMonoid, int)):\n"
        "        return red.kind == 'finite'\n"
        "    return 'lattice' != m.groth_kind or instance.kind in ('cone', 'open-cone')\n")
    (tmp_path / "instancefile.py").write_text("ok = kind == 'finite'\n")
    assert _kind_decisions(str(tmp_path)) == [
        ("planted.py", 2), ("planted.py", 3), ("planted.py", 4), ("planted.py", 4)]


# The package modules each module may import when it is imported: a fresh
# process compiles only the layers its entry point runs.  ``core`` is the
# shared leaf; the command line's handlers import their own layers inside
# the function, and the instance file loader reads ``formallyreal`` only
# for a rational-function file.
IMPORT_TIME_LAYERS = {
    "core.py": set(),
    "formallyreal.py": {"core"},
    "reports.py": {"core"},
    "cli.py": {"core", "reports"},
}


def _import_time_package_imports(path):
    """The package modules that a module imports outside any function
    body, that is when it is itself imported, by first name after the
    package (``from .core import x``, ``from . import core``, ``import
    monoidorder.core`` and ``from monoidorder.core import x`` all give
    ``core``)."""
    found = set()
    stack = list(ast.parse(_read(path)).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            dotted = (["monoidorder." + node.module] if node.module else
                      ["monoidorder." + alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            dotted = ([f"{node.module}.{alias.name}" for alias in node.names]
                      if node.module == "monoidorder" else [node.module])
        else:
            continue
        found.update(name.split(".")[1] for name in dotted
                     if name.startswith("monoidorder."))
    return found


@pytest.mark.parametrize("module", sorted(IMPORT_TIME_LAYERS))
def test_a_module_imports_only_its_layers_when_imported(module):
    imported = _import_time_package_imports(os.path.join(PACKAGE, module))
    assert imported <= IMPORT_TIME_LAYERS[module]


def test_the_instance_loader_reads_formallyreal_only_for_a_function_file():
    imported = _import_time_package_imports(os.path.join(PACKAGE, "instancefile.py"))
    assert "monoids" in imported and "formallyreal" not in imported


def test_the_layer_walk_finds_each_import_shape(tmp_path):
    # the walk is not vacuous: every shape of package import outside a
    # function body is found, and one inside a function body is not
    planted = tmp_path / "planted.py"
    planted.write_text(
        "import os\n"
        "from .core import InputError\n"
        "from . import reports\n"
        "import monoidorder.monoids\n"
        "from monoidorder.exactmath import vdot\n"
        "from monoidorder import instancefile\n"
        "try:\n"
        "    from .grothendieck import nabla\n"
        "except ImportError:\n"
        "    pass\n"
        "class C:\n"
        "    from .functionals import positive_functionals\n"
        "    def f(self):\n"
        "        from .latticeorder import almost_fring_tensor\n"
        "def g():\n"
        "    from .localizability import is_localizable\n")
    assert _import_time_package_imports(str(planted)) == {
        "core", "reports", "monoids", "exactmath", "instancefile", "grothendieck",
        "functionals"}


def _importers(directory, module):
    """The files, sorted, that import the top-level ``module`` anywhere:
    at module level or in a function body, whole or by name."""
    out = []
    for path in sorted(_python_files(directory)):
        for node in ast.walk(ast.parse(_read(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if module in (name.partition(".")[0] for name in names):
                out.append(os.path.basename(path))
                break
    return out


# ``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and ``tokenize`` and
# runs ``exec`` per decorated class, which costs a fresh command more than
# some layers do: the package's records are plain classes
def test_no_module_imports_dataclasses():
    assert _importers(os.path.join(ROOT, "src"), "dataclasses") == []


def test_the_importer_walk_finds_each_import_shape(tmp_path):
    # the walk is not vacuous: a whole import, an alias and an import by
    # name in a function body are found; a relative module of that name
    # and a longer name are not
    (tmp_path / "a.py").write_text("import os, dataclasses as dc\n")
    (tmp_path / "b.py").write_text("def f():\n    from dataclasses import field\n")
    (tmp_path / "c.py").write_text("from .dataclasses import x\nimport dataclassesx\n")
    assert _importers(str(tmp_path), "dataclasses") == ["a.py", "b.py"]


# Each shared job is written once: the records' ``==`` and ``repr`` in
# ``core.Record``, the values' ``hash`` in ``formallyreal._Value``, and the
# integer determinant in ``exactmath.int_adjugate``, which carries it.
SHARED_JOBS = {"__eq__", "__repr__", "__hash__", "int_det"}


def _shared_job_sites(directory):
    """(file, enclosing class or "", name), sorted, of each definition or
    assignment of a name in ``SHARED_JOBS`` at any depth, and of each use
    of ``int_det``: a name, an attribute or an imported name."""
    out = []
    for path in sorted(_python_files(directory)):
        tree = ast.parse(_read(path))
        owners = {child: node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for child in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names if alias.name == "int_det"]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [n for n in _names_in(node) if n == "int_det"]
            else:
                continue
            out.extend((os.path.basename(path), owners.get(node, ""), name)
                       for name in names if name in SHARED_JOBS)
    return sorted(out)


def test_each_shared_job_is_written_once():
    assert _shared_job_sites(PACKAGE) == [
        ("core.py", "Record", "__eq__"), ("core.py", "Record", "__repr__"),
        ("formallyreal.py", "_Value", "__hash__")]
    # the reduction reads U^-1 off the solver that proved U unimodular
    used = _names_in(ast.parse(_read(os.path.join(PACKAGE, "grothendieck.py"))))
    assert "inverse" in used and "int_adjugate" not in used


def test_the_shared_job_walk_finds_a_planted_copy(tmp_path):
    # the walk is not vacuous: a dunder defined or assigned in a class, one
    # in a nested class, and a determinant defined, imported or called are
    # each found where planted
    (tmp_path / "planted.py").write_text(
        "from .exactmath import int_det\n"
        "class A:\n"
        "    def __eq__(self, other):\n"
        "        return exactmath.int_det(other) == 1\n"
        "    __hash__ = None\n"
        "def f():\n"
        "    class B:\n"
        "        def __repr__(self):\n"
        "            return ''\n"
        "    def int_det(m):\n"
        "        return 1\n")
    assert _shared_job_sites(str(tmp_path)) == [
        ("planted.py", "", "int_det"), ("planted.py", "", "int_det"),
        ("planted.py", "", "int_det"), ("planted.py", "A", "__eq__"),
        ("planted.py", "A", "__hash__"), ("planted.py", "B", "__repr__")]
