"""The benchmark tracer's contract with the program.

``perfbench/tracer.py`` wraps the functions named in its ``TARGETS`` list
from outside the program, reading each one from its module or from its
class's own ``__dict__``.  A refactor that renames or moves one of them
(for example a method moved to a base class) silently breaks ``--trace 1``.
This test loads the tracer read-only, installs and uninstalls it, and
checks that every target resolves, is wrapped, and is restored.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
TRACER_PATH = os.path.join(ROOT, "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _holder(modname, path):
    module = importlib.import_module(f"monoidorder.{modname}")
    owner, _, attr = path.rpartition(".")
    return (getattr(module, owner) if owner else module), attr


def _namespaces():
    return {name: dict(vars(module)) for name, module in list(sys.modules.items())
            if name == "monoidorder" or name.startswith("monoidorder.")}


def test_every_target_resolves_in_its_own_namespace(tracer_module):
    for modname, path, _ in tracer_module.TARGETS:
        holder, attr = _holder(modname, path)
        assert attr in vars(holder), f"{modname}.{path} is not defined where the tracer reads it"
        assert callable(vars(holder)[attr])


def test_install_wraps_every_target_and_uninstall_restores_it(tracer_module):
    for modname, _, _ in tracer_module.TARGETS:
        importlib.import_module(f"monoidorder.{modname}")
    originals = {(m, p): vars(_holder(m, p)[0])[_holder(m, p)[1]]
                 for m, p, _ in tracer_module.TARGETS}
    before = _namespaces()

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (modname, path), original in originals.items():
            holder, attr = _holder(modname, path)
            current = vars(holder)[attr]
            assert current is not original, f"{modname}.{path} was not wrapped"
            assert current.__wrapped__ is original
    finally:
        tracer.uninstall()

    for (modname, path), original in originals.items():
        holder, attr = _holder(modname, path)
        assert vars(holder)[attr] is original, f"{modname}.{path} was not restored"
    after = _namespaces()
    for name, names in before.items():
        for key, value in names.items():
            assert after[name][key] is value, f"{name}.{key} was not restored"
