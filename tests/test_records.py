"""The package's records are plain classes that behave as the ``@dataclass``
each of them was.

Each is compared with a dataclass twin of the same name, fields, order and
defaults, written in this file: the signature, construction by position
and by keyword, a fresh ``dict`` or ``list`` per instance, ``==`` (of the
same class only, and never hashable), ``repr`` and assignment after
construction.  A field that no caller passes is set by ``__init__`` alone,
like a twin's ``field(init=False)``.  This file is the only place that
imports ``dataclasses``.
"""

import inspect
import itertools
from dataclasses import dataclass, field, fields
from fractions import Fraction

import pytest

import monoidorder.functionals as functionals
import monoidorder.instancefile as instancefile
import monoidorder.localizability as localizability
from monoidorder.core import InputError
from monoidorder.functionals import span_of_elements
from monoidorder.monoids import free_monoid


@dataclass
class Instance:
    kind: str
    source: str
    monoid: object = None
    op: object = None
    function: object = None


@dataclass
class _Raw:
    source: str
    headers: dict = field(default_factory=dict, init=False)
    sections: dict = field(default_factory=dict, init=False)
    section_starts: dict = field(default_factory=dict, init=False)


@dataclass
class WeakLocalizabilityCertificate:
    verdict: str
    assignments: dict = field(default_factory=dict)
    refuted: object = None
    reason: str = ""
    budget: int = field(default=8, init=False)
    method: str = "search"
    details: dict = field(default_factory=dict)


@dataclass
class AdditiveFunctional:
    subgroup: object
    coefficients: tuple
    extremal: bool = False
    ambient_covector: object = None
    carrier_covector: object = field(default=None, init=False)


@dataclass
class NormalizationResult:
    status: str
    psi: object
    factor: object
    failures: list = field(default_factory=list)
    preconditions: list = field(default_factory=list)
    degenerate_checks: list = field(default_factory=list)
    reason: str = ""


TWINS = {
    instancefile.Instance: Instance,
    instancefile._Raw: _Raw,
    localizability.WeakLocalizabilityCertificate: WeakLocalizabilityCertificate,
    functionals.AdditiveFunctional: AdditiveFunctional,
    functionals.NormalizationResult: NormalizationResult,
}

# (record, positional arguments, keyword arguments); an additive functional
# checks its subgroup, so it has tests of its own below
CASES = [
    (instancefile.Instance, ("lattice", "a.mon"), {}),
    (instancefile.Instance, ("lattice", "a.mon", "M", "OP", "F"), {}),
    (instancefile.Instance, (), {"kind": "finite", "source": "b.mon", "op": "OP"}),
    (instancefile._Raw, ("a.mon",), {}),
    (instancefile._Raw, (), {"source": "b.mon"}),
    (localizability.WeakLocalizabilityCertificate, ("yes",), {}),
    (localizability.WeakLocalizabilityCertificate,
     ("no", {(1,): (2,)}, (1, 1), "why", "order-unit", {"k": 1}), {}),
    (localizability.WeakLocalizabilityCertificate, ("yes",),
     {"assignments": {(1,): (1,)}, "reason": "why", "details": {"k": 2}}),
    (functionals.NormalizationResult, ("multiplicative", None, Fraction(1, 2)), {}),
    (functionals.NormalizationResult,
     ("not-multiplicative", None, Fraction(2), [{"f": 1}], [{"name": "identity"}], [],
      "why"), {}),
    (functionals.NormalizationResult, (),
     {"status": "degenerate", "psi": None, "factor": None, "degenerate_checks": [{"at": 1}]}),
]


def _case_id(case):
    record, args, kwargs = case
    return f"{record.__name__}-{len(args)}-{'-'.join(kwargs)}"


def _values(obj, twin):
    return [getattr(obj, f.name) for f in fields(twin)]


def _parameters(cls):
    return [(p.name, p.kind, p.default is p.empty)
            for p in inspect.signature(cls).parameters.values()]


@pytest.mark.parametrize("record", sorted(TWINS, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_a_record_has_its_twins_signature_and_is_unhashable(record):
    assert _parameters(record) == _parameters(TWINS[record])
    assert record.__hash__ is None


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_a_record_is_built_like_its_twin(case):
    record, args, kwargs = case
    obj, twin = record(*args, **kwargs), TWINS[record](*args, **kwargs)
    assert _values(obj, twin) == _values(twin, twin)
    assert repr(obj) == repr(twin)


@pytest.mark.parametrize("record, containers", [
    (instancefile._Raw, 3),
    (localizability.WeakLocalizabilityCertificate, 2),
    (functionals.NormalizationResult, 3),
], ids=lambda v: getattr(v, "__name__", None))
def test_a_default_container_is_fresh_per_instance(record, containers):
    args = next(args for cls, args, kwargs in CASES if cls is record)
    first, second = record(*args), record(*args)
    pairs = [(a, b) for a, b in zip(_values(first, TWINS[record]),
                                    _values(second, TWINS[record]))
             if isinstance(a, (dict, list))]
    assert len(pairs) == containers
    assert all(a is not b and not a for a, b in pairs)


def test_equality_is_the_twins():
    built = [(record(*args, **kwargs), TWINS[record](*args, **kwargs))
             for record, args, kwargs in CASES]
    for (a, a_twin), (b, b_twin) in itertools.product(built, repeat=2):
        assert (a == b) == (a_twin == b_twin)
        assert (a != b) == (a_twin != b_twin)
    assert all(a == type(a)(*args, **kwargs) and a != twin and twin != a
               for (a, twin), (_, args, kwargs) in zip(built, CASES))


@pytest.mark.parametrize("record, args, assigned", [
    (localizability.WeakLocalizabilityCertificate, ("yes",),
     {"budget": 64, "method": "search-after-refusal", "details": {"refusal_reasons": []}}),
    (instancefile.Instance, ("lattice", "a.mon"), {"op": "OP", "kind": "finite"}),
    (instancefile._Raw, ("a.mon",), {"headers": {"kind": (1, "lattice")}}),
    (functionals.NormalizationResult, ("degenerate", None, None), {"reason": "why"}),
], ids=["certificate", "instance", "raw", "normalization"])
def test_a_record_takes_assignment_after_construction(record, args, assigned):
    obj, twin = record(*args), TWINS[record](*args)
    for name, value in assigned.items():
        setattr(obj, name, value)
        setattr(twin, name, value)
    assert all(getattr(obj, name) is value for name, value in assigned.items())
    assert repr(obj) == repr(twin)
    assert obj != record(*args)


def _plane_span():
    return span_of_elements(free_monoid(2), [(1, 0), (0, 1)])


def test_an_additive_functional_coerces_its_coefficients_and_reads_like_its_twin():
    h = _plane_span()
    phi = functionals.AdditiveFunctional(h, [1, 2])
    assert phi.coefficients == (1, 2)
    assert type(phi.coefficients) is tuple
    assert all(type(c) is Fraction for c in phi.coefficients)
    assert phi.ambient_covector is not None and phi.carrier_covector is not None
    twin = AdditiveFunctional(h, phi.coefficients, False, phi.ambient_covector)
    twin.carrier_covector = phi.carrier_covector
    assert repr(phi) == repr(twin)
    same = functionals.AdditiveFunctional(subgroup=h, coefficients=(Fraction(1), 2),
                                          extremal=False,
                                          ambient_covector=phi.ambient_covector)
    assert same == phi and phi.scaled(2) != phi
    phi.extremal = True
    assert phi != same and "extremal=True" in repr(phi)


@pytest.mark.parametrize("coefficients", [(), (1,), (1, 2, 3)])
def test_an_additive_functional_refuses_a_wrong_coefficient_count(coefficients):
    with pytest.raises(InputError, match="coefficient count"):
        functionals.AdditiveFunctional(_plane_span(), coefficients)
