"""Tests for deterministic report rendering.

Reports must be byte-stable: same document in, same bytes out, with no
clocks or environment data.  Rationals are printed exactly, never as
floats.
"""

import enum
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoidorder.exactmath import InputError
from monoidorder.reports import (canonical, render_json, render_json_without,
                                 render_report, render_text, stderr_timer)


# --------------------------------------------------------------------------
# canonical(): the JSON-safe value set
# --------------------------------------------------------------------------

def test_canonical_fraction_renders_as_p_over_q():
    assert canonical(Fraction(3, 7)) == "3/7"
    assert canonical(Fraction(-5, 2)) == "-5/2"


def test_canonical_integral_fraction_collapses_to_int():
    got = canonical(Fraction(14, 7))
    assert got == 2 and isinstance(got, int)


def test_canonical_passes_through_scalars():
    assert canonical(True) is True
    assert canonical(False) is False
    assert canonical(None) is None
    assert canonical(42) == 42
    assert canonical("yes") == "yes"


def test_canonical_rejects_floats():
    with pytest.raises(InputError, match="loating-point"):
        canonical(0.5)
    with pytest.raises(InputError):
        canonical({"value": 1.25})


def test_canonical_rejects_unknown_types():
    with pytest.raises(InputError, match="cannot serialize"):
        canonical(object())
    with pytest.raises(InputError):
        canonical({"value": {1, 2}})


def test_canonical_tuples_become_lists():
    assert canonical((1, (2, 3))) == [1, [2, 3]]
    assert canonical([Fraction(1, 2), (0, 1)]) == ["1/2", [0, 1]]


def test_canonical_flattens_tuple_keys():
    doc = {(1, 0): "a", (0, Fraction(1, 2)): "b", 3: "c"}
    assert canonical(doc) == {"1,0": "a", "0,1/2": "b", "3": "c"}


def test_canonical_recurses_into_nested_documents():
    doc = {"outer": {"inner": [Fraction(2, 4), {"deep": (1, 2)}]}}
    assert canonical(doc) == {"outer": {"inner": ["1/2", {"deep": [1, 2]}]}}


# --------------------------------------------------------------------------
# render_json(): sorted keys, indent 2, trailing newline, byte determinism
# --------------------------------------------------------------------------

def test_render_json_sorts_keys_and_ends_with_newline():
    text = render_json({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 2, "b": 1}


def test_render_json_is_byte_stable_under_key_shuffle():
    base = {"gamma": [1, 2], "alpha": {"y": Fraction(1, 3), "x": None}}
    shuffled = {"alpha": {"x": None, "y": Fraction(1, 3)}, "gamma": [1, 2]}
    assert render_json(base).encode() == render_json(shuffled).encode()


def test_render_json_contains_no_floats():
    text = render_json({"half": Fraction(1, 2), "n": 7})
    parsed = json.loads(text)
    assert parsed == {"half": "1/2", "n": 7}
    assert not any(isinstance(v, float) for v in parsed.values())


@given(st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.one_of(st.integers(), st.booleans(), st.none(),
              st.fractions(max_denominator=50)),
    max_size=6))
def test_render_json_roundtrips_scalar_documents(doc):
    rendered = render_json(doc)
    assert rendered == render_json(dict(reversed(list(doc.items()))))
    json.loads(rendered)


@given(st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.recursive(st.one_of(st.integers(), st.booleans(), st.none(), st.text(max_size=4),
                           st.fractions(max_denominator=50)),
                 lambda kids: st.lists(kids, max_size=3)
                 | st.dictionaries(st.text(max_size=3), kids, max_size=3),
                 max_leaves=8),
    max_size=5), st.booleans())
def test_render_json_without_gives_the_bytes_of_two_renders(doc, flag):
    # a key that sorts anywhere among the others, newlines in strings included
    doc["golden_match"] = flag
    rest = {k: v for k, v in doc.items() if k != "golden_match"}
    rendered, report = render_json_without(doc, "golden_match")
    assert rendered == render_json(rest)
    assert render_report(report, "json") == render_json(doc)
    assert report == doc and render_report(report, "text") == render_text(doc)


# --------------------------------------------------------------------------
# render_text(): flattened dotted paths, sorted, one value per line
# --------------------------------------------------------------------------

def test_render_text_flattens_paths():
    doc = {"b": {"z": 1, "a": [True, None]}, "a": Fraction(1, 2)}
    assert render_text(doc) == (
        "a: 1/2\n"
        "b.a[0]: true\n"
        "b.a[1]: none\n"
        "b.z: 1\n")


def test_render_text_marks_empty_containers():
    assert render_text({"hits": [], "map": {}}) == "hits: []\nmap: {}\n"


def test_render_report_dispatches_and_rejects_unknown_format():
    doc = {"k": 1}
    assert render_report(doc, "json") == render_json(doc)
    assert render_report(doc, "text") == render_text(doc)
    with pytest.raises(InputError, match="unknown report format"):
        render_report(doc, "yaml")


# --------------------------------------------------------------------------
# stderr_timer(): observability goes to stderr, never into the document
# --------------------------------------------------------------------------

def test_stderr_timer_writes_stderr_only(capsys):
    with stderr_timer("unit-test"):
        pass
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[timing] unit-test:" in captured.err


# --------------------------------------------------------------------------
# render_json() against json.dumps over canonical()
# --------------------------------------------------------------------------

def _reference_json(doc) -> str:
    return json.dumps(canonical(doc), sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


def _outcome(render, doc):
    try:
        return render(doc)
    except InputError as exc:
        return ("InputError", str(exc))


class _Weight(enum.IntEnum):
    LIGHT = 1
    HEAVY = 7


class _Name(str):
    pass


class _AsDict:
    def __init__(self, doc):
        self.doc = doc

    def as_dict(self):
        return self.doc


class _Describe:
    def __init__(self, doc):
        self.doc = doc

    def describe(self):
        return self.doc


_TEXT = st.text(max_size=5)  # control characters and non-ASCII too
_SCALARS = st.one_of(
    st.integers(), st.booleans(), st.none(), _TEXT,
    st.fractions(max_denominator=9),
    st.integers(-5, 5).map(Fraction),  # integral: prints as an int
    st.sampled_from(list(_Weight)), _TEXT.map(_Name))
# keys that flatten to the same string: (1, 2) and "1,2", 1/2 and "1/2",
# True and "True", 7 and Fraction(7) and _Weight.HEAVY
_KEYS = st.one_of(
    _TEXT, st.integers(-3, 3), st.fractions(max_denominator=4),
    st.tuples(st.integers(0, 2), st.fractions(max_denominator=2)),
    st.sampled_from([(1, 2), "1,2", Fraction(1, 2), "1/2", True, False, "True",
                     None, 7, Fraction(7), _Weight.HEAVY, _Name("k"), "k", (), ""]))


def _documents(leaves):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
        inner.map(_AsDict), inner.map(_Describe)), max_leaves=12)


@given(_documents(_SCALARS))
def test_render_json_equals_json_dumps_of_canonical(doc):
    assert render_json(doc) == _reference_json(doc)


_BAD = st.one_of(st.floats(allow_nan=False), st.just(object()),
                 st.just(frozenset({1})), st.just(b"bytes"))


@given(_documents(st.one_of(_SCALARS, _BAD)))
def test_render_json_refuses_what_canonical_refuses(doc):
    assert _outcome(render_json, doc) == _outcome(_reference_json, doc)


@given(_documents(_SCALARS), _BAD, st.integers(0, 3))
def test_a_float_or_an_unknown_type_at_any_depth_is_refused(doc, bad, depth):
    message = ("floating-point values are not allowed in reports; use Fraction"
               if isinstance(bad, float) else
               f"cannot serialize {type(bad).__name__} into a report")
    nested = bad
    for _ in range(depth):
        nested = [doc, {"x": _AsDict(nested)}]
    for refused in (nested, {(1, bad): 0}):
        with pytest.raises(InputError) as exc:
            render_json(refused)
        assert str(exc.value) == message


def test_int_and_str_subclasses_print_as_json_prints_them():
    doc = {_Weight.HEAVY: [_Weight.LIGHT, _Name("é\n")], _Name("key"): _Weight.HEAVY}
    assert render_json(doc) == _reference_json(doc)
    assert render_json(_Weight.HEAVY) == "7\n"


def test_the_cli_snapshot_documents_render_back_to_their_bytes():
    with open(os.path.join(os.path.dirname(__file__), "data", "cli_snapshots.json"),
              encoding="utf-8") as fh:
        recorded = json.load(fh)
    documents = 0
    for case, output in recorded.items():
        if output["stdout"] and not case.startswith("--format text"):
            doc = json.loads(output["stdout"])
            assert render_json(doc) == _reference_json(doc) == output["stdout"], case
            documents += 1
    assert documents > 50
