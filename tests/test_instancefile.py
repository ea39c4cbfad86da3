"""Parsing of the on-disk instance format and element lookup."""

import itertools
import pathlib
from fractions import Fraction

import pytest

from monoidorder.core import InputError
from monoidorder.instancefile import (check_membership, load_instance,
                                      parse_element, parse_instance_text)
from monoidorder.monoids import (BiadditiveOp, FiniteMonoid, LatticeMonoid,
                                 OpenConeMonoid, leq)

from conftest import INSTANCE_DIR, instance_path


ALL_INSTANCES = sorted(p.name for p in pathlib.Path(INSTANCE_DIR).glob("*.mon"))


def test_corpus_is_present():
    assert len(ALL_INSTANCES) >= 10


@pytest.mark.parametrize("name", ALL_INSTANCES)
def test_every_shipped_instance_loads(name):
    inst = load_instance(instance_path(name))
    assert inst.kind in ("finite", "lattice", "open-cone", "lattice-group",
                         "rational-function")
    desc = inst.describe()
    assert desc["kind"] == inst.kind
    assert desc["source"].endswith(name)


def test_finite_instance_round_trip():
    inst = load_instance(instance_path("finite-flag.mon"))
    assert inst.kind == "finite"
    assert isinstance(inst.monoid, FiniteMonoid)
    assert inst.monoid.names == ("o", "t")
    assert inst.monoid.add(1, 1) == 1
    op = inst.require_op()
    assert op.mu(1, 1) == 1
    assert parse_element(inst, "t") == 1
    with pytest.raises(InputError):
        parse_element(inst, "bogus")


def test_lattice_instance_round_trip():
    inst = load_instance(instance_path("slanted-cone.mon"))
    assert inst.kind == "lattice"
    m = inst.monoid
    assert isinstance(m, LatticeMonoid)
    assert m.dim == 2 and list(m.generators) == [(1, 0), (1, 2)]
    assert inst.op is None
    with pytest.raises(InputError):
        inst.require_op()
    assert parse_element(inst, "(1,2)") == (1, 2)
    assert parse_element(inst, "3, 4") == (3, 4)
    # check_membership raises on non-members and returns None on success.
    assert check_membership(inst, (2, 2)) is None
    with pytest.raises(InputError, match="not in the monoid"):
        check_membership(inst, (0, 1))


def test_open_cone_instance_round_trip():
    inst = load_instance(instance_path("half-open-half-plane.mon"))
    assert inst.kind == "open-cone"
    m = inst.monoid
    assert isinstance(m, OpenConeMonoid)
    assert parse_element(inst, "(1/2, -3)") == (Fraction(1, 2), Fraction(-3))
    assert check_membership(inst, (Fraction(1, 2), Fraction(7))) is None
    op = inst.require_op()
    assert op.mu((1, 0), (2, 5)) == (2, 5)


def test_lattice_group_instance_round_trip():
    inst = load_instance(instance_path("almost-fring.mon"))
    assert inst.kind == "lattice-group"
    assert isinstance(inst.require_op(), BiadditiveOp)
    # the operation sits on the closed positive orthant of Q^3
    assert isinstance(inst.op.carrier, OpenConeMonoid)
    assert inst.op.carrier.open_normals == ()
    assert inst.op.carrier.contains((Fraction(1, 2), 0, 1))
    assert inst.describe()["scalar"] == "rational"
    # elements are parsed by the carrier: rationals on Q^3
    assert parse_element(inst, "1/2, 0, 1") == (Fraction(1, 2), 0, 1)
    assert check_membership(inst, (Fraction(1, 2), 0, 1)) is None
    with pytest.raises(InputError, match=r"element \[-1/2, 0, 1\] is not in the monoid"):
        check_membership(inst, (Fraction(-1, 2), 0, 1))


def test_lattice_group_elements_are_parsed_by_the_carrier():
    integer = load_instance(instance_path("fring-weighted-2.mon"))
    assert parse_element(integer, "(1, 2)") == (1, 2)
    with pytest.raises(InputError) as exc:
        parse_element(integer, "1/2,1")
    assert str(exc.value) == "element '1/2,1': expected an integer, got '1/2'"
    with pytest.raises(InputError) as exc:
        parse_element(integer, "1,2,3")
    assert str(exc.value) == "element '1,2,3' has 3 coordinates, expected 2"
    with pytest.raises(InputError, match="not in the monoid"):
        check_membership(integer, (-1, 0))
    rational = load_instance(instance_path("almost-fring.mon"))
    with pytest.raises(InputError) as exc:
        parse_element(rational, "x,0,0")
    assert str(exc.value) == ("element 'x,0,0': expected an integer or "
                              "rational p/q, got 'x'")


@pytest.mark.parametrize("scalar", [None, "integer", "rational"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lattice_group_loads_as_an_operation_on_the_orthant(dim, scalar):
    header = "" if scalar is None else f"scalar: {scalar}\n"
    rows = "".join(f"{i} {i} " + " ".join(str(int(k == i) * (i + 2))
                                          for k in range(dim)) + "\n"
                   for i in range(dim))
    inst = parse_instance_text(f"kind: lattice-group\ndim: {dim}\n{header}"
                               f"[tensor]\n{rows}", source="<test>")
    assert inst.monoid is inst.op.carrier
    assert inst.describe() == {"kind": "lattice-group", "source": "<test>",
                               "dim": dim, "scalar": scalar or "integer",
                               "has_operation": True}
    carrier = inst.op.carrier
    assert isinstance(carrier, OpenConeMonoid if scalar == "rational"
                      else LatticeMonoid)
    unit = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
    assert sorted(carrier.rays) == sorted(unit)
    assert not carrier.contains(tuple(-u for u in unit[0]))
    assert inst.op.validate() == []
    assert inst.op.mu((1,) * dim, (1,) * dim) == tuple(range(2, dim + 2))


@pytest.mark.parametrize("scalar", ["integer", "rational"])
@pytest.mark.parametrize("i,j,k", [(0, 0, 0)] + [
    t for t in itertools.product(range(2), repeat=3) if t != (0, 0, 0)])
def test_lattice_group_entry_leaving_the_orthant_is_refused(i, j, k, scalar):
    dim = 1 if (i, j, k) == (0, 0, 0) else 2
    row = [0] * dim
    row[k] = -1
    text = (f"kind: lattice-group\ndim: {dim}\nscalar: {scalar}\n[tensor]\n"
            f"{i} {j} " + " ".join(map(str, row)) + "\n")
    # the validation of the orthant operation names the product that leaves it
    _expect_error(text, "<test>: operation fails biadditivity/monotonicity "
                  "validation", str(row))


def test_a_generator_product_outside_the_lattice_is_refused_on_load(tmp_path):
    # the lattice case of test_monoids' pinned validate() lists: load names
    # the first failure
    path = tmp_path / "outside.mon"
    path.write_text("kind: lattice\ndim: 2\n[generators]\n2 0\n0 1\n1 1\n0 1\n"
                    "[tensor]\n1 1 1 0\n", encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_instance(str(path))
    assert str(err.value) == (f"{path}: operation fails biadditivity/monotonicity "
                              "validation: ('generator-product-outside', 1, 1, [1, 0])")


def test_rational_function_instance():
    inst = load_instance(instance_path("rational-function.mon"))
    assert inst.kind == "rational-function"
    assert inst.function.evaluate(1) == 2  # (1 + 3) / (1 + 1)


def test_matrix_instance_operation_is_matrix_product():
    inst = load_instance(instance_path("matrix-2x2.mon"))
    op = inst.require_op()
    # (a b; c d) * (e f; g h), flattened row-major
    assert op.mu((1, 2, 3, 4), (5, 6, 7, 8)) == (19, 22, 43, 50)
    assert leq(inst.monoid, (0, 0, 0, 0), (1, 1, 1, 1))


# ---------------------------------------------------------------------------
# diagnostics


def _expect_error(text, *needles):
    with pytest.raises(InputError) as err:
        parse_instance_text(text, source="<test>")
    msg = str(err.value)
    for needle in needles:
        assert needle in msg, (msg, needle)


def test_unknown_kind_is_rejected():
    _expect_error("kind: banana\n", "kind")


def test_duplicate_header_is_located():
    _expect_error("kind: lattice\ndim: 2\ndim: 3\n", ":3:", "duplicate")


def test_unknown_header_is_rejected():
    _expect_error("kind: lattice\ndim: 2\nflavor: spicy\n[generators]\n1 0\n",
                  "flavor")


def test_unknown_section_is_rejected():
    # located at its header line, whether or not it has rows
    _expect_error("kind: lattice\ndim: 2\n[generators]\n1 0\n[frobnicators]\nx\n",
                  "<test>:5: unknown section [frobnicators]")
    _expect_error("kind: lattice\ndim: 2\n[bogus]\n\n[generators]\n1 0\n",
                  "<test>:3: unknown section [bogus]")


def test_duplicate_section_is_located():
    _expect_error(
        "kind: lattice\ndim: 2\n[generators]\n1 0\n[generators]\n0 1\n",
        "duplicate", "generators")


def test_bad_row_arity_is_located():
    _expect_error("kind: lattice\ndim: 2\n[generators]\n1 0 0\n", ":4:")


# every refusal that names a line, with the whole message: blank and
# comment lines are counted, so each line number is read off its own row
LOCATED_REFUSALS = [
    ("kind: lattice\ndim: 2\n[ ]\n", "<test>:3: empty section name"),
    ("kind: lattice\ndim: 2\nno colon here\n",
     "<test>:3: expected 'key: value' header or '[section]'"),
    ("kind: lattice\ndim: 2\ndim: 3\n", "<test>:3: duplicate header 'dim'"),
    ("kind: lattice\ndim: 2\nflavor: spicy\n[generators]\n1 0\n",
     "<test>:3: unknown header 'flavor' (expected one of ['dim', 'kind'])"),
    ("# header\nkind: banana\n",
     "<test>:2: unknown kind 'banana' (expected one of ['finite', 'lattice', "
     "'open-cone', 'lattice-group', 'rational-function'])"),
    ("kind: lattice\ndim: 2\n[generators]\n1 0\n[generators]\n0 1\n",
     "<test>:5: duplicate section [generators]"),
    ("kind: lattice\ndim: 2\n[generators]\n1 0\n[frobnicators]\nx\n",
     "<test>:5: unknown section [frobnicators] (expected one of "
     "['generators', 'tensor'])"),
    ("kind: lattice\ndim: 2\n[generators]\n1 0\n\n1 0 0\n",
     "<test>:6: expected 2 entries in [generators], got 3"),
    ("kind: lattice\ndim: 2\n[generators]\n1 0\n1 y\n",
     "<test>:5: expected an integer, got 'y'"),
    ("kind: open-cone\ndim: 2\n[rays]\n1 0\n[open-normals]\n1 0 0\n",
     "<test>:6: expected 2 entries in [open-normals], got 3"),
    ("kind: lattice\ndim: 1\n[generators]\n1\n[tensor]\n0 0 1\n\n0 0 1 1\n",
     "<test>:8: tensor rows are 'i j t_1 .. t_1' (3 entries), got 4"),
    ("kind: lattice\ndim: 1\n[generators]\n1\n[tensor]\n# first\n0 1 1\n",
     "<test>:7: tensor indices must be in 0..0"),
    ("kind: lattice\ndim: 1\n[generators]\n1\n[tensor]\n0 0 1\n0 0 2\n",
     "<test>:7: duplicate tensor row for pair (0, 0)"),
    ("kind: lattice\ndim: 1\n[generators]\n1\n[tensor]\n0 z 1\n",
     "<test>:6: expected an integer, got 'z'"),
    ("kind: finite\nnames: z a\n[add]\nz a\na\n", "<test>:5: expected 2 entries, got 1"),
    ("kind: finite\nnames: z a\n[add]\nz a\na q\n", "<test>:5: unknown element name 'q'"),
]


@pytest.mark.parametrize("text, message", LOCATED_REFUSALS)
def test_each_located_refusal_names_its_line(text, message):
    with pytest.raises(InputError) as err:
        parse_instance_text(text, source="<test>")
    assert str(err.value) == message


def test_a_lattice_group_dimension_refusal_names_its_source():
    with pytest.raises(InputError) as err:
        parse_instance_text("kind: lattice-group\ndim: 0\n[tensor]\n0 0\n",
                            source="<test>")
    assert str(err.value) == "<test>: dimension must be positive"


def test_missing_required_section():
    _expect_error("kind: lattice\ndim: 2\n", "generators")


def test_tensor_duplicate_pair_is_rejected():
    _expect_error(
        "kind: lattice\ndim: 1\n[generators]\n1\n[tensor]\n0 0 1\n0 0 2\n",
        "duplicate")


def test_tensor_index_out_of_range():
    _expect_error(
        "kind: lattice\ndim: 1\n[generators]\n1\n[tensor]\n0 1 1\n",
        "must be in")


def test_huge_dim_fails_on_the_tensor_rows_before_allocating():
    _expect_error(
        "kind: lattice-group\ndim: 99999999999\n[tensor]\n0 0 1 0\n",
        ":4:", "tensor rows are")


def test_empty_tensor_section_is_rejected():
    _expect_error("kind: lattice-group\ndim: 99999999999\n[tensor]\n",
                  "[tensor] must not be empty")
    _expect_error("kind: lattice\ndim: 1\n[generators]\n1\n[tensor]\n",
                  "[tensor] must not be empty")


def test_empty_open_cone_geometry_is_rejected():
    _expect_error("kind: open-cone\ndim: 99999999999\n[inequalities]\n",
                  "[inequalities] must not be empty")
    _expect_error("kind: open-cone\ndim: 2\n[rays]\n", "[rays] must not be empty")
    # the whole space is one zero row, which the cone drops
    inst = parse_instance_text("kind: open-cone\ndim: 2\n[inequalities]\n0 0\n",
                               source="<test>")
    assert inst.monoid.cone.h_rep == [] and inst.monoid.contains((-1, 5))


def test_open_cone_needs_exactly_one_geometry():
    base = "kind: open-cone\ndim: 2\n"
    _expect_error(base, "rays")
    _expect_error(base + "[rays]\n1 0\n[inequalities]\n1 0\n", "exactly one")


def test_finite_mu_must_be_biadditive():
    text = ("kind: finite\nnames: z a\n"
            "[add]\nz a\na z\n"
            "[mu]\na a\na a\n")
    _expect_error(text, "biadditivity")


def test_non_monoid_table_is_rejected():
    text = "kind: finite\nnames: z a\n[add]\na a\na a\n"
    _expect_error(text, "neutral")


def test_comments_and_blank_lines_are_ignored():
    inst = parse_instance_text(
        "# a comment\nkind: lattice\n\ndim: 1\n[generators]\n# inside\n2\n",
        source="<test>")
    assert inst.monoid.generators == ((2,),)
