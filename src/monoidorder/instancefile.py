"""Plain-text instance files for monoids, operations, and function-field inputs.

Grammar (diff-friendly, line-oriented):

* ``#`` starts a comment; blank lines are ignored.
* Header lines ``key: value`` come first; ``kind`` is mandatory and one of
  ``finite``, ``lattice``, ``open-cone``, ``lattice-group``,
  ``rational-function``.
* ``[section]`` opens a row table; each following line is one row of
  whitespace-separated tokens.  Numeric tokens are integers or rationals
  written ``p/q``.

Per kind:

``finite``
    header ``names: a b c`` (element names; the first is the neutral
    element), section ``[add]`` with one row per left operand giving the
    sums by name, optional section ``[mu]`` in the same shape.

``lattice``
    header ``dim: d``, section ``[generators]`` with integer rows,
    optional ``[tensor]`` rows ``i j t_1 .. t_d`` meaning the basis
    product e_i * e_j has those coordinates (missing pairs are zero; a
    ``[tensor]`` section lists at least one row).  At least one generator
    row is nonzero (the trivial monoid is refused).

``open-cone``
    header ``dim: d``, section ``[rays]`` (closed-cone generators) or
    ``[inequalities]`` (closed-cone normals; the whole space is one zero
    row), optional ``[open-normals]`` rows marking faces removed except at
    the apex, optional ``[tensor]``.  Neither section may be empty.

``lattice-group``
    header ``dim: d``, optional header ``scalar: integer|rational``,
    section ``[tensor]`` rows ``i j t_1 .. t_d`` with nonnegative entries.
    The operation is loaded as ``op`` on the positive orthant of ``Z^d``
    or ``Q^d``, the positive cone of the coordinatewise lattice group, so
    elements are written as on a lattice or an open cone.  The orthant
    is fixed by the kind, so the carrier commands (``order``,
    ``grothendieck``, ``extremals``) refuse it.

``rational-function``
    header ``expression: (x^4+3)/(x^2+1)``.

Errors carry ``source:line:`` positions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .core import InputError, Record, vdot
from .exactmath import RationalCone
from .monoids import (BiadditiveOp, FiniteMonoid, LatticeMonoid,
                      OpenConeMonoid, orthant)

KINDS = ("finite", "lattice", "open-cone", "lattice-group", "rational-function")


class Instance(Record):
    """A parsed and validated instance file."""

    _fields = ("kind", "source", "monoid", "op", "function")

    def __init__(self, kind: str, source: str, monoid: object = None,
                 op: Optional[BiadditiveOp] = None, function: object = None):
        self.kind = kind
        self.source = source
        self.monoid = monoid
        self.op = op
        self.function = function  # a formallyreal.RationalFunction

    def require_op(self) -> BiadditiveOp:
        if self.op is None:
            raise InputError(
                f"{self.source}: this command needs an operation "
                "([mu] or [tensor] section)")
        return self.op

    def describe(self) -> dict:
        out = {"kind": self.kind, "source": self.source}
        if self.kind == "finite":
            out["size"] = self.monoid.n
            out["names"] = list(self.monoid.names)
        elif self.kind == "lattice":
            out["dim"] = self.monoid.dim
            out["generators"] = [list(g) for g in self.monoid.generators]
        elif self.kind == "open-cone":
            out["dim"] = self.monoid.dim
            out["closed_rays"] = [list(r) for r in self.monoid.rays]
            out["open_normals"] = [list(n) for n in self.monoid.open_normals]
        elif self.kind == "lattice-group":
            out["dim"] = self.monoid.dim
            out["scalar"] = self.monoid.scalar
        elif self.kind == "rational-function":
            out["expression"] = self.function.text()
        out["has_operation"] = self.op is not None
        return out


class _Raw(Record):
    """The tokens of one file, filled in by :func:`_tokenize`."""

    _fields = ("source", "headers", "header_lines", "sections", "section_lines",
               "section_starts")

    def __init__(self, source: str):
        self.source = source
        self.headers = {}
        self.header_lines = {}
        self.sections = {}
        self.section_lines = {}
        self.section_starts = {}  # name -> header line



def _tokenize(raw_text: str, source: str) -> _Raw:
    raw = _Raw(source)
    current = None
    for lineno, line in enumerate(raw_text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            current = body[1:-1].strip()
            if not current:
                raise InputError(f"{source}:{lineno}: empty section name")
            if current in raw.sections:
                raise InputError(f"{source}:{lineno}: duplicate section "
                                 f"[{current}]")
            raw.sections[current] = []
            raw.section_lines[current] = []
            raw.section_starts[current] = lineno
            continue
        if current is None:
            if ":" not in body:
                raise InputError(
                    f"{source}:{lineno}: expected 'key: value' header or "
                    "'[section]'")
            key, value = body.split(":", 1)
            key = key.strip()
            if key in raw.headers:
                raise InputError(f"{source}:{lineno}: duplicate header "
                                 f"{key!r}")
            raw.headers[key] = value.strip()
            raw.header_lines[key] = lineno
        else:
            raw.sections[current].append(body.split())
            raw.section_lines[current].append(lineno)
    return raw


def _int_token(tok: str, where: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise InputError(f"{where}: expected an integer, got {tok!r}") from None


def _rat_token(tok: str, where: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise InputError(
            f"{where}: expected an integer or rational p/q, got {tok!r}") from None


def _need_header(raw: _Raw, key: str) -> str:
    if key not in raw.headers:
        raise InputError(f"{raw.source}: missing required header {key!r}")
    return raw.headers[key]


def _need_section(raw: _Raw, name: str):
    if name not in raw.sections:
        raise InputError(f"{raw.source}: missing required section [{name}]")
    return raw.sections[name]


def _check_known(raw: _Raw, headers, sections):
    for key in raw.headers:
        if key not in headers:
            raise InputError(
                f"{raw.source}:{raw.header_lines[key]}: unknown header "
                f"{key!r} (expected one of {sorted(headers)})")
    for name in raw.sections:
        if name not in sections:
            raise InputError(
                f"{raw.source}:{raw.section_starts[name]}: unknown section [{name}] "
                f"(expected one of {sorted(sections)})")


def _int_rows(raw: _Raw, name: str, width: Optional[int] = None):
    rows = []
    for row, lineno in zip(raw.sections[name], raw.section_lines[name]):
        where = f"{raw.source}:{lineno}"
        if width is not None and len(row) != width:
            raise InputError(
                f"{where}: expected {width} entries in [{name}], got {len(row)}")
        rows.append(tuple(_int_token(t, where) for t in row))
    return rows


def _tensor_rows(raw: _Raw, dim: int):
    """The dense ``dim`` x ``dim`` x ``dim`` table of the sparse [tensor]
    rows, None when the file has no [tensor] section.

    Every row is read and checked before the table is allocated, so a
    ``dim`` that no row matches, or a section without rows, is an input
    error rather than an allocation of ``dim**3`` zeros.
    """
    if "tensor" not in raw.sections:
        return None
    rows = {}
    for row, lineno in zip(raw.sections["tensor"], raw.section_lines["tensor"]):
        where = f"{raw.source}:{lineno}"
        if len(row) != 2 + dim:
            raise InputError(
                f"{where}: tensor rows are 'i j t_1 .. t_{dim}' "
                f"({2 + dim} entries), got {len(row)}")
        i = _int_token(row[0], where)
        j = _int_token(row[1], where)
        if not (0 <= i < dim and 0 <= j < dim):
            raise InputError(f"{where}: tensor indices must be in 0..{dim - 1}")
        if (i, j) in rows:
            raise InputError(f"{where}: duplicate tensor row for pair "
                             f"({i}, {j})")
        rows[i, j] = [_int_token(t, where) for t in row[2:]]
    if not rows:
        raise InputError(f"{raw.source}: [tensor] must not be empty")
    tensor = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), entries in rows.items():
        tensor[i][j] = entries
    return tensor


# ---------------------------------------------------------------------------
# per-kind builders


def _build_finite(raw: _Raw) -> Instance:
    _check_known(raw, {"kind", "names"}, {"add", "mu"})
    names = _need_header(raw, "names").split()
    if len(set(names)) != len(names):
        raise InputError(f"{raw.source}: duplicate element names")
    index = {nm: i for i, nm in enumerate(names)}
    n = len(names)

    def table_from(section: str):
        rows = _need_section(raw, section)
        lines = raw.section_lines[section]
        if len(rows) != n:
            raise InputError(
                f"{raw.source}: [{section}] needs {n} rows (one per element), "
                f"got {len(rows)}")
        table = []
        for row, lineno in zip(rows, lines):
            where = f"{raw.source}:{lineno}"
            if len(row) != n:
                raise InputError(
                    f"{where}: expected {n} entries, got {len(row)}")
            out = []
            for tok in row:
                if tok not in index:
                    raise InputError(
                        f"{where}: unknown element name {tok!r}")
                out.append(index[tok])
            table.append(out)
        return table

    monoid = FiniteMonoid(table_from("add"), names=names)
    op = _operation(raw, monoid, table=table_from("mu") if "mu" in raw.sections else None)
    return Instance(kind="finite", source=raw.source, monoid=monoid, op=op)


def _operation(raw: _Raw, carrier, table=None, tensor=None) -> Optional[BiadditiveOp]:
    """The operation that a [mu] ``table`` or a [tensor] ``tensor`` gives
    on the carrier, refused with the first law it breaks; None when the
    file gives neither.  Every kind loads its operation through here."""
    if table is None and tensor is None:
        return None
    op = BiadditiveOp(carrier, table=table, tensor=tensor)
    failures = op.validate()
    if failures:
        raise InputError(
            f"{raw.source}: operation fails biadditivity/monotonicity "
            f"validation: {failures[0]}")
    return op


def _build_lattice(raw: _Raw) -> Instance:
    _check_known(raw, {"kind", "dim"}, {"generators", "tensor"})
    dim = _int_token(_need_header(raw, "dim"), raw.source)
    _need_section(raw, "generators")
    gens = _int_rows(raw, "generators", width=dim)
    if not gens:
        raise InputError(f"{raw.source}: [generators] must not be empty")
    if not any(any(g) for g in gens):
        raise InputError(f"{raw.source}: [generators] needs a nonzero row")
    monoid = LatticeMonoid(dim, gens)
    return Instance(kind="lattice", source=raw.source, monoid=monoid,
                    op=_operation(raw, monoid, tensor=_tensor_rows(raw, dim)))


def _build_open_cone(raw: _Raw) -> Instance:
    _check_known(raw, {"kind", "dim"},
                 {"rays", "inequalities", "open-normals", "tensor"})
    dim = _int_token(_need_header(raw, "dim"), raw.source)
    has_rays = "rays" in raw.sections
    has_ineq = "inequalities" in raw.sections
    if has_rays == has_ineq:
        raise InputError(
            f"{raw.source}: open-cone instances need exactly one of [rays] "
            "or [inequalities]")
    if has_rays:
        rays = _int_rows(raw, "rays", width=dim)
        if not rays:
            raise InputError(f"{raw.source}: [rays] must not be empty")
        closed = RationalCone.from_rays(rays, dim)
    else:
        normals = _int_rows(raw, "inequalities", width=dim)
        if not normals:
            raise InputError(f"{raw.source}: [inequalities] must not be empty")
        closed = RationalCone.from_inequalities(normals, dim)
    if not closed.v_rep:
        raise InputError(f"{raw.source}: the closed cone is only the origin")
    open_normals = _int_rows(raw, "open-normals", width=dim) \
        if "open-normals" in raw.sections else []
    monoid = OpenConeMonoid(closed, open_normals)
    for n in monoid.open_normals:
        if not any(vdot(n, r) for r in closed.v_rep):
            # an implicit equality of a lower-dimensional cone
            raise InputError(f"{raw.source}: open normal {list(n)} vanishes on "
                             "the whole closed cone, which leaves only the origin")
    return Instance(kind="open-cone", source=raw.source, monoid=monoid,
                    op=_operation(raw, monoid, tensor=_tensor_rows(raw, dim)))


def _build_lattice_group(raw: _Raw) -> Instance:
    _check_known(raw, {"kind", "dim", "scalar"}, {"tensor"})
    dim = _int_token(_need_header(raw, "dim"), raw.source)
    scalar = raw.headers.get("scalar", "integer")
    if scalar not in ("integer", "rational"):
        raise InputError(
            f"{raw.source}: scalar must be 'integer' or 'rational', "
            f"got {scalar!r}")
    _need_section(raw, "tensor")
    if dim <= 0:
        raise InputError("dimension must be positive")
    tensor = _tensor_rows(raw, dim)  # read before the orthant is allocated
    op = _operation(raw, orthant(dim, scalar), tensor=tensor)
    return Instance(kind="lattice-group", source=raw.source, monoid=op.carrier, op=op)


def _build_rational_function(raw: _Raw) -> Instance:
    from .formallyreal import parse_rational_function

    _check_known(raw, {"kind", "expression"}, set())
    expr = _need_header(raw, "expression")
    try:
        fn = parse_rational_function(expr)
    except InputError as exc:
        raise InputError(f"{raw.source}: {exc}") from None
    return Instance(kind="rational-function", source=raw.source, function=fn)


_BUILDERS = {
    "finite": _build_finite,
    "lattice": _build_lattice,
    "open-cone": _build_open_cone,
    "lattice-group": _build_lattice_group,
    "rational-function": _build_rational_function,
}


def parse_instance_text(text: str, source: str = "<string>") -> Instance:
    raw = _tokenize(text, source)
    kind = _need_header(raw, "kind")
    if kind not in KINDS:
        raise InputError(
            f"{source}:{raw.header_lines.get('kind', 0)}: unknown kind "
            f"{kind!r} (expected one of {list(KINDS)})")
    return _BUILDERS[kind](raw)


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read instance file {path}: {exc}") from None
    return parse_instance_text(text, source=path)


# ---------------------------------------------------------------------------
# command-line element syntax


def parse_element(instance: Instance, text: str):
    """Parse an element argument: a name (finite) or comma-separated vector,
    of integers on an integer carrier and of rationals ``p/q`` on a
    rational one."""
    text = text.strip()
    m = instance.monoid
    if m is None:
        raise InputError(
            f"instances of kind {instance.kind!r} have no carrier elements")
    if m.names is not None:
        if text in m.names:
            return m.names.index(text)
        raise InputError(
            f"unknown element {text!r}: expected one of {list(m.names)}")
    body = text
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    toks = [t for t in body.replace(",", " ").split() if t]
    if len(toks) != m.dim:
        raise InputError(
            f"element {text!r} has {len(toks)} coordinates, expected {m.dim}")
    token = _int_token if m.scalar == "integer" else _rat_token
    return tuple(token(t, f"element {text!r}") for t in toks)


def check_membership(instance: Instance, element) -> None:
    """Raise the located membership error the order command promises."""
    monoid = instance.monoid
    if monoid is None:
        raise InputError("this instance kind has no membership test")
    if not monoid.contains(element):
        shown = ", ".join(map(str, element))  # rationals as p/q
        raise InputError(
            f"element [{shown}] is not in the monoid described by "
            f"{instance.source}")
