"""Deterministic result documents.

Reports are plain data: dicts, lists, strings, booleans, integers, and
exact rationals.  Rendering is byte-stable for identical inputs — keys are
sorted, rationals print as ``p/q``, and no clocks, hostnames, or other
environment data enter the document.  Wall-clock timing is observability,
not a result, and goes to stderr only.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .exactmath import InputError

FORMATS = ("json", "text")


def canonical(doc):
    """Copy a report document onto the JSON-safe value set.

    Fractions become ``"p/q"`` strings (plain integers stay integers),
    tuples become lists, and dict keys become strings.  Unexpected types
    are rejected rather than silently stringified.
    """
    if isinstance(doc, Fraction):
        if doc.denominator == 1:
            return int(doc)
        return f"{doc.numerator}/{doc.denominator}"
    if isinstance(doc, bool) or doc is None or isinstance(doc, (int, str)):
        return doc
    if isinstance(doc, float):
        raise _refusal(doc)
    if isinstance(doc, (list, tuple)):
        return [canonical(x) for x in doc]
    if isinstance(doc, dict):
        return {_key(k): canonical(v) for k, v in doc.items()}
    if hasattr(doc, "as_dict"):
        return canonical(doc.as_dict())
    if hasattr(doc, "describe"):
        return canonical(doc.describe())
    raise _refusal(doc)


def _refusal(doc) -> InputError:
    if isinstance(doc, float):
        return InputError(
            "floating-point values are not allowed in reports; use Fraction")
    return InputError(f"cannot serialize {type(doc).__name__} into a report")


def _key(k) -> str:
    """Flatten a dict key to a stable string: vectors join with commas."""
    if isinstance(k, (list, tuple)):
        return ",".join(_key(x) for x in k)
    flat = canonical(k)
    return flat if isinstance(flat, str) else str(flat)


def render_json(doc) -> str:
    """The JSON text of ``canonical(doc)`` with sorted keys, an indent of
    2 and ASCII escapes, written in one walk of the document: the bytes of
    ``json.dumps(canonical(doc), sort_keys=True, indent=2,
    ensure_ascii=True)`` and a newline."""
    return _json(doc, "") + "\n"


def _json(doc, pad: str) -> str:
    """The JSON text of one value that starts a line indented by ``pad``.

    The exact report types are tried first; any other value takes the
    branches of :func:`canonical` in its order, so a subclass of ``int`` or
    ``str`` prints as ``json`` prints it.  The items of a container are all
    rendered, in their order, before a dict's keys are sorted, so the
    first value ``canonical`` would refuse is the one refused here.
    """
    t = type(doc)
    if t is str:
        return _string(doc)
    if t is int:
        return repr(doc)
    if t is bool or doc is None:
        return _CONSTANTS[doc]
    if t is dict:
        return _json_dict(doc, pad)
    if t is list or t is tuple:
        return _json_list(doc, pad)
    if isinstance(doc, Fraction):
        if doc.denominator == 1:
            return repr(int(doc))
        return f'"{doc.numerator}/{doc.denominator}"'
    if isinstance(doc, int):
        return int.__repr__(doc)
    if isinstance(doc, str):
        return _string(doc)
    if isinstance(doc, float):
        raise _refusal(doc)
    if isinstance(doc, (list, tuple)):
        return _json_list(doc, pad)
    if isinstance(doc, dict):
        return _json_dict(doc, pad)
    if hasattr(doc, "as_dict"):
        return _json(doc.as_dict(), pad)
    if hasattr(doc, "describe"):
        return _json(doc.describe(), pad)
    raise _refusal(doc)


_CONSTANTS = {True: "true", False: "false", None: "null"}
_string = encode_basestring_ascii


def _json_list(doc, pad: str) -> str:
    if not doc:
        return "[]"
    inner = pad + "  "
    if all(type(x) is int for x in doc):
        items = map(repr, doc)
    else:
        items = [_json(x, inner) for x in doc]
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"


def _json_dict(doc, pad: str) -> str:
    if not doc:
        return "{}"
    return _json_join(_json_items(doc, pad + "  "), pad)


def _json_items(doc, inner: str) -> dict:
    """Each value of a dict rendered under its flattened key."""
    # a later key that flattens to an earlier one replaces its value
    return {k if type(k) is str else _key(k): _json(v, inner) for k, v in doc.items()}


def _json_join(items: dict, pad: str) -> str:
    inner = pad + "  "
    return f"{{\n{inner}" + f",\n{inner}".join(
        [f"{_string(k)}: {items[k]}" for k in sorted(items)]) + f"\n{pad}}}"


def _text_lines(value, prefix: str, out: list) -> None:
    if isinstance(value, dict):
        if not value:
            out.append(f"{prefix}: {{}}")
            return
        for key in sorted(value):
            _text_lines(value[key], f"{prefix}.{key}" if prefix else str(key),
                        out)
        return
    if isinstance(value, list):
        if not value:
            out.append(f"{prefix}: []")
            return
        for i, item in enumerate(value):
            _text_lines(item, f"{prefix}[{i}]", out)
        return
    if value is None:
        out.append(f"{prefix}: none")
    elif isinstance(value, bool):
        out.append(f"{prefix}: {'true' if value else 'false'}")
    else:
        out.append(f"{prefix}: {value}")


def render_text(doc) -> str:
    lines: list = []
    _text_lines(canonical(doc), "", lines)
    return "\n".join(lines) + "\n"


class RenderedReport(dict):
    """A report document that carries its JSON text, rendered once:
    :func:`render_report` returns that text for it under ``json``."""

    def __init__(self, doc: dict, text: str):
        super().__init__(doc)
        self.text = text


def render_json_without(doc: dict, key: str) -> tuple[str, RenderedReport]:
    """The JSON text of ``doc`` with its top-level ``key`` left out, and
    ``doc`` carrying the text of it all, from one render of each value:
    the bytes :func:`render_json` gives for each."""
    items = _json_items(doc, "  ")
    whole = _json_join(items, "") + "\n"
    del items[key]
    return (_json_join(items, "") + "\n" if items else "{}\n"), RenderedReport(doc, whole)


def render_report(doc, fmt: str = "json") -> str:
    if fmt == "json":
        return doc.text if type(doc) is RenderedReport else render_json(doc)
    if fmt == "text":
        return render_text(doc)
    raise InputError(f"unknown report format {fmt!r}; use one of {FORMATS}")


@contextmanager
def stderr_timer(label: str):
    """Print elapsed wall time to stderr; never touches the report body."""
    start = time.monotonic()
    try:
        yield
    finally:
        elapsed = time.monotonic() - start
        print(f"[timing] {label}: {elapsed:.3f}s", file=sys.stderr)
