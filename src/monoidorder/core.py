"""The package's shared leaf: its error classes, its record base and exact
vector helpers.

Every other module reads these; this one imports nothing from the package,
so a module that needs only them (the sums-of-squares layer, the report
renderer, the command line's argument handling) loads no polyhedral code.
Vectors are tuples of ``int`` or ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Sequence


class InputError(ValueError):
    """Malformed input: dimension mismatch, non-integer entry, bad element."""


class ResourceBudgetError(RuntimeError):
    """An explicitly budgeted search exceeded its configured budget."""


class InternalCheckError(RuntimeError):
    """A redundant internal cross-check failed; indicates a genuine bug."""


class Record:
    """A record whose ``==`` and ``repr`` read the fields named in
    ``_fields``, in order, as a ``@dataclass`` with those fields would;
    built without ``dataclasses``, whose import costs a fresh command more
    than some layers do.  Records of different classes are never equal,
    and a record is unhashable unless its class defines ``__hash__``."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# vector helpers


def vadd(a, b):
    return tuple(map(add, a, b))


def vsub(a, b):
    return tuple(map(sub, a, b))


def vneg(a):
    return tuple(map(neg, a))


def vscale(c, a):
    return tuple([c * x for x in a])


def vdot(a, b):
    if len(a) != len(b):
        raise InputError(f"dot product of vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def vcombine(coeffs, vectors):
    """``sum_j coeffs[j] * vectors[j]`` over a nonempty list of vectors."""
    return tuple(sum(c * v[t] for c, v in zip(coeffs, vectors))
                 for t in range(len(vectors[0])))


def is_zero_vector(a) -> bool:
    return not any(a)


def as_int_vector(a) -> tuple[int, ...]:
    """Clear denominators and return the primitive integer vector on the
    same ray as ``a`` (entries ``int``, ``Fraction`` or anything
    ``Fraction`` accepts); the zero vector maps to zero.

    When every entry is exactly an ``int`` there is no denominator to
    clear, and the answer is ``primitive(a)`` with no ``Fraction`` built.
    """
    a = tuple(a)
    if all(type(x) is int for x in a):
        return primitive(a)
    fracs = [x if type(x) is Fraction else Fraction(x) for x in a]
    if not any(fracs):
        return tuple(0 for _ in fracs)
    denom = lcm(*(f.denominator for f in fracs))
    return primitive([f.numerator * (denom // f.denominator) for f in fracs])


def primitive(a: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = gcd(*a)
    if g == 1:
        return tuple(a)
    if g == 0:
        return tuple(0 for _ in a)
    return tuple([x // g for x in a])
