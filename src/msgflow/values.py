"""Exact scalar values carried on edges.

Transmissions are ints, ``fractions.Fraction``s, complex numbers with exact
rational real/imaginary parts (:class:`ComplexQ`), or tuples thereof (built by
the ``concat`` operator).  All arithmetic stays exact; a :class:`ComplexQ`
whose imaginary part cancels to zero is normalized back to a plain rational,
and a rational of denominator 1 is an int, whether it is read from JSON (a
constant or a support value) or computed by arithmetic, so that equality,
hashing and the bit and integer operators behave uniformly across types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import ExpressionTypeError, NonAffineError, SpecParseError


@dataclass(frozen=True)
class ComplexQ:
    """A complex number with exact rational parts.  ``im`` is never zero."""

    re: Fraction
    im: Fraction

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}j"

    def __repr__(self) -> str:
        return f"ComplexQ({self.re!r}, {self.im!r})"


class Affine:
    """An exact affine form ``const + sum(coeffs[x] * x)`` over base variables.

    ``Affine(x)`` is the base variable x.  Sums, differences and negations
    of forms and rationals are forms, and so are products in which one
    factor reads no variable; any other product raises NonAffineError.
    No coefficient is zero.
    """

    __slots__ = ("const", "coeffs")

    def __init__(self, var) -> None:
        self.const = Fraction(0)
        self.coeffs = {var: Fraction(1)}

    @staticmethod
    def _of(const, coeffs: dict) -> "Affine":
        a = object.__new__(Affine)
        a.const = Fraction(const)
        a.coeffs = {x: c for x, c in coeffs.items() if c != 0}
        return a

    def __add__(self, other):
        if isinstance(other, Affine):
            coeffs = dict(self.coeffs)
            for x, c in other.coeffs.items():
                coeffs[x] = coeffs.get(x, 0) + c
            return Affine._of(self.const + other.const, coeffs)
        if isinstance(other, (int, Fraction)):
            return Affine._of(self.const + other, self.coeffs)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return Affine._of(-self.const, {x: -c for x, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Affine):
            if self.coeffs and other.coeffs:
                raise NonAffineError("product of two non-constant affine forms")
            form, k = (self, other.const) if self.coeffs else (other, self.const)
        elif isinstance(other, (int, Fraction)):
            form, k = self, other
        else:
            return NotImplemented
        return Affine._of(form.const * k, {x: c * k for x, c in form.coeffs.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        terms = "".join(f" + {c}*{x}" for x, c in self.coeffs.items())
        return f"Affine({self.const}{terms})"


Scalar = int | Fraction | ComplexQ
Value = Scalar | tuple


def make_complex(re, im) -> Scalar:
    """Build an exact complex scalar, demoting to a rational when im == 0."""
    re, im = Fraction(re), Fraction(im)
    if im == 0:
        return _demote(re)
    return ComplexQ(re, im)


def _demote(x):
    """A Fraction of denominator 1 as an int; any other value unchanged."""
    return int(x) if isinstance(x, Fraction) and x.denominator == 1 else x


def _parts(v: Scalar) -> tuple[Fraction, Fraction]:
    if isinstance(v, ComplexQ):
        return v.re, v.im
    if isinstance(v, (int, Fraction)):
        return Fraction(v), Fraction(0)
    raise ExpressionTypeError(f"not a numeric scalar: {v!r}")


_REAL = (int, Fraction, float, Affine)  # float: gaussian sampling; Affine: linear_propagate


def vadd(a: Scalar, b: Scalar) -> Scalar:
    if isinstance(a, _REAL) and isinstance(b, _REAL):
        return _demote(a + b)
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    return make_complex(ar + br, ai + bi)


def vsub(a: Scalar, b: Scalar) -> Scalar:
    if isinstance(a, _REAL) and isinstance(b, _REAL):
        return _demote(a - b)
    return vadd(a, vneg(b))


def vneg(a: Scalar) -> Scalar:
    if isinstance(a, _REAL):
        return _demote(-a)
    ar, ai = _parts(a)
    return make_complex(-ar, -ai)


def vmul(a: Scalar, b: Scalar) -> Scalar:
    if isinstance(a, _REAL) and isinstance(b, _REAL):
        return _demote(a * b)
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    return make_complex(ar * br - ai * bi, ar * bi + ai * br)


def require_bit(v: Value, op: str) -> int:
    if isinstance(v, int) and v in (0, 1):
        return v
    raise ExpressionTypeError(f"{op} needs a 0/1 value, got {v!r}")


def require_int(v: Value, op: str) -> int:
    if isinstance(v, int):
        return v
    raise ExpressionTypeError(f"{op} needs an integer value, got {v!r}")


def value_to_json(v: Value):
    """Encode a value for the JSON system format."""
    if isinstance(v, bool):
        raise ExpressionTypeError("booleans are not transmission values")
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return fraction_to_json(v)
    if isinstance(v, ComplexQ):
        return {"re": fraction_to_json(v.re), "im": fraction_to_json(v.im)}
    if isinstance(v, tuple):
        return {"tuple": [value_to_json(x) for x in v]}
    raise ExpressionTypeError(f"cannot serialize value {v!r}")


def fraction_to_json(x: Fraction) -> list:
    """Encode a rational as ``[num, den]``, the one form every document uses."""
    return [x.numerator, x.denominator]


def fraction_from_json(obj, what: str = "rational") -> Fraction:
    """Decode ``[num, den]``: exactly two JSON integers (a JSON boolean is
    none), the denominator nonzero; anything else is a SpecParseError."""
    ints = isinstance(obj, list) and len(obj) == 2 and all(type(x) is int for x in obj)
    if not ints or obj[1] == 0:
        raise SpecParseError(f"{what} must be [num, den], two integers, den != 0: {obj!r}")
    return Fraction(obj[0], obj[1])


def value_from_json(obj) -> Value:
    """Decode a value from the JSON system format; a malformed one (a JSON
    boolean, a float, a string) is a SpecParseError."""
    if type(obj) is int:
        return obj
    if isinstance(obj, list):
        return _demote(fraction_from_json(obj))
    if isinstance(obj, dict):
        if "tuple" in obj:
            return tuple(value_from_json(x) for x in obj["tuple"])
        if "re" in obj and "im" in obj:
            return make_complex(fraction_from_json(obj["re"]), fraction_from_json(obj["im"]))
    raise SpecParseError(f"cannot parse value {obj!r}")


def value_str(v: Value) -> str:
    """Compact display form, also used for CSV cells."""
    if isinstance(v, tuple):
        return "(" + ";".join(value_str(x) for x in v) + ")"
    return str(v)


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte: the text
    of every JSON document the package writes.  One recursion appends to one
    list, where the stdlib's indented encoder resumes a generator per level
    for every chunk.  A NaN or infinite float raises ValueError, as
    ``allow_nan=False`` would; a non-string key or another type, TypeError."""
    parts: list[str] = []
    _json_parts(doc, "\n", parts)
    return "".join(parts)


def _json_parts(x, outer: str, parts: list) -> None:
    if isinstance(x, str):
        parts.append(_quote(x))
    elif isinstance(x, dict):
        sep, pad = "{", outer + "  "
        for k in sorted(x):
            if not isinstance(k, str):
                raise TypeError(f"JSON keys are strings, got {k!r}")
            parts += (sep, pad, _quote(k), ": ")
            _json_parts(x[k], pad, parts)
            sep = ","
        parts.append(outer + "}" if x else "{}")
    elif isinstance(x, (list, tuple)):
        sep, pad = "[", outer + "  "
        for item in x:
            parts += (sep, pad)
            _json_parts(item, pad, parts)
            sep = ","
        parts.append(outer + "]" if x else "[]")
    elif x is None:
        parts.append("null")
    elif x is True or x is False:
        parts.append("true" if x else "false")
    elif isinstance(x, int):
        parts.append(int.__repr__(x))
    elif isinstance(x, float) and math.isfinite(x):
        parts.append(float.__repr__(x))
    elif isinstance(x, float):
        raise ValueError(f"JSON has no {x!r}")
    else:
        raise TypeError(f"{type(x).__name__} is not a JSON value")
