"""Exact scalar arithmetic: rationals, quadratic extensions and their residues.

Every value in the library bottoms out here.  ``QuadExt`` is the universal
scalar: an exact element ``a + b*sqrt(d)`` with rational components over a
fixed square-free radicand, so that integer points, rational points and the
quadratic points (sqrt(2), sqrt(3), sqrt(5), golden ratio) all live in one
type.  The residue of a value mod m is a ``QuadExt`` too, with int components
in [0, m): ``reduce_mod`` and ``sequences._unlift`` build it.  ``ModInt`` is an
empty placeholder kept for a lookup by name (see its docstring).

An exact rational -- a ``QuadExt`` component here, a polynomial coefficient
in ``polynomials`` -- is stored as a plain ``int`` when it is integral and as
a ``Fraction`` only when it is not.  ``_canon`` is the one place that makes
this choice; almost every value the library meets is integral, and ``int``
arithmetic is two orders of magnitude faster than ``Fraction`` arithmetic.
Results that must be rational by contract (``norm``, ``as_fraction``) are
still returned as ``Fraction``.

All scalars are immutable; no operation mutates its operands.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Union

RationalLike = Union[int, Fraction, "QuadExt"]
Rational = Union[int, Fraction]


def _canon(x: int | Fraction) -> Rational:
    """The canonical exact rational: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class RingMismatchError(ValueError):
    """Quadratic operands belong to incompatible rings: their radicands differ."""


class LocalizationError(ValueError):
    """A denominator shares a factor with the modulus, so reduction mod m
    is undefined."""


class ScalarParseError(ValueError):
    """Malformed scalar text; ``pos`` is the offset of the first bad char."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# is_square_free trial-divides up to sqrt(d); a square-free d near 2^40 takes about 0.3 s
RADICAND_MAX = 2**40


def is_square_free(d: int) -> bool:
    """Whether d >= 0 has no square factor; ValueError above RADICAND_MAX."""
    if d < 0:
        return False
    if d > RADICAND_MAX:
        raise ValueError(f"radicand of {d.bit_length()} bits is above the cap {RADICAND_MAX}")
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


class QuadExt:
    """Exact element ``a + b*sqrt(d)`` with rational a, b and square-free d >= 0.

    d in {0, 1} is canonicalized to the rational subring (b folded into a),
    and b == 0 forces d == 0, so the representation is unique.  Each
    component is an ``int`` when integral and a ``Fraction`` otherwise (see
    ``_canon``).  Values with d == 0 interoperate with any radicand; two
    genuinely quadratic values combine only when their radicands match.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 0) -> None:
        if isinstance(a, QuadExt) or isinstance(b, QuadExt):
            raise TypeError("components must be int or Fraction, not QuadExt")
        a = _canon(a)
        b = _canon(b)
        if d == 1:
            a, b, d = _canon(a + b), 0, 0
        if d == 0 or b == 0:
            b, d = 0, 0
        elif not is_square_free(d):
            raise ValueError(f"radicand {d} is not square-free and nonnegative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadExt is immutable")

    @classmethod
    def sqrt(cls, d: int) -> QuadExt:
        return cls(0, 1, d)

    @staticmethod
    def _coerce(x: object) -> QuadExt | None:
        if type(x) is QuadExt:
            return x
        if isinstance(x, (int, Fraction)):
            return _result(x, 0, 0)
        return None

    def _common_d(self, other: QuadExt) -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise RingMismatchError(
            f"cannot combine sqrt({self.d}) with sqrt({other.d})"
        )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: object) -> QuadExt:
        if type(other) is int:
            return _result(self.a + other, self.b, self.d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _result(self.a + o.a, self.b + o.b, self._common_d(o))

    __radd__ = __add__

    def __neg__(self) -> QuadExt:
        return _result(-self.a, -self.b, self.d)

    def __sub__(self, other: object) -> QuadExt:
        if type(other) is int:
            return _result(self.a - other, self.b, self.d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _result(self.a - o.a, self.b - o.b, self._common_d(o))

    def __rsub__(self, other: object) -> QuadExt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> QuadExt:
        if type(other) is int:
            return _result(self.a * other, self.b * other, self.d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_d(o)
        if d == 0:
            return _result(self.a * o.a, 0, 0)
        return _result(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def __pow__(self, e: int) -> QuadExt:
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result = _result(1, 0, 0)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> QuadExt:
        n = _canon(self.norm())
        if n == 0:
            raise ZeroDivisionError("inverse of zero quadratic element")
        # Fraction(x, n), not x / n: two int operands would give a float
        return _result(Fraction(self.a, n), Fraction(-self.b, n), self.d)

    def __truediv__(self, other: object) -> QuadExt:
        if type(other) is int:
            # Fraction(x, 0) raises ZeroDivisionError
            return _result(Fraction(self.a, other), Fraction(self.b, other), self.d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> QuadExt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> QuadExt:
        return _result(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 - b^2 d; zero exactly when the element is zero."""
        return Fraction(self.a * self.a - self.b * self.b * self.d)

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    @property
    def is_integral(self) -> bool:
        """True when both components are rational integers."""
        return type(self.a) is int and type(self.b) is int

    def as_fraction(self) -> Fraction:
        if self.d != 0:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.a)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and (self.b == 0 or self.d == o.d)

    def __hash__(self) -> int:
        if self.d == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self) -> str:
        return format_scalar(self)


_new = object.__new__
_set_a = QuadExt.a.__set__
_set_b = QuadExt.b.__set__
_set_d = QuadExt.d.__set__


def _result(a: Rational, b: Rational, d: int) -> QuadExt:
    """QuadExt from the components of a ring operation on canonical operands.

    Such components are ints or Fractions and d is a valid radicand, so
    ``__init__``'s type and square-free checks are skipped; only the two
    canonical forms are restored: integral Fractions become ints, and
    b == 0 forces d == 0.
    """
    if type(a) is not int and a.denominator == 1:
        a = a.numerator
    if not b:
        b = d = 0
    elif type(b) is not int and b.denominator == 1:
        b = b.numerator
    x = _new(QuadExt)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


SQRT2 = QuadExt.sqrt(2)
SQRT3 = QuadExt.sqrt(3)
SQRT5 = QuadExt.sqrt(5)
GOLDEN = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)


def divides_int(m: int, x: RationalLike) -> bool:
    """Whether the integer m >= 2 divides x: whether ``reduce_mod(x, m)`` is 0.

    A denominator of x must be coprime to m; otherwise the question has no
    answer in the localization and LocalizationError is raised.
    """
    return not reduce_mod(x, m)


def _localized(x: RationalLike, m: int) -> tuple[QuadExt, int]:
    """x and the lcm q of its denominators, with ``reduce_mod``'s checks of m."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    xq = QuadExt._coerce(x)
    if xq is None:
        raise TypeError(f"cannot reduce {type(x).__name__}")
    q = lcm(xq.a.denominator, xq.b.denominator)
    if gcd(q, m) != 1:
        raise LocalizationError(f"denominator {q} shares a factor with {m}")
    return xq, q


def reduce_mod(x: RationalLike, m: int) -> QuadExt:
    """The residue of x mod m: a QuadExt with int components in [0, m), and
    d = 0 when the sqrt(d) part vanishes mod m.

    x = (u + v*sqrt(d)) / q with integers u, v and q > 0 minimal; q must be
    coprime to m, and the residue is u/q + v/q*sqrt(d) with 1/q the inverse
    of q mod m.  It is computed from x alone, not through the lift that
    every modular kernel shares, so it is their independent reference.
    """
    xq, q = _localized(x, m)
    qinv = pow(q, -1, m)
    u, v = (c.numerator * (q // c.denominator) for c in (xq.a, xq.b))
    return _result(u * qinv % m, v * qinv % m, xq.d)


class ModInt:
    """Empty placeholder: no residue type but ``QuadExt`` exists.

    ``perfbench/layers.py`` (``Tracer.install``) still looks this class up by
    name and wraps only the methods in ``vars(cls)``; with none here, its
    ``scalars.modint_ops`` and ``scalars.modint_s`` read 0.  It goes together
    with that lookup.
    """


# -- canonical text form ------------------------------------------------------
#
# Scalars print as `a/b+c/e*sqrt(d)` with zero parts omitted, e.g. `3`,
# `-1-1*sqrt(2)`, `1/2+1/2*sqrt(5)`.  Parsing round-trips bit-exactly.

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<num>\d+)\s*(?:/\s*(?P<den>\d+))?\s*(?:\*\s*sqrt\(\s*(?P<rad1>\d+)\s*\))?"
    r"|sqrt\(\s*(?P<rad2>\d+)\s*\))"
)


def format_scalar(x: RationalLike) -> str:
    xq = QuadExt._coerce(x)
    if xq is None:
        raise TypeError(f"cannot format {type(x).__name__}")
    if xq.b == 0:
        return str(xq.a)
    root = f"{xq.b}*sqrt({xq.d})"
    if xq.a == 0:
        return root
    sep = "+" if xq.b > 0 else ""
    return f"{xq.a}{sep}{root}"


def parse_scalar(text: str) -> QuadExt:
    """Parse the canonical scalar text form back into a QuadExt."""
    rational = Fraction(0)
    coeff = Fraction(0)
    radicand: int | None = None
    pos = 0
    first = True
    stripped_end = len(text.rstrip())
    while pos < stripped_end:
        m = _TERM_RE.match(text, pos)
        if m is None:
            raise ScalarParseError("expected a term like '3', '1/2' or '1*sqrt(2)'", pos)
        if m.group("sign") is None and not first:
            raise ScalarParseError("expected '+' or '-' between terms", pos)
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("rad2") is not None:
            value = Fraction(1)
            rad = int(m.group("rad2"))
        else:
            num = int(m.group("num"))
            den = int(m.group("den")) if m.group("den") else 1
            if den == 0:
                raise ScalarParseError("zero denominator", pos)
            value = Fraction(num, den)
            rad = int(m.group("rad1")) if m.group("rad1") else None
        if rad is not None and rad > 1:
            if not is_square_free(rad):
                raise ScalarParseError(f"radicand {rad} is not square-free", pos)
            if radicand is not None and radicand != rad:
                raise ScalarParseError(
                    f"mixed radicands {radicand} and {rad}", pos
                )
            radicand = rad
            coeff += sign * value
        elif rad != 0:  # c*sqrt(0) contributes nothing; c*sqrt(1) is rational
            rational += sign * value
        pos = m.end()
        first = False
    if first:
        raise ScalarParseError("empty scalar", 0)
    if radicand is None or coeff == 0:
        return QuadExt(rational)
    return QuadExt(rational, coeff, radicand)
