"""Exact polynomial algebra for the symbolic checks.

``BiPoly`` holds the psi polynomial in the parameters (a, b) so the
directional-derivative identities can be verified coefficient-exactly;
``UniPoly`` carries the Chebyshev and Dickson comparisons and F1100's Taylor
coefficients, where the psi recurrence is simply run with polynomial ring
elements.

Coefficients are exact rationals in the scalar layer's canonical form: an
``int`` when integral, a ``Fraction`` otherwise (``scalars._canon``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import islice
from math import factorial
from typing import Callable, Iterator

from .scalars import QuadExt, _canon
from .sequences import (
    QPoint,
    Triangle,
    _expansion_column,
    _psi_sum,
    _psi_values,
    as_point,
    delta,
    falling_factorial,
    omega_top,
    psi_closed,
    psi_point,
)

_SCALARS = (int, Fraction)


class _Poly:
    """Ring plumbing shared by BiPoly and UniPoly: immutability, the
    operators derived from ``const``, ``__add__``, ``__neg__`` and
    ``__mul__``, and equality on the canonical ``coeffs``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = self.const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        result = self.const(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _SCALARS):
            other = self.const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)


class BiPoly(_Poly):
    """Polynomial in two variables with exact rational coefficients.

    Sparse map (i, j) -> coefficient of a^i b^j; zero coefficients are never
    stored, so equality is structural.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int | Fraction] | None = None) -> None:
        clean: dict[tuple[int, int], int | Fraction] = {}
        if coeffs:
            for key, value in coeffs.items():
                value = _canon(value)
                if value:
                    clean[key] = value
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def const(cls, c) -> BiPoly:
        return cls({(0, 0): c})

    @classmethod
    def var_a(cls) -> BiPoly:
        return cls({(1, 0): 1})

    @classmethod
    def var_b(cls) -> BiPoly:
        return cls({(0, 1): 1})

    def __add__(self, other) -> BiPoly:
        if isinstance(other, _SCALARS):
            other = BiPoly.const(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        merged = dict(self.coeffs)
        for key, value in other.coeffs.items():
            merged[key] = merged.get(key, 0) + value
        return BiPoly(merged)

    def __neg__(self) -> BiPoly:
        return BiPoly({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other) -> BiPoly:
        if isinstance(other, _SCALARS):
            c = _canon(other)
            return BiPoly({k: v * c for k, v in self.coeffs.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[tuple[int, int], int | Fraction] = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + v1 * v2
        return BiPoly(out)

    __rmul__ = __mul__

    def deriv_a(self) -> BiPoly:
        return BiPoly(
            {(i - 1, j): v * i for (i, j), v in self.coeffs.items() if i}
        )

    def deriv_b(self) -> BiPoly:
        return BiPoly(
            {(i, j - 1): v * j for (i, j), v in self.coeffs.items() if j}
        )

    def evaluate(self, a_val, b_val):
        total = a_val * 0
        for (i, j), v in self.coeffs.items():
            total = total + v * a_val**i * b_val**j
        return total

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.coeffs)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.coeffs.get((0, 0), 0))

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "BiPoly(0)"
        terms = [
            f"{v}*a^{i}*b^{j}"
            for (i, j), v in sorted(self.coeffs.items())
        ]
        return "BiPoly(" + " + ".join(terms) + ")"


class UniPoly(_Poly):
    """Dense univariate polynomial over exact rationals; index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()) -> None:
        cs = [_canon(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def const(cls, c) -> UniPoly:
        return cls([c])

    @classmethod
    def var(cls) -> UniPoly:
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __add__(self, other) -> UniPoly:
        if isinstance(other, _SCALARS):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> UniPoly:
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other) -> UniPoly:
        if isinstance(other, _SCALARS):
            c = _canon(other)
            return UniPoly([v * c for v in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, v1 in enumerate(self.coeffs):
            if not v1:
                continue
            for j, v2 in enumerate(other.coeffs):
                out[i + j] += v1 * v2
        return UniPoly(out)

    __rmul__ = __mul__

    def shifted(self, k: int) -> UniPoly:
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return UniPoly([0] * k + list(self.coeffs))

    def evaluate(self, x) -> Fraction:
        """The value at a rational x = p/q by homogeneous Horner on ints:
        sum c_i p^i q^(m-i) over the degree m, then one division by q^m."""
        p, q = x.numerator, x.denominator
        total, qpow = 0, 1
        for c in reversed(self.coeffs):
            total, qpow = total * p + c * qpow, qpow * q
        return Fraction(total * q, qpow)  # qpow = q^(m+1)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def to_text(self) -> str:
        terms = (
            str(c) if i == 0 else f"{c}*x" if i == 1 else f"{c}*x^{i}"
            for i, c in enumerate(self.coeffs) if c
        )
        return " + ".join(terms) or "0"

    def __repr__(self) -> str:
        return f"UniPoly({self.to_text()})"


# -- psi as a polynomial -------------------------------------------------------


def psi_bipoly(n: int) -> BiPoly:
    """psi(a, b, n) as an exact polynomial in (a, b), from the closed form."""
    return psi_closed(BiPoly.var_a(), BiPoly.var_b(), n)


def psi_k_poly(table: Triangle, k: int) -> BiPoly:
    """The k-th expansion of psi(a, b, n) as a polynomial in (a, b), built
    from the exact omega ``table`` of a rational point and n."""
    if not table.point.is_rational:
        raise ValueError("polynomial expansion needs a rational point")
    coeffs = [c.as_fraction() if type(c) is QuadExt else c for c in _expansion_column(table, k)]
    a = BiPoly.var_a()
    return _psi_sum(coeffs, a, 2 * a - BiPoly.var_b())


def dir_derivative(poly: BiPoly, point: QPoint | tuple, times: int = 1) -> BiPoly:
    """(alpha d/da + beta d/db)^times applied exactly."""
    point = as_point(point)
    if not point.is_rational:
        raise ValueError("directional derivative needs a rational point")
    if times < 0:
        raise ValueError("times must be nonnegative")
    al, be = point.alpha.a, point.beta.a
    for _ in range(times):
        poly = al * poly.deriv_a() + be * poly.deriv_b()
    return poly


def verify_fundamental_psi(n: int, point: QPoint | tuple) -> bool:
    """The K-fold directional derivative of the psi polynomial, scaled by
    1/K!, collapses to the constant psi at the point (K = floor(n/2))."""
    if n < 2:
        raise ValueError("n must be >= 2")
    point = as_point(point)
    K = n // 2
    collapsed = dir_derivative(psi_bipoly(n), point, K) / factorial(K)
    if not collapsed.is_constant():
        return False
    return collapsed.constant_value() == psi_point(point, n).as_fraction()


def verify_derivative_expansion(table: Triangle, k: int, base: BiPoly) -> bool:
    """Expansion polynomial from the exact omega ``table`` == (-1)^k/k! times
    the k-fold directional derivative of the psi polynomial ``base``
    (``psi_bipoly`` of the table's n) along the table's point."""
    rhs = dir_derivative(base, table.point, k) / factorial(k)
    if k & 1:
        rhs = -rhs
    return psi_k_poly(table, k) == rhs


def verify_diff_ladder(table: Triangle, r: int) -> bool:
    """Applying the directional derivative to the r-th expansion polynomial
    of the exact omega ``table`` yields -(r+1) times the (r+1)-th."""
    lhs = dir_derivative(psi_k_poly(table, r), table.point)
    return lhs == -(r + 1) * psi_k_poly(table, r + 1)


# -- Chebyshev / Dickson -------------------------------------------------------


def _three_term(p0: int, mult: UniPoly, alpha) -> Iterator[UniPoly]:
    """P_0 = p0, P_1 = x, P_{m+1} = mult P_m - alpha P_{m-1}, for m = 1, 2, ...:
    T_n from (1, 2x, 1) and D_n(x, alpha) from (2, x, alpha)."""
    prev, cur = UniPoly.const(p0), UniPoly.var()
    while True:
        yield prev
        prev, cur = cur, mult * cur - alpha * prev


# Che and Dic evaluate the omega ratio at these ten x; none is 0, so every
# evaluation point (alpha, 2 alpha - c x^2) is a nonzero point.
_EVAL_XS = tuple(Fraction(i, 4) for i in (-7, -5, -3, -1, 1, 3, 5, 7, 9, 11))


def _mirror_check(classical: Iterator[UniPoly], alpha, c: int, scale, identity=None):
    """One verdict per n = 1, 2, ...: P_n of ``classical`` against x^(d(n)) psi(alpha,
    2 alpha - c x^2, n) / scale(n) coefficient-exactly, then ``identity(n, P_n)``
    if given, then the omega ratio over scale(n) at each x of ``_EVAL_XS``.  The
    ten points (alpha, 2 alpha - c x^2) are built once, and each ratio is
    compared with P_n(x) by cross-multiplying numerators and denominators."""
    mirror = _psi_values(UniPoly.const(alpha), UniPoly([2 * alpha, 0, -c]))
    points = tuple(QPoint(alpha, 2 * alpha - c * x0 * x0) for x0 in _EVAL_XS)
    for n, (poly, mirrored) in enumerate(islice(zip(classical, mirror), 1, None), 1):
        yield partial(_mirror_verdict, n, poly, mirrored, points, scale(n), identity)


def _mirror_verdict(n, classical, mirrored, points, scale, identity) -> bool:
    if n & 1:
        mirrored = mirrored.shifted(1)
    if mirrored != classical * scale or (identity is not None and not identity(n, classical)):
        return False
    ff = falling_factorial(n) * scale
    for x0, point in zip(_EVAL_XS, points):
        # omega / ff * x0^d(n) == P_n(x0) on ints, x0 = p/q, every denominator > 0
        top, value = omega_top(point, n).a, classical.evaluate(x0)
        lhs, rhs = top.numerator * value.denominator, value.numerator * top.denominator * ff
        if n & 1:
            lhs, rhs = lhs * x0.numerator, rhs * x0.denominator
        if lhs != rhs:
            return False
    return True


def chebyshev_checks() -> Iterator[Callable[[], bool]]:
    """Che's verdicts, n = 1, 2, ...: T_n against psi(1, 2 - 4x^2, n), scale 2^(d(n-1))."""
    return _mirror_check(_three_term(1, UniPoly([0, 2]), 1), 1, 4, lambda n: 2 ** delta(n - 1))


def dickson_checks(alpha) -> Iterator[Callable[[], bool]]:
    """Dic's verdicts, n = 1, 2, ...: D_n(x, alpha) against psi(alpha, 2 alpha
    - x^2, n), scale 1, and D_n(y + alpha/y) = y^n + (alpha/y)^n at y = 1, 2, 1/2.

    D_n steps D_{m+1} = x D_m - alpha D_{m-1}, the recurrence consistent with
    the coefficient formula and that functional identity; a sometimes quoted
    2x-coefficient variant is not (it belongs to the Chebyshev family)."""
    alpha = Fraction(alpha)

    def identity(n: int, classical: UniPoly) -> bool:
        ys = (Fraction(1), Fraction(2), Fraction(1, 2))
        return all(classical.evaluate(y + alpha / y) == y**n + (alpha / y) ** n for y in ys)

    return _mirror_check(_three_term(2, UniPoly.var(), alpha), alpha, 1, lambda n: 1, identity)
