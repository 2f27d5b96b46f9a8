"""Exact polynomial algebra for the symbolic checks.

``BiPoly`` holds the psi polynomial in the parameters (a, b) so the
directional-derivative identities can be verified coefficient-exactly;
``UniPoly`` carries the Chebyshev and Dickson comparisons, where the psi
recurrence is simply run with polynomial ring elements.

Coefficients are exact rationals in the scalar layer's canonical form: an
``int`` when integral, a ``Fraction`` otherwise (``scalars._canon``).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .scalars import QuadExt, _canon
from .sequences import (
    QPoint,
    Triangle,
    _expansion_coeff,
    _psi_sum,
    as_point,
    delta,
    falling_factorial,
    omega_table,
    omega_top,
    psi_closed,
    psi_point,
    psi_rec,
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

    def deriv(self) -> UniPoly:
        return UniPoly([c * i for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        total = x * 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self.to_text()})"


# -- psi as a polynomial -------------------------------------------------------


def psi_bipoly(n: int) -> BiPoly:
    """psi(a, b, n) as an exact polynomial in (a, b), from the closed form."""
    return psi_closed(BiPoly.var_a(), BiPoly.var_b(), n)


def psi_k_poly(
    n: int, k: int, point: QPoint | tuple, table: Triangle | None = None
) -> BiPoly:
    """The k-th expansion of psi(a, b, n) along a rational point, built from
    the omega entries, as a polynomial in (a, b)."""
    point = as_point(point)
    if not point.is_rational:
        raise ValueError("polynomial expansion needs a rational point")
    K = n // 2
    if not 0 <= k <= K:
        raise ValueError(f"k={k} outside [0, {K}] for n={n}")
    if table is None:
        table = omega_table(point, n)
    coeffs = [
        _expansion_coeff(n, r, k, table.entry(r, k)).as_fraction() for r in range(K - k + 1)
    ]
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


def verify_derivative_expansion(
    n: int,
    k: int,
    point: QPoint | tuple,
    table: Triangle | None = None,
    base: BiPoly | None = None,
) -> bool:
    """Omega-built expansion polynomial == (-1)^k/k! times the k-fold
    directional derivative of the psi polynomial."""
    lhs = psi_k_poly(n, k, point, table)
    rhs = dir_derivative(psi_bipoly(n) if base is None else base, point, k) / factorial(k)
    if k & 1:
        rhs = -rhs
    return lhs == rhs


def verify_diff_ladder(n: int, r: int, point: QPoint | tuple) -> bool:
    """Applying the directional derivative to the r-th expansion polynomial
    yields -(r+1) times the (r+1)-th."""
    if not 0 <= r < n // 2:
        raise ValueError(f"r={r} outside [0, {n // 2})")
    point = as_point(point)
    table = omega_table(point, n)
    lhs = dir_derivative(psi_k_poly(n, r, point, table), point)
    rhs = -(r + 1) * psi_k_poly(n, r + 1, point, table)
    return lhs == rhs


# -- Chebyshev / Dickson -------------------------------------------------------


def chebyshev_polynomial(n: int) -> UniPoly:
    """T_n by the classical three-term recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev, cur = UniPoly.const(1), UniPoly.var()
    if n == 0:
        return prev
    two_x = UniPoly([0, 2])
    for _ in range(n - 1):
        prev, cur = cur, two_x * cur - prev
    return cur


def dickson_polynomial(n: int, alpha) -> UniPoly:
    """D_n(x, alpha) by the recurrence D_{m+1} = x D_m - alpha D_{m-1}.

    This is the recurrence consistent with the coefficient formula and the
    functional identity D_n(y + alpha/y) = y^n + (alpha/y)^n; a sometimes
    quoted 2x-coefficient variant is not (it belongs to the Chebyshev family).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    alpha = Fraction(alpha)
    prev, cur = UniPoly.const(2), UniPoly.var()
    if n == 0:
        return prev
    x = UniPoly.var()
    for _ in range(n - 1):
        prev, cur = cur, x * cur - alpha * prev
    return cur


_DEFAULT_EVAL_XS = (Fraction(1, 2), Fraction(2), Fraction(-3, 2))


def chebyshev_check(n: int, eval_points=_DEFAULT_EVAL_XS) -> bool:
    """Classical T_n against x^(d(n)) psi(1, 2-4x^2, n) / 2^(d(n-1)),
    coefficient-exactly, plus omega-ratio evaluation at rational x values."""
    if n < 1:
        raise ValueError("n must be >= 1")
    classical = chebyshev_polynomial(n)
    b = UniPoly([2, 0, -4])
    mirrored = psi_rec(UniPoly.const(1), b, n)
    if n & 1:
        mirrored = mirrored.shifted(1)
    mirrored = mirrored / 2 ** delta(n - 1)
    if mirrored != classical:
        return False
    ff = falling_factorial(n)
    for x0 in eval_points:
        x0 = Fraction(x0)
        point = QPoint(1, 2 - 4 * x0 * x0)
        ratio = omega_top(point, n) / (ff * 2 ** delta(n - 1))
        value = ratio * x0 ** delta(n)
        if value != QuadExt(classical.evaluate(x0)):
            return False
    return True


def dickson_check(n: int, alpha, eval_points=_DEFAULT_EVAL_XS) -> bool:
    """Classical D_n(x, alpha) against x^(d(n)) psi(alpha, 2 alpha - x^2, n),
    the functional identity at rational arguments, and omega-ratio values."""
    if n < 1:
        raise ValueError("n must be >= 1")
    alpha = Fraction(alpha)
    classical = dickson_polynomial(n, alpha)
    b = UniPoly([2 * alpha, 0, -1])
    mirrored = psi_rec(UniPoly.const(alpha), b, n)
    if n & 1:
        mirrored = mirrored.shifted(1)
    if mirrored != classical:
        return False
    for y in (Fraction(1), Fraction(2), Fraction(1, 2)):
        arg = y + alpha / y
        if classical.evaluate(arg) != y**n + (alpha / y) ** n:
            return False
    ff = falling_factorial(n)
    for x0 in eval_points:
        x0 = Fraction(x0)
        if alpha == 0 and 2 * alpha - x0 * x0 == 0:
            continue
        point = QPoint(alpha, 2 * alpha - x0 * x0)
        value = (omega_top(point, n) / ff) * x0 ** delta(n)
        if value != QuadExt(classical.evaluate(x0)):
            return False
    return True
