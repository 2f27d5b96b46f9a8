"""The psi / omega / lambda sequence engines.

The sequence psi(a, b, n) is the two-parameter linear recurrence

    psi(0) = 2,  psi(1) = 1,  psi(n+1) = (2a-b)^(n mod 2) psi(n) - a psi(n-1),

and the omega table is the double-indexed triangle

    omega_r(0) = 1,
    omega_r(k) = (2z-x)(n-r-k) omega_r(k-1) - 2z (n-2r-d(n-1)) omega_{r+1}(k-1)

for a point (z, x), filled by k-levels for 0 <= r+k <= floor(n/2).  The top
entry omega_0(floor(n/2)) divided by the falling-factorial product
(n-1)(n-2)...(n-floor(n/2)) recovers psi at the point; that quotient is the
single most exercised identity in the verification suite.

The recurrence runners are generic over any ring whose elements support
arithmetic with ints (exact scalars, residues, polynomials).  One kernel,
``_triangle``, fills X_r(k) = f(k+r) X_r(k-1) + g(r) X_{r+1}(k-1) from a seed
row and the multiplier vectors f and g that each caller builds.  The omega
and lambda tables are both a ``Triangle``; they differ only in how a raw
kernel entry becomes a scalar.  ``omega_top`` and the Fibonacci companion
need only the top entry of a unit-seed triangle, which ``_unit_seed_top``
sums over the triangle's paths in floor(n/2) steps from the same f and g;
the two kernels are each other's reference.  Both keep the omega work in
native bigint arithmetic: rational points are scaled to integer multipliers
and quadratic points run on integer component pairs.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from math import comb, factorial, lcm, prod
from typing import Iterator, Union

from .scalars import ModInt, QuadExt, format_scalar, reduce_mod

Scalar = Union[int, Fraction, QuadExt]


class TheoremViolationError(ArithmeticError):
    """An identity the library verifies at runtime failed to hold."""


class KernelPointError(ValueError):
    """psi vanishes at the point, so a psi-normalized quantity is undefined."""


class DegeneratePointError(ValueError):
    """The expansion data satisfies beta*a - alpha*b == 0."""


def delta(n: int) -> int:
    """Parity indicator n mod 2."""
    return n & 1


def falling_factorial(n: int) -> int:
    """(n-1)(n-2)...(n - floor(n/2)), the universal ratio denominator."""
    return prod(range(n - n // 2, n))


def rising_product(n: int) -> int:
    """n(n+1)...(2n-1)."""
    return prod(range(n, 2 * n))


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _lucas_coeff(n: int, i: int) -> int:
    # n/(n-i) C(n-i, i); always an integer for 0 <= i <= floor(n/2)
    c = Fraction(n, n - i) * comb(n - i, i)
    if c.denominator != 1:
        raise TheoremViolationError(f"non-integral closed-form coefficient at n={n}, i={i}")
    return c.numerator


class QPoint:
    """A nonzero parameter pair (alpha, beta) over a shared radicand."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: Scalar, beta: Scalar) -> None:
        a = alpha if isinstance(alpha, QuadExt) else QuadExt(alpha)
        b = beta if isinstance(beta, QuadExt) else QuadExt(beta)
        a._common_d(b)  # raises on mismatched radicands
        if not a and not b:
            raise ValueError("point (0, 0) is not allowed")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QPoint is immutable")

    @property
    def d(self) -> int:
        return self.alpha.d or self.beta.d

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    @property
    def is_integral(self) -> bool:
        return self.alpha.is_integral and self.beta.is_integral and self.is_rational

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoint):
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    def __hash__(self) -> int:
        return hash((self.alpha, self.beta))

    def __repr__(self) -> str:
        return f"QPoint({format_scalar(self.alpha)}, {format_scalar(self.beta)})"


def as_point(point: QPoint | tuple) -> QPoint:
    if isinstance(point, QPoint):
        return point
    return QPoint(*point)


# -- psi --------------------------------------------------------------------


def psi_rec(a, b, n: int):
    """psi(a, b, n) by the defining recurrence; generic over the ring of a, b."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev = a * 0 + 2
    if n == 0:
        return prev
    cur = a * 0 + 1
    t = 2 * a - b
    for m in range(1, n):
        nxt = (t * cur if m & 1 else cur) - a * prev
        prev, cur = cur, nxt
    return cur


def psi_point(point: QPoint | tuple, n: int) -> QuadExt:
    """psi at a parameter point, returned as an exact scalar."""
    point = as_point(point)
    al, be = point.alpha, point.beta
    if point.is_rational:
        return QuadExt(psi_rec(al.a, be.a, n))
    return psi_rec(al, be, n)


def psi_closed(a, b, n: int):
    """psi(a, b, n) by the floor(n/2)-term closed form; must match psi_rec."""
    if n < 1:
        raise ValueError("closed form needs n >= 1")
    return _psi_sum([lambda_seed(n, i) for i in range(n // 2 + 1)], a, 2 * a - b)


def _psi_sum(coeffs: list, a, t):
    """sum_r coeffs[r] a^r t^(m-r), m = len(coeffs) - 1, in Horner form.

    The closed form of psi, its k-th expansions and their polynomial form
    (``polynomials.psi_k_poly``) all evaluate this sum, each with its own
    coefficients, over the ring of a and t = 2a - b.
    """
    total, apow = coeffs[0] * t**0, a
    for c in coeffs[1:]:
        total = total * t + c * apow
        apow = apow * a
    return total


def psi_pow2(a, b, s: int, modulus: int | None = None):
    """psi(a, b, 2**s) by repeated doubling from psi(2) = -b.

    With a modulus the whole chain runs on residues (s-1 modular squarings
    plus a squared power track for a), which is what the Mersenne criterion
    consumes.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if modulus is None:
        cur = -(a * 0 + b)
        apow = a * a
        for _ in range(s - 1):
            cur = cur * cur - 2 * apow
            apow = apow * apow
        return cur
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    ua, va = reduce_mod(a, modulus)
    ub, vb = reduce_mod(b, modulus)
    if va or vb:
        raise ValueError("modular doubling requires rational parameters")
    cur = ModInt(-ub, modulus)
    apow = ModInt(ua * ua, modulus)
    for _ in range(s - 1):
        cur = cur * cur - 2 * apow
        apow = apow * apow
    return cur


def product_identity_check(a, b, n: int, m: int) -> bool:
    """(2a-b)^(d(n)d(m)) psi(n) psi(m) == psi(n+m) + a^m psi(n-m)."""
    if not n >= m >= 0:
        raise ValueError("need n >= m >= 0")
    pn, pm = psi_rec(a, b, n), psi_rec(a, b, m)
    lhs = pn * pm
    if n & 1 and m & 1:
        lhs = (2 * a - b) * lhs
    rhs = psi_rec(a, b, n + m) + a**m * psi_rec(a, b, n - m)
    return lhs == rhs


# -- omega triangle ----------------------------------------------------------

_coupling_sign = -1


@contextmanager
def flipped_omega_coupling() -> Iterator[None]:
    """Fault-injection fixture: negate the coupling term of the omega
    recurrence.  Used to measure how much of the verification suite notices
    a wrong table; never enable outside tests."""
    global _coupling_sign
    _coupling_sign = 1
    try:
        yield
    finally:
        _coupling_sign = -1


def _point_multipliers(point: QPoint) -> tuple[int, tuple[int, int], tuple[int, int], int]:
    """Scale s and integer component pairs for A = s(2z-x), B = s(2z)."""
    al, be = point.alpha, point.beta
    parts = (al.a, al.b, be.a, be.b)
    s = lcm(*(c.denominator for c in parts))
    zu, zv, xu, xv = (c.numerator * (s // c.denominator) for c in parts)
    return s, (2 * zu - xu, 2 * zv - xv), (2 * zu, 2 * zv), point.d


def _triangle(seed, diag, coupling, d=None, modulus=None):
    """Fill X_r(k) = diag[k+r] X_r(k-1) + coupling[r] X_{r+1}(k-1) by levels.

    The seed row X_r(0) has K+1 entries and fixes the triangle 0 <= r+k <= K.
    Entries are ints or any ring elements that multiply with those of
    ``diag`` and ``coupling``.  With a radicand ``d``, each row, ``diag`` and
    ``coupling`` is instead a pair (u, v) of int lists for u + v sqrt(d).
    With a ``modulus`` every entry is reduced.  Returns every level.
    """
    m = modulus
    if d is not None:
        (a1, a2), (c1, c2) = diag, coupling
        a2d = [x * d for x in a2]
        c2d = [x * d for x in c2]
    levels = [seed]
    for k in range(1, len(seed[0] if d is not None else seed)):
        prev = levels[-1]
        if d is None:
            # indexing beats zip here on small rows and ties on large ones
            w = range(len(prev) - 1)
            if m is None:
                cur = [diag[k + r] * prev[r] + coupling[r] * prev[r + 1] for r in w]
            else:
                cur = [(diag[k + r] * prev[r] + coupling[r] * prev[r + 1]) % m for r in w]
        else:
            # two fused passes, one per component of
            # (p + q sqrt d)(x + y sqrt d) + (s + t sqrt d)(x2 + y2 sqrt d)
            u, v = prev
            p1, u2, v2 = a1[k:], u[1:], v[1:]
            cu = zip(p1, a2d[k:], c1, c2d, u, v, u2, v2)
            cv = zip(p1, a2[k:], c1, c2, u, v, u2, v2)
            if m is None:
                cur = (
                    [p * x + q * y + s * x2 + t * y2 for p, q, s, t, x, y, x2, y2 in cu],
                    [p * y + q * x + s * y2 + t * x2 for p, q, s, t, x, y, x2, y2 in cv],
                )
            else:
                cur = (
                    [(p * x + q * y + s * x2 + t * y2) % m for p, q, s, t, x, y, x2, y2 in cu],
                    [(p * y + q * x + s * y2 + t * x2) % m for p, q, s, t, x, y, x2, y2 in cv],
                )
        levels.append(cur)
    return levels


def _unit_seed_top(diag, coupling, d=None, modulus=None):
    """X_0(K) of ``_triangle`` from the all-ones seed row, in K steps.

    A path from seed cell (j, 0) to (0, K) picks up diag[j+1..K] on its
    diagonal steps and coupling[0..j-1] on its coupling steps in any order,
    and C(K, j) orders stay inside the triangle, so
    X_0(K) = sum_j C(K, j) coupling[0]...coupling[j-1] diag[j+1]...diag[K].
    The sum runs in Horner form; h = C(K, j) coupling[0]...coupling[j-1] is
    kept exact, since C(K, j) = C(K, j-1)(K-j+1)/j divides exactly.
    Arguments are those of ``_triangle``.
    """
    m = modulus
    if d is None:
        K = len(diag) - 1
        top = h = 1
        for j in range(1, K + 1):
            h = h * (coupling[j - 1] * (K - j + 1)) // j
            top = diag[j] * top + h
            if m is not None:
                top %= m
        return top
    (a1, a2), (c1, c2) = diag, coupling
    K = len(a1) - 1
    u, v, hu, hv = 1, 0, 1, 0
    for j in range(1, K + 1):
        s, t = c1[j - 1] * (K - j + 1), c2[j - 1] * (K - j + 1)
        hu, hv = (s * hu + t * d * hv) // j, (t * hu + s * hv) // j
        p, q = a1[j], a2[j]
        u, v = p * u + q * d * v + hu, p * v + q * u + hv
        if m is not None:
            u, v = u % m, v % m
    return u, v


class Triangle:
    """The triangle X_r(k), 0 <= r+k <= floor(n/2), that ``_triangle`` filled.

    ``scalar(raw, k)`` turns a raw entry of level k (an int, a ring element,
    or a (u, v) pair over sqrt(d) when the level is a pair of lists) into the
    value ``entry`` returns.  Exact omega and lambda tables yield QuadExt;
    modular omega tables yield ModInt at rational points and
    componentwise-residue QuadExt at quadratic points (``modulus`` qualifies
    those components).
    """

    def __init__(self, point: QPoint, n: int, levels: list, scalar, modulus: int | None = None):
        self.point = point
        self.n = n
        self.modulus = modulus
        self.K = n // 2
        self._levels = levels
        self._scalar = scalar

    def entry(self, r: int, k: int):
        if k < 0 or r < 0 or r + k > self.K:
            raise IndexError(f"(r={r}, k={k}) outside triangle for n={self.n}")
        level = self._levels[k]
        return self._scalar((level[0][r], level[1][r]) if type(level) is tuple else level[r], k)

    def top(self):
        """X_0(floor(n/2)); for omega, the numerator of the fundamental ratio."""
        return self.entry(0, self.K)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "point": [format_scalar(self.point.alpha), format_scalar(self.point.beta)],
            "modulus": self.modulus,
            "entries": [
                [r, k, format_scalar_entry(self.entry(r, k))]
                for k in range(self.K + 1)
                for r in range(self.K - k + 1)
            ],
        }


def format_scalar_entry(value) -> str:
    if isinstance(value, ModInt):
        return str(value.residue)
    return format_scalar(value)


def _omega_scalar(d: int, modulus: int | None, scale: int, raw, k: int):
    """A kernel entry of level k as the omega table's scalar; ``raw`` is an
    int or a (u, v) pair over sqrt(d) and carries the point's scale to the
    power k."""
    scale_k = scale**k
    if type(raw) is tuple:
        u, v = raw
        if scale_k != 1:
            u, v = Fraction(u, scale_k), Fraction(v, scale_k)
        return QuadExt(u, v, d)
    if modulus is not None:
        return ModInt(raw, modulus)
    return QuadExt(raw if scale_k == 1 else Fraction(raw, scale_k))


def _omega_vectors(point: QPoint, n: int, modulus: int | None):
    """Scale s, kernel radicand (None at rational points), diag and coupling
    of the omega triangle at ``point``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    K = n // 2
    if modulus is None:
        scale, a_pair, b_pair, d = _point_multipliers(point)
    else:
        au, av = reduce_mod(point.alpha, modulus)
        bu, bv = reduce_mod(point.beta, modulus)
        scale, d = 1, point.d % modulus
        a_pair, b_pair = (2 * au - bu, 2 * av - bv), (2 * au, 2 * av)
    # omega_r(k) = A(n-r-k) omega_r(k-1) + sign B(n-2r-d(n-1)) omega_{r+1}(k-1);
    # the fault-injection sign lives in the coupling vector, not the kernel
    dlt = (n - 1) & 1
    diag = [[a * (n - j) for j in range(K + 1)] for a in a_pair]
    coupling = [[_coupling_sign * b * (n - 2 * r - dlt) for r in range(K)] for b in b_pair]
    if point.d == 0:
        return scale, None, diag[0], coupling[0]
    return scale, d, diag, coupling


def omega_table(point: QPoint | tuple, n: int, modulus: int | None = None) -> Triangle:
    """Full triangle, all entries retained."""
    point = as_point(point)
    scale, d, diag, coupling = _omega_vectors(point, n, modulus)
    seed = [1] * (n // 2 + 1)
    levels = _triangle(seed if d is None else (seed, [0] * len(seed)), diag, coupling, d, modulus)
    return Triangle(point, n, levels, partial(_omega_scalar, point.d, modulus, scale), modulus)


def omega_top(point: QPoint | tuple, n: int, modulus: int | None = None):
    """omega_0(floor(n/2)) as the path sum of ``_unit_seed_top``; builds no
    table and equals ``omega_table(point, n, modulus).top()``."""
    point = as_point(point)
    scale, d, diag, coupling = _omega_vectors(point, n, modulus)
    top = _unit_seed_top(diag, coupling, d, modulus)
    return _omega_scalar(point.d, modulus, scale, top, n // 2)


_CLOSED_FORMS = {(1, -2), (1, 2), (0, -1)}


def omega_closed(point_id: tuple[int, int], r: int, k: int, n: int) -> int:
    """Product closed forms of the triangle at the three special points."""
    if point_id not in _CLOSED_FORMS:
        raise ValueError(f"no closed form registered for point {point_id}")
    if k < 0 or r < 0 or r + k > n // 2:
        raise ValueError(f"(r={r}, k={k}) outside triangle for n={n}")
    if point_id == (1, -2):
        return 2**k * prod(n + delta(n - 1) - 2 * lam for lam in range(1, k + 1))
    if point_id == (1, 2):
        return (-2) ** k * prod(
            n - delta(n + 1) - 2 * r - 2 * lam for lam in range(k)
        )
    return prod(n - r - lam for lam in range(1, k + 1))


# -- lambda triangle ----------------------------------------------------------


def lambda_seed(n: int, r: int) -> int:
    """(-1)^r n/(n-r) C(n-r, r), checked integral rather than assumed."""
    return (-1) ** r * _lucas_coeff(n, r)


def lambda_table(point: QPoint | tuple, n: int) -> Triangle:
    """lambda_r(k) = m1(K-r-k+1) lambda_r(k-1) + m2(r+1) lambda_{r+1}(k-1)
    with m1 = 2z-x, m2 = z and the signed closed-form seeds."""
    if n < 1:
        raise ValueError("n must be >= 1")
    point = as_point(point)
    K = n // 2
    if point.is_rational:
        m1 = 2 * point.alpha.a - point.beta.a
        m2 = point.alpha.a
    else:
        m1 = 2 * point.alpha - point.beta
        m2 = point.alpha
    diag = [m1 * (K - j + 1) for j in range(K + 1)]
    coupling = [m2 * (r + 1) for r in range(K)]
    seed = [lambda_seed(n, r) for r in range(K + 1)]
    levels = _triangle(seed, diag, coupling)
    return Triangle(point, n, levels, lambda raw, k: raw if type(raw) is QuadExt else QuadExt(raw))


def lambda_from_omega(
    point: QPoint | tuple,
    n: int,
    r: int,
    k: int,
    table: Triangle | None = None,
) -> QuadExt:
    """lambda_r(k) recovered from the omega entry by the factorial bridge."""
    point = as_point(point)
    K = n // 2
    if k < 0 or r < 0 or r + k > K:
        raise ValueError(f"(r={r}, k={k}) outside triangle for n={n}")
    if table is None:
        table = omega_table(point, n)
    factor = Fraction(
        n * factorial(n - r - k - 1) * factorial(K - r),
        factorial(n - 2 * r) * factorial(r) * factorial(K - r - k),
    )
    if r & 1:
        factor = -factor
    return factor * table.entry(r, k)


# -- fundamental expansions ---------------------------------------------------


def _expansion_coeff(n: int, r: int, k: int, omega_entry: QuadExt) -> QuadExt:
    K = n // 2
    frac = Fraction(
        n * factorial(n - r - k - 1), factorial(n - 2 * r) * factorial(r)
    ) * comb(K - r, k)
    if (r + k) & 1:
        frac = -frac
    return frac * omega_entry


def psi_k_expand(
    a,
    b,
    point: QPoint | tuple,
    n: int,
    k: int,
    table: Triangle | None = None,
) -> tuple[QuadExt, list[QuadExt]]:
    """Value and coefficient list of the k-th expansion of psi(a, b, n)
    along the point.

    The value equals (-1)^k / k! times the k-fold directional derivative of
    the psi polynomial in (a, b); at k = 0 it is psi(a, b, n) and at
    k = floor(n/2) it is (-1)^k psi at the point.  For integral points every
    coefficient is checked to be a rational integer.
    """
    point = as_point(point)
    aq = a if isinstance(a, QuadExt) else QuadExt(a)
    bq = b if isinstance(b, QuadExt) else QuadExt(b)
    if not (point.beta * aq - point.alpha * bq):
        raise DegeneratePointError(f"beta*a == alpha*b for point {point}")
    K = n // 2
    if not 0 <= k <= K:
        raise ValueError(f"k={k} outside [0, {K}] for n={n}")
    if table is None:
        table = omega_table(point, n)
    coeffs = [
        _expansion_coeff(n, r, k, table.entry(r, k)) for r in range(K - k + 1)
    ]
    if point.is_integral:
        for r, c in enumerate(coeffs):
            if not c.is_integral:
                raise TheoremViolationError(
                    f"non-integral expansion coefficient at n={n}, k={k}, r={r}"
                )
    return _psi_sum(coeffs, aq, 2 * aq - bq), coeffs


def second_fundamental(point: QPoint | tuple, n: int) -> QuadExt:
    """omega_0(floor(n/2)) / (n-1)...(n-floor(n/2)); checked equal to psi.

    For integral points the quotient is additionally checked to be integral.
    Failure of either check raises TheoremViolationError.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    point = as_point(point)
    quotient = omega_top(point, n) / falling_factorial(n)
    if point.is_integral and not quotient.is_integral:
        raise TheoremViolationError(
            f"fundamental ratio not integral at point {point}, n={n}"
        )
    expected = psi_point(point, n)
    if quotient != expected:
        raise TheoremViolationError(
            f"fundamental ratio != psi at point {point}, n={n}"
        )
    return quotient


def second_fundamental_v2(point: QPoint | tuple, n: int) -> QuadExt:
    """omega_0(n | point | 2n) / psi(point, 2n); checked equal to n(n+1)...(2n-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    point = as_point(point)
    psi = psi_point(point, 2 * n)
    if not psi:
        raise KernelPointError(f"psi({point}, {2 * n}) = 0")
    ratio = omega_top(point, 2 * n) / psi
    if ratio != rising_product(n):
        raise TheoremViolationError(
            f"psi-normalized top entry != rising product at {point}, n={n}"
        )
    return ratio


def _power_sum_quotient(x: int, y: int, n: int) -> int | None:
    """(x^n + y^n)/(x+y)^(n mod 2), or None when the division is inexact."""
    num = x**n + y**n
    if not n & 1:
        return num
    if x + y == 0:
        raise ValueError("x + y must be nonzero for odd n")
    val, rem = divmod(num, x + y)
    return None if rem else val


def sums_of_powers_check(x: int, y: int, n: int) -> bool:
    """(x^n + y^n)/(x+y)^(n mod 2) against psi, the omega ratio, and the
    explicit power-sum expansion."""
    if n < 1:
        raise ValueError("n must be >= 1")
    val = _power_sum_quotient(x, y, n)
    if val is None:
        return False
    point = QPoint(x * y, -x * x - y * y)
    if psi_point(point, n) != val:
        return False
    if n >= 2 and omega_top(point, n) != falling_factorial(n) * val:
        return False
    expansion = sum(
        (-1) ** i * _lucas_coeff(n, i) * (x * y) ** i * (x + y) ** (n - 2 * i)
        for i in range(n // 2 + 1)
    )
    return expansion == x**n + y**n


def psi_expansion_identity_check(
    a, b, point: QPoint | tuple, x: int, y: int, n: int
) -> bool:
    """The degree-floor(n/2) expansion of (beta a - alpha b)^K (x^n+y^n)/(x+y)^d
    into the two quadratic forms, with coefficients from psi_k_expand."""
    point = as_point(point)
    aq = a if isinstance(a, QuadExt) else QuadExt(a)
    bq = b if isinstance(b, QuadExt) else QuadExt(b)
    pivot = point.beta * aq - point.alpha * bq
    if not pivot:
        raise DegeneratePointError(f"beta*a == alpha*b for point {point}")
    K = n // 2
    val = _power_sum_quotient(x, y, n)
    if val is None:
        return False
    lhs = pivot**K * val
    table = omega_table(point, n)
    p_form = point.alpha * (x * x) + point.beta * (x * y) + point.alpha * (y * y)
    q_form = aq * (x * x) + bq * (x * y) + aq * (y * y)
    rhs = QuadExt(0)
    for r in range(K + 1):
        value, _ = psi_k_expand(aq, bq, point, n, r, table)
        rhs = rhs + value * p_form ** (K - r) * q_form**r
    return lhs == rhs


# -- the companion triangle feeding Fibonacci ---------------------------------


def fib_lambda_table(n: int) -> tuple[int, int]:
    """Top entry L_0(K), K = floor((n-1)/2), of the companion triangle
    L_r(k) = (n-r-k) L_r(k-1) + 2(n-1-2r-d(n)) L_{r+1}(k-1) with unit seeds,
    and its normalized value, checked equal to F(n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    K = (n - 1) // 2
    diag = [n - j for j in range(K + 1)]
    coupling = [2 * (n - 1 - 2 * r - delta(n)) for r in range(K)]
    top = _unit_seed_top(diag, coupling)
    value, rem = divmod(top, prod(range(n - K, n)))
    if rem:
        raise TheoremViolationError(f"companion top entry not divisible at n={n}")
    if value != fibonacci(n):
        raise TheoremViolationError(f"companion ratio != F({n})")
    return top, value
