"""The psi / omega / lambda sequence engines.

The sequence psi(a, b, n) is the two-parameter linear recurrence

    psi(0) = 2,  psi(1) = 1,  psi(n+1) = (2a-b)^(n mod 2) psi(n) - a psi(n-1),

and the omega table is the double-indexed triangle

    omega_r(0) = 1,
    omega_r(k) = (2z-x)(n-r-k) omega_r(k-1) - 2z (n-2r-d(n-1)) omega_{r+1}(k-1)

for a point (z, x), filled by k-levels for 0 <= r+k <= floor(n/2).  The top
entry omega_0(floor(n/2)) divided by the falling-factorial product
(n-1)(n-2)...(n-floor(n/2)) recovers psi at the point; that quotient is the
single most exercised identity in the verification suite, and
``second_fundamental`` is the one place that checks it, at level 2n too.

The recurrence runners are generic over any ring whose elements support
arithmetic with ints (exact scalars, residues, polynomials).  ``_triangle``
fills X_r(k) = f(k+r) X_r(k-1) + g(r) X_{r+1}(k-1) from a seed row and the
multipliers f = (2z-x) w, g = z w' of each table's int weights; the omega and
lambda tables are both a ``Triangle``.  ``_unit_seed_top``, the top entry of
a unit-seed triangle for ``omega_top`` and the Fibonacci companion, sums its
paths in floor(n/2) steps with each multiplier formed in the loop and one
division, by floor(n/2)!, at the end; the two kernels are each other's
reference.  ``psi_point`` powers the recurrence's two-step matrix by
squaring, in O(log n) ring products, and on ints ends an even n in a chain
of Lucas squarings, the Lucas-Lehmer chain at (1, 4); ``psi_rec`` steps the
recurrence n times and is its reference.  All run in native bigint
arithmetic on the point's integer lift (``_lift``): ints at a rational
point, int pairs (u, v) for u + v sqrt(d) at a quadratic one, d = 0 marking
the int path.  With a modulus m, ``_reduced_lift`` checks m and gives the
point's residues at scale 1, and tables and ``psi_point`` reduce as they go,
as does ``_unit_seed_top`` when m is prime to floor(n/2)!.  ``_unlift`` is
where a value leaves the lift: it divides an exact value by the scale's
power and reduces a modular one, which needs no division, to a QuadExt
with int components in [0, m), d = 0 at a rational point.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from math import comb, factorial, lcm, perm, prod
from typing import Iterator, Union

from .scalars import QuadExt, _localized, _result, format_scalar

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
    """(n-1)(n-2)...(n - floor(n/2)), the universal ratio denominator (1 for n <= 0);
    at 2n it is n(n+1)...(2n-1)."""
    return perm(n - 1, n // 2) if n > 0 else 1


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
    c, rem = divmod(n * comb(n - i, i), n - i)
    if rem:
        raise TheoremViolationError(f"non-integral closed-form coefficient at n={n}, i={i}")
    return c


class QPoint:
    """A nonzero parameter pair (alpha, beta) over a shared radicand."""

    __slots__ = ("alpha", "beta", "d")

    def __init__(self, alpha: Scalar, beta: Scalar) -> None:
        a = alpha if isinstance(alpha, QuadExt) else QuadExt(alpha)
        b = beta if isinstance(beta, QuadExt) else QuadExt(beta)
        a._common_d(b)  # raises on mismatched radicands
        if not a and not b:
            raise ValueError("point (0, 0) is not allowed")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "d", a.d or b.d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QPoint is immutable")

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


def _lift(point: QPoint) -> tuple[int, tuple[int, int], tuple[int, int], int]:
    """The point's integer lift: the scale s = lcm of the four component
    denominators, the pairs (u, v) of s*alpha and s*beta as u + v sqrt(d),
    and d.  psi and the omega kernel both run on it."""
    zu, zv, xu, xv = parts = (point.alpha.a, point.alpha.b, point.beta.a, point.beta.b)
    s = lcm(zu.denominator, zv.denominator, xu.denominator, xv.denominator)
    if s != 1:
        zu, zv, xu, xv = (c.numerator * (s // c.denominator) for c in parts)
    return s, (zu, zv), (xu, xv), point.d


def _reduced_lift(point: QPoint, modulus: int | None):
    """``_lift(point)``, or with a ``modulus`` m the residues of alpha and beta
    at scale 1, the lifted components times s^-1 mod m, so modular work costs
    the same at any point and no modular value is divided.  m is checked
    first: below 2, or sharing a factor with a denominator of the point, it
    is refused with ``reduce_mod``'s error.  psi and every triangle start here."""
    if modulus is None:
        return _lift(point)
    _localized(point.alpha, modulus)
    _localized(point.beta, modulus)
    s, z, x, d = _lift(point)
    sinv = pow(s, -1, modulus)
    return 1, tuple(c * sinv % modulus for c in z), tuple(c * sinv % modulus for c in x), d


def _unlift(raw, q: int, d: int, modulus: int | None = None):
    """The lifted value ``raw`` (an int when d = 0, else a pair (u, v) for
    u + v sqrt(d)) divided by q: an exact QuadExt, or with a ``modulus`` (q = 1,
    the lift's scale) its residue, int components in [0, m), d = 0 at a rational point."""
    u, v = raw if d else (raw, 0)
    if modulus is not None:
        return _result(u % modulus, v % modulus, d)
    return _result(u, v, d) if q == 1 else _result(Fraction(u, q), v and Fraction(v, q), d)


# -- psi --------------------------------------------------------------------


def _psi_values(a, b) -> Iterator:
    """psi(a, b, 0), psi(a, b, 1), ... by the defining recurrence over the ring
    of a, b; two steps per pass, so the odd step's 2a - b needs no parity test."""
    prev, cur, t = a * 0 + 2, a * 0 + 1, 2 * a - b
    yield prev
    while True:
        yield cur
        prev = t * cur - a * prev
        yield prev
        cur = prev - a * cur


def psi_rec(a, b, n: int):
    """psi(a, b, n), the n-th value of ``_psi_values``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return next(islice(_psi_values(a, b), n, None))


def psi_point(point: QPoint | tuple, n: int, modulus: int | None = None):
    """psi at a parameter point in O(log n) ring products: exactly, or with a
    ``modulus`` its residue QuadExt (``_unlift``), as for ``omega_top``.

    Two recurrence steps are M = [[t-a, -a], [t, -a]], t = 2a - b, on
    (psi(2j+1), psi(2j)) from (1, 2).  M^2 = -b M - a^2, so M^j = x M + y;
    squaring maps (x, y) to (x(2y - bx), (y - ax)(y + ax)), a step to
    (y - bx, -a^2 x), and psi(2j) = 2y - bx = V_j(-b, a^2), psi(2j+1) = y - (a+b)x.
    On ints, an even n with j = n/2 = j' 2^e, e > 0, runs the ladder over j'
    only and ends in e squarings V <- V^2 - 2Q, Q <- Q^2 from V = V_j' and
    Q = a^(2j') = det M^j' = a^2 x^2 - bxy + y^2.  At (1, 4), n = 2^(p-1),
    mod 2^p - 1, Q stays 1 and this tail is the Lucas-Lehmer chain: one
    product a bit against the ladder's two.
    As psi_n(sa, sb) = s^floor(n/2) psi_n(a, b), this runs on the lift (ints,
    or pairs u + v sqrt(d)), or mod m on the point's residues at scale 1, reduced
    after each step, and ``_unlift`` divides an exact value once at the end.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    s, a, b, d = _reduced_lift(as_point(point), modulus)
    j, m, q = n >> 1, modulus, s ** (n // 2)
    e = (j & -j).bit_length() - 1 if j and not (n & 1 or d) else 0
    bits = bin(j >> e)[2:]
    if not d:
        (a, _), (b, _), x, y = a, b, 0, 1
        for bit in bits:
            x, y = x * (2 * y - b * x), (y - a * x) * (y + a * x)
            if bit == "1":
                x, y = y - b * x, -a * a * x
            if m:
                x, y = x % m, y % m
        if n & 1:
            return _unlift(y - (a + b) * x, q, 0, m)
        v = 2 * y - b * x
        if e:
            det = a * a * x * x - b * x * y + y * y
            for _ in range(e):
                v, det = v * v - 2 * det, det * det
                if m:
                    v, det = v % m, det % m
        return _unlift(v, q, 0, m)

    def mul(p, r):
        return p[0] * r[0] + d * p[1] * r[1], p[0] * r[1] + p[1] * r[0]

    def comb(c, p, e, r):  # c p + e r for ints c, e
        return c * p[0] + e * r[0], c * p[1] + e * r[1]

    aa, x, y = mul(a, a), (0, 0), (1, 0)
    for bit in bits:
        ax = mul(a, x)
        x, y = mul(x, comb(2, y, -1, mul(b, x))), mul(comb(1, y, -1, ax), comb(1, y, 1, ax))
        if bit == "1":
            x, y = comb(1, y, -1, mul(b, x)), comb(0, y, -1, mul(aa, x))
        if m:
            x, y = (x[0] % m, x[1] % m), (y[0] % m, y[1] % m)
    raw = comb(1, y, -1, mul(comb(1, a, 1, b), x)) if n & 1 else comb(2, y, -1, mul(b, x))
    return _unlift(raw, q, d, m)


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


def _triangle(seed: list[int], diag, coupling, d: int = 0, modulus=None):
    """Fill X_r(k) = diag[k+r] X_r(k-1) + coupling[r] X_{r+1}(k-1) by levels.

    The int seed row X_r(0) has K+1 entries and fixes the triangle
    0 <= r+k <= K.  With d = 0, ``diag``, ``coupling`` and each level are int
    lists; with a radicand d they are pairs (u, v) of int lists for
    u + v sqrt(d), and the seed is paired with zeros.  With a ``modulus``
    each finished level is reduced mod m (componentwise for pairs), which
    keeps the entries small.  Returns every level.
    """
    m = modulus
    if d:
        (a1, a2), (c1, c2) = diag, coupling
        a2d = [x * d for x in a2]
        c2d = [x * d for x in c2]
    levels = [(seed, [0] * len(seed)) if d else seed]
    for k in range(1, len(seed)):
        prev = levels[-1]
        if not d:
            # indexing beats zip here on small rows and ties on large ones
            w = range(len(prev) - 1)
            cur = [diag[k + r] * prev[r] + coupling[r] * prev[r + 1] for r in w]
        else:
            # two fused passes, one per component of
            # (p + q sqrt d)(x + y sqrt d) + (s + t sqrt d)(x2 + y2 sqrt d)
            u, v = prev
            p1, u2, v2 = a1[k:], u[1:], v[1:]
            cu = zip(p1, a2d[k:], c1, c2d, u, v, u2, v2)
            cv = zip(p1, a2[k:], c1, c2, u, v, u2, v2)
            cur = (
                [p * x + q * y + s * x2 + t * y2 for p, q, s, t, x, y, x2, y2 in cu],
                [p * y + q * x + s * y2 + t * x2 for p, q, s, t, x, y, x2, y2 in cv],
            )
        if m is not None:
            cur = tuple([x % m for x in c] for c in cur) if d else [x % m for x in cur]
        levels.append(cur)
    return levels


def _unit_seed_top(t, z, diag_weights, coupling_weights, d: int = 0, modulus: int | None = None):
    """X_0(K) of ``_triangle`` from the all-ones seed row, in K steps and no
    list: diag[j] = t diag_weights[j] and coupling[r] = z coupling_weights[r]
    are formed in the loop from the lift's t = 2z - x and z (ints when d = 0,
    else pairs (u, v) for u + v sqrt(d)).  A path from seed cell (j, 0) to
    (0, K) picks up diag[j+1..K] and coupling[0..j-1] in any of the C(K, j)
    orders, all inside the triangle, so
    X_0(K) = sum_j C(K, j) coupling[0]...coupling[j-1] diag[j+1]...diag[K].
    Scaled by K!, the sum needs no division: with
    g_j = g_{j-1} coupling[j-1] (K-j+1), the Horner steps
    T_j = j diag[j] T_{j-1} + g_j end at T_K = K! X_0(K).  With a ``modulus``
    m prime to K! (every emergence modulus p_{k+1} > K is), g and T are
    reduced mod m at each step and X_0(K) = T_K (K!)^-1 mod m, with K! mod m
    from products of 64 factors, each reduced mod m; for any other m, T_K
    stays exact and the caller reduces the exact X_0(K) once.
    """
    K = len(diag_weights) - 1
    m = modulus
    if m is not None:
        kfact = 1
        for lo in range(1, K + 1, 64):
            kfact = kfact * prod(range(lo, min(lo + 64, K + 1))) % m
        try:  # gcd(K! mod m, m) = gcd(K!, m)
            finv = pow(kfact, -1, m)
        except ValueError:  # m shares a factor with K!
            m = None
    steps = zip(range(1, K + 1), range(K, 0, -1), coupling_weights, diag_weights[1:])
    if not d:
        top = g = 1
        for j, i, c, w in steps:  # i = K - j + 1
            g = g * (z * c * i)
            top = t * (j * w) * top + g
            if m:
                top, g = top % m, g % m
        return top * finv % m if m else top // factorial(K)
    (tu, tv), (zu, zv), tvd, zvd = t, z, t[1] * d, z[1] * d
    u, v, gu, gv = 1, 0, 1, 0
    for j, i, c, w in steps:
        c *= i
        w *= j
        gu, gv = (zu * gu + zvd * gv) * c, (zv * gu + zu * gv) * c
        u, v = (tu * u + tvd * v) * w + gu, (tu * v + tv * u) * w + gv
        if m:
            u, v, gu, gv = u % m, v % m, gu % m, gv % m
    if m:
        return u * finv % m, v * finv % m
    f = factorial(K)
    return u // f, v // f


class Triangle:
    """The triangle X_r(k), 0 <= r+k <= floor(n/2), that ``_triangle`` filled
    on the lift of ``point`` by ``scale``.

    A raw entry of level k is homogeneous of degree k in the lifted
    multipliers, so ``entry`` unlifts it by scale^k: an exact QuadExt, or
    with a ``modulus`` its residue QuadExt, at scale 1 (``_reduced_lift``).
    """

    def __init__(self, point: QPoint, n: int, levels: list, scale: int, modulus: int | None = None):
        self.point = point
        self.n = n
        self.modulus = modulus
        self.K = n // 2
        self._levels = levels
        self._scale = scale
        self._columns: dict[int, list] = {}  # k -> ``_expansion_column(self, k)``

    def entry(self, r: int, k: int):
        if k < 0 or r < 0 or r + k > self.K:
            raise IndexError(f"(r={r}, k={k}) outside triangle for n={self.n}")
        level, d = self._levels[k], self.point.d
        raw = (level[0][r], level[1][r]) if d else level[r]
        return _unlift(raw, self._scale**k, d, self.modulus)

    def top(self):
        """X_0(floor(n/2)); for omega, the numerator of the fundamental ratio."""
        return self.entry(0, self.K)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "point": [format_scalar(self.point.alpha), format_scalar(self.point.beta)],
            "modulus": self.modulus,
            "entries": [
                [r, k, str(self.entry(r, k))]
                for k in range(self.K + 1)
                for r in range(self.K - k + 1)
            ],
        }


def _vectors(point: QPoint, diag_weights, coupling_weights, modulus: int | None):
    """Scale s, radicand d, and the multipliers diag[j] = (2z-x) w_j and
    coupling[r] = z w_r of a triangle on the ``_reduced_lift`` of ``point``:
    int lists when d = 0, else pairs (u, v) of int lists for u + v sqrt(d)."""
    s, (zu, zv), (xu, xv), d = _reduced_lift(point, modulus)
    diag = [[t * w for w in diag_weights] for t in (2 * zu - xu, 2 * zv - xv)]
    coupling = [[z * w for w in coupling_weights] for z in (zu, zv)]
    return (s, d, diag, coupling) if d else (s, d, diag[0], coupling[0])


def _omega_weights(n: int) -> tuple[range, range]:
    """The int weights n - j and sign 2(n-2r-d(n-1)), r < floor(n/2), of
    omega_r(k) = (2z-x)(n-r-k) omega_r(k-1) + sign 2z(n-2r-d(n-1)) omega_{r+1}(k-1),
    as ranges; the fault-injection sign lives here, not in the kernels."""
    if n < 1:
        raise ValueError("n must be >= 1")
    K, c = n // 2, 2 * _coupling_sign
    first = c * (n - ((n - 1) & 1))
    return range(n, n - K - 1, -1), range(first, first - 2 * c * K, -2 * c)


def omega_table(point: QPoint | tuple, n: int, modulus: int | None = None) -> Triangle:
    """Full triangle, all entries retained."""
    point = as_point(point)
    scale, d, diag, coupling = _vectors(point, *_omega_weights(n), modulus)
    levels = _triangle([1] * (n // 2 + 1), diag, coupling, d, modulus)
    return Triangle(point, n, levels, scale, modulus)


def omega_top(point: QPoint | tuple, n: int, modulus: int | None = None):
    """omega_0(floor(n/2)) as the path sum of ``_unit_seed_top``; builds no
    table and equals ``omega_table(point, n, modulus).top()``.  With a
    ``modulus`` m the kernel runs on the point's residues and, when m is
    prime to floor(n/2)!, reduces at every step, so the cost does not grow
    with the point or with n beyond the K steps."""
    weights = _omega_weights(n)
    s, (zu, zv), (xu, xv), d = _reduced_lift(as_point(point), modulus)
    t, z = ((2 * zu - xu, 2 * zv - xv), (zu, zv)) if d else (2 * zu - xu, zu)
    raw = _unit_seed_top(t, z, *weights, d, modulus)
    return _unlift(raw, s ** (n // 2), d, modulus)


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
    scale, d, diag, coupling = _vectors(point, range(K + 1, 0, -1), range(1, K + 1), None)
    seed = [lambda_seed(n, r) for r in range(K + 1)]
    return Triangle(point, n, _triangle(seed, diag, coupling, d), scale)


# -- fundamental expansions ---------------------------------------------------


def _expansion_column(table: Triangle, k: int) -> list:
    """[c_r(k) for r in 0..K-k], the coefficients of the k-th expansion of psi,
    c_r(k) = (-1)^(r+k) n (n-r-k-1)! C(K-r, k) / ((n-2r)! r!) omega_r(k), built
    once per table: an int when omega_r(k) is one and the division exact, and
    checked to be one at an integral point.  Every expansion reads the omega
    table through here; k outside [0, K] and a modular table are refused with
    ValueError."""
    if k not in table._columns:
        if not 0 <= k <= table.K:
            raise ValueError(f"k={k} outside [0, {table.K}] for n={table.n}")
        if table.modulus is not None:
            raise ValueError(f"expansions need an exact omega table, not one mod {table.modulus}")
        n, K, column = table.n, table.K, []
        for r in range(K - k + 1):
            entry = table.entry(r, k)
            num = n * factorial(n - r - k - 1) * comb(K - r, k)
            if (r + k) & 1:
                num = -num
            den = factorial(n - 2 * r) * factorial(r)
            c, rem = divmod(entry.a * num, den) if not entry.d and type(entry.a) is int else (0, 1)
            if rem:
                if table.point.is_integral:
                    raise TheoremViolationError(
                        f"non-integral expansion coefficient at n={n}, k={k}, r={r}"
                    )
                c = entry * num / den
            column.append(c)
        table._columns[k] = column
    return table._columns[k]


def second_fundamental(point: QPoint | tuple, n: int) -> QuadExt:
    """psi at the point, checked equal to omega_0(floor(n/2)) / (n-1)...(n-floor(n/2))
    by comparing the top with psi times that product, with no division.

    This is the one comparison of a top with psi times ``falling_factorial``.
    At level 2n it is also the paper's second form, omega_0(n | point | 2n) /
    psi(point, 2n) = n(n+1)...(2n-1), wherever psi(point, 2n) != 0.  A failure
    raises TheoremViolationError: the ratio, divided out only then, is
    reported as not integral at an integral point, else as != psi.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    point = as_point(point)
    top, ff, psi = omega_top(point, n), falling_factorial(n), psi_point(point, n)
    if top != psi * ff:
        if point.is_integral and not (top / ff).is_integral:
            raise TheoremViolationError(f"fundamental ratio not integral at point {point}, n={n}")
        raise TheoremViolationError(f"fundamental ratio != psi at point {point}, n={n}")
    return psi


def _power_sum_quotient(x: int, y: int, n: int) -> int | None:
    """(x^n + y^n)/(x+y)^(n mod 2), or None when the division is inexact."""
    num = x**n + y**n
    if not n & 1:
        return num
    if x + y == 0:
        raise ValueError("x + y must be nonzero for odd n")
    val, rem = divmod(num, x + y)
    return None if rem else val


def _power_sum_expansion(x: int, y: int, n: int) -> int:
    """x^n + y^n expanded in xy and x+y: sum_i (-1)^i n/(n-i) C(n-i, i)
    (xy)^i (x+y)^(n-2i)."""
    return sum(
        (-1) ** i * _lucas_coeff(n, i) * (x * y) ** i * (x + y) ** (n - 2 * i)
        for i in range(n // 2 + 1)
    )


def sums_of_powers_check(x: int, y: int, n: int) -> bool:
    """(x^n + y^n)/(x+y)^(n mod 2) against psi, the omega ratio, and the
    explicit power-sum expansion."""
    if n < 1:
        raise ValueError("n must be >= 1")
    val = _power_sum_quotient(x, y, n)
    if val is None:
        return False
    point = QPoint(x * y, -x * x - y * y)
    if (second_fundamental(point, n) if n >= 2 else psi_point(point, n)) != val:
        return False
    return _power_sum_expansion(x, y, n) == x**n + y**n


def psi_expansion_identity_check(a, b, table: Triangle, x: int, y: int) -> bool:
    """The degree-floor(n/2) expansion of (beta a - alpha b)^K (x^n+y^n)/(x+y)^d
    into the two quadratic forms, at the point and n of the exact omega
    ``table``, each form's coefficient summed from ``_expansion_column``.

    The point and a, b share one ring: ints at an integral point with int a
    and b, else QuadExt.  beta*a == alpha*b raises DegeneratePointError.
    """
    n, K, point = table.n, table.K, table.point
    if point.is_integral and type(a) is int and type(b) is int:
        al, be = point.alpha.a, point.beta.a
    else:
        al, be = point.alpha, point.beta
        a, b = (v if isinstance(v, QuadExt) else QuadExt(v) for v in (a, b))
    if not (be * a - al * b):
        raise DegeneratePointError(f"beta*a == alpha*b for point {point}")
    val = _power_sum_quotient(x, y, n)
    if val is None:
        return False
    lhs = (be * a - al * b) ** K * val
    p_form = al * (x * x) + be * (x * y) + al * (y * y)
    q_form = a * (x * x) + b * (x * y) + a * (y * y)
    rhs, t = 0, 2 * a - b
    for r in range(K + 1):
        rhs = rhs + _psi_sum(_expansion_column(table, r), a, t) * p_form ** (K - r) * q_form**r
    return lhs == rhs


# -- the companion triangle feeding Fibonacci ---------------------------------


def fib_lambda_table(n: int) -> tuple[int, int]:
    """Top entry L_0(K), K = floor((n-1)/2), of the companion triangle
    L_r(k) = (n-r-k) L_r(k-1) + 2(n-1-2r-d(n)) L_{r+1}(k-1) with unit seeds,
    and its normalized value L_0(K) / (n-1)...(n-K), which is F(n) (registry
    check G6X compares the two).  A top not divisible by that product
    raises TheoremViolationError."""
    if n < 2:
        raise ValueError("n must be >= 2")
    K = (n - 1) // 2
    coupling_weights = [2 * (n - 1 - 2 * r - delta(n)) for r in range(K)]
    top = _unit_seed_top(1, 1, range(n, n - K - 1, -1), coupling_weights)
    value, rem = divmod(top, prod(range(n - K, n)))
    if rem:
        raise TheoremViolationError(f"companion top entry not divisible at n={n}")
    return top, value
