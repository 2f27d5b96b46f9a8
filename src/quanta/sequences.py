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
row and the multiplier vectors f = (2z-x) w and g = z w' that ``_vectors``
builds from each table's weights; the omega and lambda tables are both a
``Triangle``.  ``omega_top`` and the Fibonacci companion need only the top
entry of a unit-seed triangle, which ``_unit_seed_top`` sums over the
triangle's paths in floor(n/2) steps from the same f and g; the two kernels
are each other's reference.  Every kernel and ``psi_point`` run in native
bigint arithmetic on the point's integer lift (``_lift``): rational points
are scaled to integers, quadratic points to integer component pairs, and
d = 0 marks the int path.  With a modulus m, ``_reduced_lift`` checks m and
reduces the lift mod m before any arithmetic, and the results are residues.
``_unlift`` is the only place a value leaves the lift: it divides by the
scale's power, exactly or mod m.  Besides the reductions that keep modular
work small (of the lift, per level in tables, per step in ``psi_point``), it
is the only code that divides or reduces a lifted value.  It is also where
the form of a residue is decided: every modular value, ``psi_pow2``'s
included, is a QuadExt with int components in [0, m), d = 0 at a rational
point.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from math import comb, factorial, lcm, perm, prod
from typing import Iterator, Union

from .scalars import QuadExt, _result, format_scalar, reduce_mod

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
    """(n-1)(n-2)...(n - floor(n/2)), the universal ratio denominator (1 for n <= 0)."""
    return perm(n - 1, n // 2) if n > 0 else 1


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
    """``_lift(point)``, with a ``modulus`` m its four point components
    reduced mod m, so modular work costs the same at any point.  m is checked
    first: below 2, or sharing a factor with a denominator of the point, it
    is refused with ``reduce_mod``'s error.  psi and every triangle start here."""
    if modulus is None:
        return _lift(point)
    reduce_mod(point.alpha, modulus)
    reduce_mod(point.beta, modulus)
    s, z, x, d = _lift(point)
    return s, tuple(c % modulus for c in z), tuple(c % modulus for c in x), d


def _unlift(raw, q: int, d: int, modulus: int | None = None):
    """The lifted value ``raw`` (an int when d = 0, else a pair (u, v) for
    u + v sqrt(d)) divided by q: an exact QuadExt, or with a ``modulus`` its
    residue, a QuadExt with int components in [0, m) (d = 0 at a rational point)."""
    u, v = raw if d else (raw, 0)
    if modulus is None:
        return _result(u, v, d) if q == 1 else _result(Fraction(u, q), v and Fraction(v, q), d)
    qinv = pow(q, -1, modulus)
    return _result(u * qinv % modulus, v * qinv % modulus, d)


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
    """psi at a parameter point: exactly, or with a ``modulus`` its residue
    QuadExt (``_unlift``), as for ``omega_top``.  psi_n(s a, s b) = s^floor(n/2)
    psi_n(a, b), so it runs on the integer lift (on residues mod m, when
    given) and ``_unlift`` divides once at the end."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    point = as_point(point)
    s, (zu, zv), (xu, xv), d = _reduced_lift(point, modulus)
    m, q = modulus, pow(s, n // 2, modulus)  # q is s^floor(n/2) mod m, or exact
    if not d and m is None:
        return _unlift(psi_rec(zu, xu, n), q, 0)
    # psi_rec fused on pairs u + v sqrt(d), t = 2z - x; ends on (pu, pv) = psi(n)
    tu, tv, tvd, zvd = 2 * zu - xu, 2 * zv - xv, (2 * zv - xv) * d, zv * d
    pu, pv, cu, cv = 2, 0, 1, 0
    for i in range(1, n + 1):
        nu, nv = (tu * cu + tvd * cv, tu * cv + tv * cu) if i & 1 else (cu, cv)
        pu, pv, cu, cv = cu, cv, nu - zu * pu - zvd * pv, nv - zu * pv - zv * pu
        if m:
            cu, cv = cu % m, cv % m
    return _unlift((pu, pv) if d else pu, q, d, m)


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

    With a modulus m the whole chain runs on ints reduced mod m (s-1 modular
    squarings plus a squared power track for a) and ends in a residue
    QuadExt, which is what the Mersenne criterion consumes.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    m = modulus
    if m is None:
        cur, apow = -(a * 0 + b), a * a
    else:
        ra, rb = reduce_mod(a, m), reduce_mod(b, m)  # raises for a modulus below 2
        if ra.d or rb.d:
            raise ValueError("modular doubling requires rational parameters")
        cur, apow = -rb.a, ra.a * ra.a
    for _ in range(s - 1):
        cur, apow = cur * cur - 2 * apow, apow * apow
        if m:
            cur, apow = cur % m, apow % m
    return cur if m is None else _unlift(cur, 1, 0, m)


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


def _unit_seed_top(diag, coupling, d: int = 0):
    """X_0(K) of ``_triangle`` from the all-ones seed row, in K steps.

    A path from seed cell (j, 0) to (0, K) picks up diag[j+1..K] on its
    diagonal steps and coupling[0..j-1] on its coupling steps in any order,
    and C(K, j) orders stay inside the triangle, so
    X_0(K) = sum_j C(K, j) coupling[0]...coupling[j-1] diag[j+1]...diag[K].
    The sum runs in Horner form; h = C(K, j) coupling[0]...coupling[j-1] is
    kept exact, since C(K, j) = C(K, j-1)(K-j+1)/j divides exactly, and so is
    the sum: ``omega_top`` reduces it mod m once.  Arguments as in ``_triangle``.
    """
    if not d:
        K = len(diag) - 1
        top = h = 1
        for j in range(1, K + 1):
            h = h * (coupling[j - 1] * (K - j + 1)) // j
            top = diag[j] * top + h
        return top
    (a1, a2), (c1, c2) = diag, coupling
    K = len(a1) - 1
    u, v, hu, hv = 1, 0, 1, 0
    for j in range(1, K + 1):
        s, t = c1[j - 1] * (K - j + 1), c2[j - 1] * (K - j + 1)
        hu, hv = (s * hu + t * d * hv) // j, (t * hu + s * hv) // j
        p, q = a1[j], a2[j]
        u, v = p * u + q * d * v + hu, p * v + q * u + hv
    return u, v


class Triangle:
    """The triangle X_r(k), 0 <= r+k <= floor(n/2), that ``_triangle`` filled
    on the lift of ``point`` by ``scale``.

    A raw entry of level k is homogeneous of degree k in the lifted
    multipliers, so ``entry`` unlifts it by scale^k: an exact QuadExt, or
    with a ``modulus`` its residue QuadExt (``_unlift``).
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
        return _unlift(raw, pow(self._scale, k, self.modulus), d, self.modulus)

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


def _omega_vectors(point: QPoint, n: int, modulus: int | None):
    """``_vectors`` of the omega triangle:
    omega_r(k) = (2z-x)(n-r-k) omega_r(k-1) + sign 2z(n-2r-d(n-1)) omega_{r+1}(k-1);
    the fault-injection sign lives in the coupling weights, not the kernel."""
    if n < 1:
        raise ValueError("n must be >= 1")
    K, dlt = n // 2, (n - 1) & 1
    coupling_weights = [_coupling_sign * 2 * (n - 2 * r - dlt) for r in range(K)]
    return _vectors(point, range(n, n - K - 1, -1), coupling_weights, modulus)


def omega_table(point: QPoint | tuple, n: int, modulus: int | None = None) -> Triangle:
    """Full triangle, all entries retained."""
    point = as_point(point)
    scale, d, diag, coupling = _omega_vectors(point, n, modulus)
    levels = _triangle([1] * (n // 2 + 1), diag, coupling, d, modulus)
    return Triangle(point, n, levels, scale, modulus)


def omega_top(point: QPoint | tuple, n: int, modulus: int | None = None):
    """omega_0(floor(n/2)) as the path sum of ``_unit_seed_top``; builds no
    table and equals ``omega_table(point, n, modulus).top()``."""
    point = as_point(point)
    scale, d, diag, coupling = _omega_vectors(point, n, modulus)
    return _unlift(_unit_seed_top(diag, coupling, d), pow(scale, n // 2, modulus), d, modulus)


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


def lambda_from_omega(table: Triangle, r: int, k: int) -> QuadExt:
    """lambda_r(k) at the point and n of the exact omega ``table``, recovered
    by the factorial bridge: (-1)^k k! times the expansion coefficient of
    ``_expansion_coeff``."""
    return QuadExt._coerce(_expansion_coeff(table, r, k) * (-1) ** k * factorial(k))


# -- fundamental expansions ---------------------------------------------------


def _expansion_coeff(table: Triangle, r: int, k: int) -> int | QuadExt:
    """(-1)^(r+k) n (n-r-k-1)! C(K-r, k) / ((n-2r)! r!) times omega_r(k), the
    r-th coefficient of the k-th expansion of psi; an int when omega_r(k) is one
    and the division exact.  Every expansion reads the omega table through here:
    a modular table is refused with ValueError, and ``entry`` raises IndexError outside it."""
    if table.modulus is not None:
        raise ValueError(f"expansions need an exact omega table, not one mod {table.modulus}")
    entry, n = table.entry(r, k), table.n
    num = n * factorial(n - r - k - 1) * comb(table.K - r, k)
    if (r + k) & 1:
        num = -num
    den = factorial(n - 2 * r) * factorial(r)
    if not entry.d and type(entry.a) is int:
        c, rem = divmod(entry.a * num, den)
        if not rem:
            return c
    return entry * num / den


def _expansion_column(table: Triangle, k: int) -> list:
    """[_expansion_coeff(table, r, k) for r in 0..K-k], built once per table;
    at an integral point each is checked to be an int."""
    if k not in table._columns:
        if not 0 <= k <= table.K:
            raise ValueError(f"k={k} outside [0, {table.K}] for n={table.n}")
        column = [_expansion_coeff(table, r, k) for r in range(table.K - k + 1)]
        for r, c in enumerate(column):
            if type(c) is not int and table.point.is_integral:
                raise TheoremViolationError(
                    f"non-integral expansion coefficient at n={table.n}, k={k}, r={r}"
                )
        table._columns[k] = column
    return table._columns[k]


def _expansion_ring(a, b, table: Triangle) -> tuple:
    """The point's alpha, beta and the arguments a, b in one ring: ints at an
    integral point with int a and b, else QuadExt; beta*a == alpha*b raises."""
    point = table.point
    if point.is_integral and type(a) is int and type(b) is int:
        al, be = point.alpha.a, point.beta.a
    else:
        al, be = point.alpha, point.beta
        a, b = (x if isinstance(x, QuadExt) else QuadExt(x) for x in (a, b))
    if not (be * a - al * b):
        raise DegeneratePointError(f"beta*a == alpha*b for point {point}")
    return al, be, a, b


def psi_k_expand(a, b, table: Triangle, k: int) -> tuple[QuadExt, list[QuadExt]]:
    """Value and coefficient list of the k-th expansion of psi(a, b, n)
    along the point, with the point and n of the exact omega ``table``.

    The value equals (-1)^k / k! times the k-fold directional derivative of
    the psi polynomial in (a, b); at k = 0 it is psi(a, b, n) and at
    k = floor(n/2) it is (-1)^k psi at the point.  For integral points every
    coefficient is checked to be a rational integer.
    """
    _, _, a, b = _expansion_ring(a, b, table)
    coeffs = _expansion_column(table, k)
    return QuadExt._coerce(_psi_sum(coeffs, a, 2 * a - b)), [QuadExt._coerce(c) for c in coeffs]


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


def psi_expansion_identity_check(a, b, table: Triangle, x: int, y: int) -> bool:
    """The degree-floor(n/2) expansion of (beta a - alpha b)^K (x^n+y^n)/(x+y)^d
    into the two quadratic forms, at the point and n of the exact omega
    ``table``, with the expansions of psi_k_expand."""
    n, K = table.n, table.K
    al, be, a, b = _expansion_ring(a, b, table)
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
