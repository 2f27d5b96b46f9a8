"""Prime machinery and the arithmetic applications of the sequence engines:
emergence divisibility, Mersenne / Fermat / perfect-number criteria, the
combinatorial identity, the harmonic congruence and the divisor-sum
inequality.  The emergence checks read the psi-normalized ratio at level
2p through ``_normalized_ratio``, checked by ``sequences.second_fundamental``."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress, count, islice, repeat
from math import factorial, isqrt, log, prod
from operator import add, le, lt
from typing import Callable, Iterator

from .scalars import QuadExt
from .sequences import (
    KernelPointError,
    QPoint,
    TheoremViolationError,
    as_point,
    delta,
    falling_factorial,
    fib_lambda_table,
    fibonacci,
    omega_top,
    psi_point,
    second_fundamental,
)


class DataIntegrityError(RuntimeError):
    """The sieve violated the adjacent-prime gap bound; aborting is safer
    than verifying divisibility against a broken prime list."""


class FeasibilityError(ValueError):
    """The requested exact computation exceeds the configured size bound."""


# The sieve never grows past this limit (an 8 MiB array of odd flags); a
# full sweep stays at the default 4096.
SIEVE_MAX_LIMIT = 1 << 24


class PrimeCache:
    """Sieve-backed ordered prime list with an auto-extending limit.

    The sieve flags odd numbers only.  A request past the limit rebuilds it
    once, at the next power of two up to SIEVE_MAX_LIMIT; a request beyond
    that raises FeasibilityError instead of allocating.  Every rebuild checks
    p_{k+1} < 2 p_k for all k with 2 p_k within the limit; the
    emergence checks lean on that gap bound, so a violation raises
    DataIntegrityError instead of continuing.
    """

    def __init__(self, limit: int = 1 << 12) -> None:
        if limit > SIEVE_MAX_LIMIT:
            raise FeasibilityError(f"limit {limit} is beyond the sieve cap {SIEVE_MAX_LIMIT}")
        self._limit = 0
        self._primes: list[int] = []
        self._rebuild(max(limit, 16))

    def _rebuild(self, limit: int) -> None:
        sieve = bytearray(1) + b"\x01" * ((limit - 1) // 2)  # flag i stands for 2i + 1
        for p in compress(range(3, isqrt(limit) + 1, 2), memoryview(sieve)[1:]):
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))
        primes = [2, *compress(range(1, limit + 1, 2), sieve)]
        low = primes[: bisect_right(primes, limit // 2)]  # the p with 2p <= limit
        # the list increases; a successor (limit + 1 past the last) >= 2p is a gap
        gaps = map(le, map(add, low, low), primes[1:] + [limit + 1])
        if p := next(compress(low, gaps), 0):
            raise DataIntegrityError(f"no prime strictly between {p} and {2 * p}")
        self._limit = limit
        self._primes = primes

    @property
    def limit(self) -> int:
        return self._limit

    def _cover(self, x: int) -> None:
        """Past the limit, rebuild once at the next power of two >= x, capped."""
        if x > SIEVE_MAX_LIMIT:
            raise FeasibilityError(f"{x} is beyond the sieve cap {SIEVE_MAX_LIMIT}")
        if x > self._limit:
            self._rebuild(min(1 << (x - 1).bit_length(), SIEVE_MAX_LIMIT))

    def nth(self, k: int) -> int:
        """The k-th prime, 1-indexed (p_1 = 2).  The sieve holds p_6 = 13, and
        p_k < k (ln k + ln ln k) for k >= 6 (Rosser and Schoenfeld 1962)."""
        if k < 1:
            raise ValueError("prime index starts at 1")
        if k > len(self._primes):
            self._cover(min(int(k * (log(k) + log(log(k)))), SIEVE_MAX_LIMIT))
        while k > len(self._primes):
            self._cover(self._limit + 1)
        return self._primes[k - 1]

    def upto(self, x: int) -> list[int]:
        self._cover(x)
        return self._primes[: bisect_right(self._primes, x)]

    def is_prime(self, n: int) -> bool:
        """Sieve lookup up to the limit, deterministic Miller-Rabin above it;
        a query never grows the sieve."""
        if n <= self._limit:
            i = bisect_left(self._primes, n)
            return i < len(self._primes) and self._primes[i] == n
        return _miller_rabin(n)


# The first 13 primes as Miller-Rabin bases decide primality for every
# n < MILLER_RABIN_BOUND (Sorenson and Webster 2015); the bound itself is
# a strong pseudoprime to all 13.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def _miller_rabin(n: int) -> bool:
    if n >= MILLER_RABIN_BOUND:
        raise FeasibilityError(
            f"primality is decided only below {MILLER_RABIN_BOUND}; got n={n}"
        )
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_CACHE = PrimeCache()


def nth_prime(k: int) -> int:
    return _CACHE.nth(k)


def primes_upto(x: int) -> list[int]:
    return _CACHE.upto(x)


def is_prime(n: int) -> bool:
    return _CACHE.is_prime(n)


def sigma(n: int) -> int:
    """Divisor sum by trial division: by 2, then by odd f up to the square root
    of the part of n still unfactored."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total, m, f = 1, n, 2
    while f * f <= m:
        if m % f == 0:
            power, term = 1, 1
            while m % f == 0:
                m //= f
                power *= f
                term += power
            total *= term
        f += 1 if f == 2 else 2
    if m > 1:
        total *= m + 1
    return total


def _divisor_sums(nmax: int) -> array:
    """sigma(n) at index n <= nmax.  Odd n read a smallest-prime-factor sieve
    over odd numbers: with p the smallest prime of n and m = n / p, sigma(n) =
    (p + 1) sigma(m), less p sigma(m / p) if p | m.  Then n = 2^e o, o odd, is
    (2^(e+1) - 1) sigma(o), one slice per e.  8 bytes per n, and at most 2 more
    while the sieve or a slice lives: about 160 MiB at the cap."""
    if nmax > SIEVE_MAX_LIMIT:
        raise FeasibilityError(f"{nmax} is beyond the sieve cap {SIEVE_MAX_LIMIT}")
    nmax = max(nmax, 0)  # a negative bound sieves nothing, as 0 does
    smallest = array("I", [0]) * (nmax // 2 + 1)  # of 2i + 1 at i; 0 marks a prime
    for p in reversed(primes_upto(isqrt(nmax))[1:]):
        smallest[p * p // 2 :: p] = array("I", [p]) * len(range(p * p // 2, len(smallest), p))
    sums = array("q", [1]) * (nmax + 1)  # sigma(1) = 1; index 0 is unused
    for n, p in zip(range(3, nmax + 1, 2), islice(smallest, 1, None)):
        if p:
            m = n // p
            sums[n] = (p + 1) * sums[m] - (0 if m % p else p * sums[m // p])
        else:
            sums[n] = n + 1
    del smallest
    with memoryview(sums) as odd:
        for q in (1 << e for e in range(1, nmax.bit_length())):
            sums[q :: 2 * q] = array("q", map((2 * q - 1).__mul__, odd[1 : nmax // q + 1 : 2]))
    return sums


def harmonic_number(k: int) -> Fraction:
    """H_k = sum of 1/t for t = 1..k, exactly, by binary splitting on int
    pairs: the sum p/q over [lo, hi) joins its halves as (p1 q2 + p2 q1, q1 q2),
    and only the final Fraction reduces by a gcd."""
    if k < 0:
        raise ValueError("k must be nonnegative")

    def span(lo: int, hi: int) -> tuple[int, int]:
        if hi - lo == 1:
            return 1, lo
        mid = (lo + hi) // 2
        (p1, q1), (p2, q2) = span(lo, mid), span(mid, hi)
        return p1 * q2 + p2 * q1, q1 * q2

    return Fraction(*span(1, k + 1)) if k else Fraction(0)


def _as_int(x: QuadExt) -> int:
    f = x.as_fraction()
    if f.denominator != 1:
        raise ValueError(f"{x} is not an integer")
    return f.numerator


# -- prime emergence -----------------------------------------------------------

EXACT_EMERGENCE_MAX_P = 31


def _normalized_ratio(point: QPoint | tuple, p: int) -> int:
    """omega_0(p | point | 2p) / psi(point, 2p) = p(p+1)...(2p-1), checked by
    ``second_fundamental`` at level 2p; KernelPointError where psi(point, 2p) = 0."""
    point = as_point(point)
    if not second_fundamental(point, 2 * p):
        raise KernelPointError(f"psi({point}, {2 * p}) = 0")
    return falling_factorial(2 * p)


@dataclass(frozen=True)
class EmergenceResult:
    """Outcome of one emergence check at (k, point), which ``emergence_check``
    returns only when p_{k+1} divides the top triangle entry and, on the
    exact path (``exact_path``), the psi-normalized ratio.  The gen1 fields
    are None when the exact path was not taken, either because p_k exceeds
    the exact bound or the point lies in the kernel at level 2 p_k.

    ``gen1_integer`` says whether the thinned ratio
    R / (p_k (2 p_k - 1)(2 p_k - 2)) is an integer, R being the
    psi-normalized ratio p_k (p_k + 1) ... (2 p_k - 1); it always is, and
    equals (p_k + 1) ... (2 p_k - 3).  ``gen1_divisible`` says whether
    p_{k+1} divides the thinned ratio.  It is False exactly when
    p_{k+1} = 2 p_k - 1, which happens only at k = 2 (thinned ratio 1).
    """

    k: int
    p_k: int
    p_next: int
    point: QPoint
    gen1_integer: bool | None
    gen1_divisible: bool | None
    exact_path: bool


def emergence_check(k: int, point: QPoint | tuple) -> EmergenceResult:
    """Emergence divisibility at the k-th prime: p_{k+1} divides the top
    triangle entry at level 2 p_k (checked modularly, any point), and on the
    exact path p_{k+1} divides the psi-normalized ratio as well.

    The exact path is taken when p_k is within the exact bound and the point
    is outside the kernel.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    point = as_point(point)
    p, q = nth_prime(k), nth_prime(k + 1)
    n = 2 * p
    if omega_top(point, n, modulus=q):
        raise TheoremViolationError(
            f"p_{k + 1}={q} does not divide the top entry at {point}, n={n}"
        )
    gen1_integer = gen1_divisible = None
    took_exact = False
    if p <= EXACT_EMERGENCE_MAX_P:
        try:
            ratio = _normalized_ratio(point, p)
        except KernelPointError:
            pass
        else:
            took_exact = True
            if ratio % q:
                raise TheoremViolationError(
                    f"p_{k + 1}={q} does not divide the normalized ratio at {point}"
                )
            base = p * (2 * p - 1) * (2 * p - 2)
            quotient, rem = divmod(ratio, base)
            gen1_integer = rem == 0
            if not gen1_integer:
                raise TheoremViolationError(
                    f"thinned ratio not integral at {point}, k={k}"
                )
            # Genuinely fails when p_{k+1} = 2 p_k - 1 (k = 2); recorded, not raised.
            gen1_divisible = quotient % q == 0
    return EmergenceResult(
        k=k,
        p_k=p,
        p_next=q,
        point=point,
        gen1_integer=gen1_integer,
        gen1_divisible=gen1_divisible,
        exact_path=took_exact,
    )


def emergence_combination_check(
    k: int, points: list[QPoint | tuple], coeffs: list[int]
) -> bool:
    """p_{k+1} divides any integer linear combination of the psi-normalized
    ratios over points outside the kernel at level 2 p_k."""
    if len(points) != len(coeffs):
        raise ValueError("points and coeffs must have equal length")
    if k < 2:
        raise ValueError("k must be >= 2")
    p, q = nth_prime(k), nth_prime(k + 1)
    total = 0
    for point, coeff in zip(points, coeffs):
        total += coeff * _normalized_ratio(point, p)
    return total % q == 0


def first_odd_primes_check(k: int, point: QPoint | tuple) -> bool:
    """prod(p_2 .. p_{k+1}) divides the psi-normalized ratio at level 2 p_k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    p = nth_prime(k)
    ratio = _normalized_ratio(point, p)
    modulus = prod(nth_prime(i) for i in range(2, k + 2))
    return ratio % modulus == 0


def lambda_emergence_check(k: int) -> bool:
    """p_{k+1} divides the companion-triangle value L_0(p_k - 1) / F(2 p_k)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    p, q = nth_prime(k), nth_prime(k + 1)
    top, _ = fib_lambda_table(2 * p)
    quotient, rem = divmod(top, fibonacci(2 * p))
    if rem:
        raise TheoremViolationError(f"companion top not divisible by F({2 * p})")
    return quotient % q == 0


def omega_space_probe(point: QPoint | tuple, n: int) -> str:
    """'member' when psi(point, n) != 0, else 'kernel'."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return "member" if psi_point(as_point(point), n) else "kernel"


# -- Mersenne / Fermat / perfect numbers ----------------------------------------

MERSENNE_POINT = QPoint(-2, -5)
MERSENNE_EXACT_MAX_P = 13
FERMAT_MAX_N = 12


def lucas_lehmer(p: int) -> bool:
    """Classical s_{i+1} = s_i^2 - 2 test, s_1 = 4; 2^p - 1 prime iff
    s_{p-1} == 0 mod 2^p - 1."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime >= 3")
    m = (1 << p) - 1
    s = 4 % m
    for _ in range(p - 2):
        s = (s * s - 2) % m
    return s == 0


def mersenne_test(p: int) -> bool:
    """Mersenne primality of 2^p - 1: 2^p - 1 is prime iff it divides
    psi(1, 4, 2^(p-1)).

    ``psi_point`` computes that residue by p - 2 squarings of its even-n tail,
    V <- V^2 - 2 from psi(1, 4, 2) = -4, which is the classical Lucas-Lehmer
    sequence.  ``lucas_lehmer`` recomputes it independently as a guard;
    disagreement is a library bug and raises TheoremViolationError.
    """
    if p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5")
    m = (1 << p) - 1
    verdict = not psi_point(QPoint(1, 4), 1 << (p - 1), m)
    if verdict != lucas_lehmer(p):
        raise TheoremViolationError(f"doubling chain disagrees with classical test at p={p}")
    return verdict


def mersenne_divisibility_equiv(p: int) -> bool:
    """Exact divisibility criteria for Mersenne primality: the (-2, -5) ratio
    dividing the (1, 4) ratio at n = 2^(p-1), and the equivalent product form
    over the (0, -1) values.  Both verdicts are checked against the modular
    doubling test."""
    if not is_prime(p) or p < 5:
        raise ValueError("p must be a prime >= 5")
    if p > MERSENNE_EXACT_MAX_P:
        raise FeasibilityError(
            f"exact path is bounded at p <= {MERSENNE_EXACT_MAX_P}; "
            f"use mersenne_test({p}) for the modular criterion"
        )
    n = 1 << (p - 1)
    top_a = _as_int(omega_top(MERSENNE_POINT, p))
    ff_p = falling_factorial(p)
    a_ratio, rem = divmod(top_a, ff_p)
    if rem:
        raise TheoremViolationError(f"(-2,-5) top entry not divisible at p={p}")
    top_b = _as_int(omega_top(QPoint(1, 4), n))
    ff_n = falling_factorial(n)
    b_ratio, rem = divmod(top_b, ff_n)
    if rem:
        raise TheoremViolationError(f"(1,4) top entry not divisible at n={n}")
    verdict = b_ratio % a_ratio == 0
    # product form; the (0, -1) tops are the falling factorials themselves
    product_verdict = (top_b * ff_p) % (ff_n * top_a) == 0
    if product_verdict != verdict:
        raise TheoremViolationError(f"ratio and product criteria disagree at p={p}")
    if verdict != mersenne_test(p):
        raise TheoremViolationError(f"exact criterion disagrees with doubling test at p={p}")
    return verdict


def perfect_number_check(N: int) -> bool:
    """Even perfect numbers: N = 2^(p-1) (2^p - 1) with 2^p - 1 prime.

    The verdict is cross-checked against sigma(N) == 2N in both directions.
    """
    if N < 2 or N % 2:
        raise ValueError("N must be even and >= 2")
    e = (N & -N).bit_length() - 1
    odd = N >> e
    p = e + 1
    shape_ok = odd == (1 << p) - 1
    if shape_ok and is_prime(p):
        verdict = mersenne_test(p) if p >= 5 else odd in (3, 7)
    else:
        verdict = False
    if verdict != (sigma(N) == 2 * N):
        raise TheoremViolationError(f"divisor-sum cross-check failed at N={N}")
    return verdict


def fermat_representation(n: int) -> int:
    """The fundamental ratio at the point (-2, -5) and N = 2^n, which is
    2^(2^n) + 1 (registry check G4 compares the two).  The top of the
    transcribed doubled-power triangle is checked against the generic
    engine's ratio times (N-1)...(N-N/2).  The triangle stays transcribed
    because it holds one level at a time: at n = 11 this peaked at 19 MiB
    RSS, and ``omega_table(MERSENNE_POINT, 2048).top()`` in the loop's
    place at 327 MiB; G4's overrides admit n up to 12."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > FERMAT_MAX_N:
        raise FeasibilityError(f"exact path is bounded at n <= {FERMAT_MAX_N}")
    N = 1 << n
    K = N // 2
    prev = [1] * (K + 1)
    for k in range(1, K + 1):
        prev = [
            (N - r - k) * prev[r] + 4 * (N - 2 * r - 1) * prev[r + 1]
            for r in range(K - k + 1)
        ]
    value = _as_int(second_fundamental(MERSENNE_POINT, N))
    if prev[0] != value * falling_factorial(N):
        raise TheoremViolationError(f"transcribed recurrence disagrees with engine at n={n}")
    return value


# -- classical identities --------------------------------------------------------


def combinatorial_identity_check(n: int) -> bool:
    """(n-1)...(n-floor(n/2)) == 2^(floor(n/2)-d(n+1)) times the descending
    odd-step product (n+d(n-1)-2)(n+d(n-1)-4)...1, built afresh; the
    reference of ``combinatorial_identity_checks``."""
    if n < 2:
        raise ValueError("n must be >= 2")
    K = n // 2
    shift = delta(n - 1)
    odds = range(n + shift - 2, n + shift - 2 * K - 1, -2)
    return _combinatorial_verdict(n, falling_factorial(n), prod(odds))


def combinatorial_identity_checks() -> Iterator[Callable[[], bool]]:
    """AU7's verdicts, n = 2, 3, ...: ``combinatorial_identity_check`` with both
    sides carried forward, not rebuilt for every n: ``_falling_factorials`` and
    the odd product of each parity, odds(n) = odds(n-2)(n+d(n-1)-2)."""
    odds = [1, 1]  # odds(n) of the last even and the last odd n
    for n, ff in zip(count(2), _falling_factorials()):
        odds[n & 1] *= n + delta(n - 1) - 2
        yield partial(_combinatorial_verdict, n, ff, odds[n & 1])


def _falling_factorials() -> Iterator[int]:
    """falling_factorial(n), n = 2, 3, ...: its factors gain n-1, and lose the lowest at odd n."""
    ff = 1
    for n in count(2):
        ff *= n - 1
        if n & 1:
            ff //= n - 1 - n // 2
        yield ff


def _combinatorial_verdict(n: int, ff: int, odds: int) -> bool:
    return ff == odds << (n // 2 - delta(n + 1))


def harmonic_congruence_check(n: int) -> bool:
    """For n = 1 mod 8: the falling-factorial product is congruent mod n^2 to
    m! 2^m - m! 2^(m-1) n H_k with m = (n-1)/2 and k = (n-1)/4.

    The right side is computed as an exact rational and checked integral
    before any reduction.
    """
    if n < 9 or n % 8 != 1:
        raise ValueError("n must be >= 9 and congruent to 1 mod 8")
    m = (n - 1) // 2
    k = (n - 1) // 4
    lhs = falling_factorial(n)
    rhs = Fraction(factorial(m) << m) - Fraction(factorial(m) * n << (m - 1)) * harmonic_number(k)
    if rhs.denominator != 1:
        raise TheoremViolationError(f"harmonic combination not integral at n={n}")
    return (lhs - rhs.numerator) % (n * n) == 0


# -- divisor-sum inequality -------------------------------------------------------

LAGARIAS_PRECISION_CAP = 16384
_SWEEP_BITS = 192  # iv precision of lagarias_sweep's H_n enclosures and right sides


def lagarias_check(n: int) -> str:
    """sigma(n) <= H_n + log(H_n) e^(H_n), decided by interval evaluation.

    H_n is exact; the transcendental right side is bracketed at increasing
    precision from 128 bits until the comparison resolves or the cap is hit
    ('undecided').  A resolved violation would disprove the inequality and
    raises TheoremViolationError.
    """
    import mpmath  # loaded where used: ``import quanta`` skips its start-up cost
    if n < 1:
        raise ValueError("n must be >= 1")
    s = sigma(n)
    if n == 1:
        return "holds"  # equality: sigma(1) = 1 = H_1 + log(H_1) e^(H_1)
    h = harmonic_number(n)
    iv = mpmath.iv
    bits = 128
    while bits <= LAGARIAS_PRECISION_CAP:
        saved = iv.prec
        try:
            iv.prec = bits
            hi = iv.mpf(h.numerator) / h.denominator
            rhs = hi + iv.log(hi) * iv.exp(hi)
            if s < rhs.a:
                return "holds_strict"
            if s > rhs.b:
                raise TheoremViolationError(f"divisor-sum inequality failed at n={n}")
        finally:
            iv.prec = saved
        bits *= 2
    return "undecided"


def _harmonic_enclosure(n: int, euler):
    """An iv interval holding H_n at the current iv precision, from the
    Euler-Maclaurin bounds 0 < H_n - ln n - gamma - 1/(2n) + 1/(12n^2) <
    1/(120n^4) (Knuth, TAOCP vol. 1, 1.2.7 eq. (3)): ln n + gamma + [r, r + 1]
    / (120n^4) with r = 60n^3 - 10n^2, `euler` the iv interval of gamma."""
    import mpmath
    iv = mpmath.iv
    r = 60 * n**3 - 10 * n**2
    return iv.log(n) + euler + iv.mpf([r, r + 1]) / (120 * n**4)


def lagarias_sweep(nmax: int) -> list[int]:
    """All n in [1, nmax] failing to resolve as holds/holds_strict.

    The right side grows with n, so once it exceeds an integer threshold every
    later n with sigma(n) (from the `_divisor_sums` sieve) at or below it holds.
    A scan in C finds each next n above the threshold; only that n gets its H_n
    enclosure (`_harmonic_enclosure`: the Euler-Maclaurin bounds of Knuth,
    TAOCP vol. 1, 1.2.7, at ``_SWEEP_BITS``) and the right side, and escalates
    to the exact per-n `lagarias_check` if it does not hold strictly.
    """
    import mpmath
    sums = memoryview(_divisor_sums(nmax))
    iv = mpmath.iv
    failures: list[int] = []
    threshold = -1

    def above() -> Iterator[int]:
        n = 0
        while n := next(compress(range(n + 1, nmax + 1), map(lt, repeat(threshold), sums[n + 1 :])), 0):
            yield n

    saved = iv.prec
    try:
        iv.prec = _SWEEP_BITS
        euler = +iv.euler  # gamma at this precision, evaluated once
        for n in above():
            h = _harmonic_enclosure(n, euler)
            rhs = h + iv.log(h) * iv.exp(h)
            if sums[n] < rhs.a:
                threshold = int(mpmath.floor(rhs.a)) - 1
            elif lagarias_check(n) == "undecided":
                failures.append(n)
    finally:
        iv.prec = saved
    return failures
