"""Prime machinery and arithmetic applications."""

import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import mpmath
import pytest
from mpmath.libmp import to_rational

import quanta
from quanta.scalars import QuadExt, SQRT2, reduce_mod
from quanta.sequences import (
    KernelPointError,
    QPoint,
    TheoremViolationError,
    omega_top,
    second_fundamental,
)
from quanta import primes
from quanta.primes import (
    EXACT_EMERGENCE_MAX_P,
    MILLER_RABIN_BOUND,
    FeasibilityError,
    PrimeCache,
    combinatorial_identity_check,
    emergence_check,
    emergence_combination_check,
    fermat_representation,
    first_odd_primes_check,
    harmonic_congruence_check,
    harmonic_number,
    is_prime,
    lagarias_check,
    lagarias_sweep,
    lambda_emergence_check,
    lucas_lehmer,
    mersenne_divisibility_equiv,
    mersenne_test,
    nth_prime,
    omega_space_probe,
    perfect_number_check,
    primes_upto,
    sigma,
)


def _harmonic_brackets(ns, bits):
    """(n, lo, hi) for each n of the increasing `ns`, with lo and hi the sums
    of floor(2^bits / k) and ceil(2^bits / k) over k <= n: an exact integer
    enclosure lo / 2^bits <= H_n <= hi / 2^bits, the reference for the
    sweep's enclosure."""
    one = 1 << bits
    lo = hi = done = 0
    for n in ns:
        lo += sum(one // k for k in range(done + 1, n + 1))
        hi += sum(-(-one // k) for k in range(done + 1, n + 1))
        done = n
        yield n, lo, hi


def _enclosure(n):
    """The ends of the sweep's H_n enclosure as Fractions."""
    saved, mpmath.iv.prec = mpmath.iv.prec, primes._SWEEP_BITS
    try:
        a, b = primes._harmonic_enclosure(n, +mpmath.iv.euler)._mpi_
    finally:
        mpmath.iv.prec = saved
    return Fraction(*to_rational(a)), Fraction(*to_rational(b))


def _record_calls(monkeypatch, name):
    """Patch ``primes.<name>`` to record the first argument of each call and
    return the record."""
    calls, original = [], getattr(primes, name)

    def spy(n, *rest):
        calls.append(n)
        return original(n, *rest)

    monkeypatch.setattr(primes, name, spy)
    return calls


class TestPrimeCache:
    def test_first_primes(self):
        assert nth_prime(1) == 2
        assert nth_prime(4) == 7
        assert nth_prime(10) == 29

    def test_auto_extension(self):
        cache = PrimeCache(limit=16)
        assert cache.nth(100) == 541

    def test_upto_and_membership(self):
        assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert is_prime(8191)
        assert not is_prime(2047)

    def test_above_limit_agrees_with_sieve(self):
        # every n above 16 goes through Miller-Rabin, and the sieve stays put
        cache = PrimeCache(limit=16)
        sieved = set(PrimeCache(limit=1 << 17).upto(1 << 17))
        wrong = [n for n in range(1 << 17) if cache.is_prime(n) != (n in sieved)]
        assert wrong == []
        assert cache.limit == 16

    @pytest.mark.parametrize(
        "n",
        [
            3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
            3825123056546413051,  # ... to the first 9 prime bases
            318665857834031151167461,  # ... to the first 12 prime bases
            (10**6 + 3) ** 2,
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_large_query_keeps_sieve(self):
        limit = primes._CACHE.limit
        assert is_prime(2**61 - 1)
        assert not is_prime((2**61 - 1) * (2**13 - 1))
        assert not is_prime((10**6 + 3) ** 2)
        assert primes._CACHE.limit == limit

    def test_sieve_growth_is_capped(self):
        limit = primes._CACHE.limit
        with pytest.raises(FeasibilityError, match="sieve cap"):
            primes_upto(10**12)
        assert primes._CACHE.limit == limit

    def test_constructor_is_capped(self):
        with pytest.raises(FeasibilityError, match="sieve cap"):
            PrimeCache(primes.SIEVE_MAX_LIMIT + 1)

    def test_nth_stops_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(primes, "SIEVE_MAX_LIMIT", 1 << 10)
        cache = PrimeCache(limit=16)
        assert cache.nth(172) == 1021  # the last prime below 2^10
        with pytest.raises(FeasibilityError, match="sieve cap"):
            cache.nth(173)
        assert cache.limit == 1 << 10

    def test_nth_rebuilds_once_at_a_power_of_two(self, monkeypatch):
        cache = PrimeCache(limit=16)
        limits, rebuild = [], PrimeCache._rebuild

        def spy(self, limit):
            limits.append(limit)
            rebuild(self, limit)

        monkeypatch.setattr(PrimeCache, "_rebuild", spy)
        assert cache.nth(100000) == 1299709
        assert limits == [cache.limit]
        assert cache.limit & (cache.limit - 1) == 0

    @pytest.mark.parametrize(
        "lost, p", [((13, 17, 19), 11), (range(62, 128), 61)], ids=["inner", "last"]
    )
    def test_gap_violation_raises(self, monkeypatch, lost, p):
        # a listing that loses every prime in (p, 2p); past the last prime
        # the check compares with limit + 1
        listed = primes.compress
        monkeypatch.setattr(
            primes, "compress", lambda data, flags: (x for x in listed(data, flags) if x not in lost)
        )
        with pytest.raises(primes.DataIntegrityError, match=f"between {p} and {2 * p}$"):
            PrimeCache(limit=128)

    def test_beyond_proven_bound_raises(self):
        assert not is_prime(MILLER_RABIN_BOUND - 1)  # even, and below the bound
        with pytest.raises(FeasibilityError):
            is_prime(MILLER_RABIN_BOUND)
        with pytest.raises(FeasibilityError):
            is_prime(2**89 - 1)


class TestSigma:
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (6, 12), (28, 56), (496, 992), (100, 217), (8128, 16256)]
    )
    def test_values(self, n, expected):
        assert sigma(n) == expected

    def test_brute_force_agreement(self):
        for n in range(1, 400):
            assert sigma(n) == sum(d for d in range(1, n + 1) if n % d == 0)


class TestHarmonicNumbers:
    def test_small_values(self):
        assert harmonic_number(1) == 1
        assert harmonic_number(2) == Fraction(3, 2)
        assert harmonic_number(4) == Fraction(25, 12)

    def test_balanced_matches_linear(self):
        acc = Fraction(0)
        for t in range(1, 60):
            acc += Fraction(1, t)
        assert harmonic_number(59) == acc

    def test_matches_running_sum(self):
        acc = Fraction(0)
        for k in range(1, 501):
            acc += Fraction(1, k)
            assert harmonic_number(k) == acc, k


class TestEmergence:
    @staticmethod
    def top_residue(result):
        # the residue of the top entry, which emergence_check found to be 0
        return omega_top(result.point, 2 * result.p_k, result.p_next)

    def test_hand_case_unit_point(self):
        result = emergence_check(2, QPoint(1, 1))
        assert (result.p_k, result.p_next) == (3, 5)
        assert not self.top_residue(result)
        assert result.exact_path is True  # it returned, so p_3 divides the ratio
        assert result.gen1_integer is True

    def test_closed_form_point(self):
        result = emergence_check(2, QPoint(1, -2))
        assert not self.top_residue(result)
        assert result.exact_path is True

    def test_modular_only_for_large_k(self):
        result = emergence_check(15, QPoint(1, 0))  # p_15 = 47 > exact bound
        assert result.p_k > EXACT_EMERGENCE_MAX_P
        assert not self.top_residue(result)
        assert result.exact_path is False

    def test_kernel_point_skips_exact_path(self):
        # (1, 0) lies in the kernel at every level 2p for odd prime p
        result = emergence_check(3, QPoint(1, 0))
        assert not self.top_residue(result)
        assert result.exact_path is False

    def test_quadratic_point(self):
        result = emergence_check(2, QPoint(QuadExt(1), SQRT2))
        assert not self.top_residue(result)

    def test_modular_top_at_emergence_levels(self):
        # the modulus p_{k+1} exceeds floor(n/2) = p_k, so it is prime to p_k!
        from quanta.verify import _EMERGENCE_POINTS

        for k in range(1, 61):
            n, q = 2 * nth_prime(k), nth_prime(k + 1)
            for point in _EMERGENCE_POINTS:
                assert omega_top(point, n, q) == reduce_mod(omega_top(point, n), q), (k, point)

    def test_nonzero_residue_raises(self, monkeypatch):
        top = primes.omega_top
        monkeypatch.setattr(primes, "omega_top", lambda *args, **kwargs: top(*args, **kwargs) + 1)
        with pytest.raises(TheoremViolationError, match="does not divide the top entry"):
            emergence_check(2, QPoint(1, 1))

    def test_gen1_counterexample_at_k2(self):
        # p_3 = 5 = 2*3 - 1 cancels from the thinned ratio: divisibility fails
        for point in [QPoint(1, 1), QPoint(1, -2), QPoint(0, -1)]:
            result = emergence_check(2, point)
            assert result.gen1_integer is True
            assert result.gen1_divisible is False

    def test_gen1_holds_beyond_k2(self):
        for k in range(3, 7):
            result = emergence_check(k, QPoint(1, 1))
            assert result.gen1_divisible is True

    def test_k_bound(self):
        with pytest.raises(ValueError):
            emergence_check(1, QPoint(1, 1))


class TestEmergenceCombination:
    def test_single_term(self):
        assert emergence_combination_check(2, [QPoint(1, 1)], [1])

    def test_two_terms(self):
        assert emergence_combination_check(2, [QPoint(1, 1), QPoint(1, -2)], [3, -2])

    def test_zero_combination(self):
        pts = [QPoint(1, 1), QPoint(2, 3)]
        assert emergence_combination_check(4, pts, [0, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            emergence_combination_check(2, [QPoint(1, 1)], [1, 2])

    def test_kernel_point_raises(self):
        with pytest.raises(KernelPointError):
            emergence_combination_check(2, [QPoint(1, 0)], [1])


class TestFirstOddPrimes:
    def test_unit_point(self):
        assert first_odd_primes_check(2, QPoint(1, 1))  # 15 | 60

    def test_k3(self):
        assert first_odd_primes_check(3, QPoint(1, 1))  # 105 | ratio at n=10

    def test_trivial_point(self):
        assert first_odd_primes_check(2, QPoint(0, -1))


class TestMersenne:
    def test_classification(self):
        expected = {5: True, 7: True, 11: False, 13: True, 2203: True, 2207: False}
        for p, want in expected.items():
            assert mersenne_test(p) is want
            assert lucas_lehmer(p) is want

    def test_precondition(self):
        with pytest.raises(ValueError):
            mersenne_test(4)
        with pytest.raises(ValueError):
            mersenne_test(3)

    def test_representation_hand_values(self):
        assert second_fundamental(primes.MERSENNE_POINT, 3) == 7
        assert second_fundamental(primes.MERSENNE_POINT, 5) == 31
        assert second_fundamental(primes.MERSENNE_POINT, 7) == 127

    def test_representation_triangle_levels(self):
        # hand recurrence at (-2, -5), p=5: level one is (24, 15), top is 372
        from quanta.sequences import QPoint, omega_table

        table = omega_table(QPoint(-2, -5), 5)
        assert [table.entry(r, 1) for r in range(2)] == [24, 15]
        assert table.top() == 372

    def test_divisibility_equiv_small(self):
        assert mersenne_divisibility_equiv(5) is True
        assert mersenne_divisibility_equiv(7) is True

    def test_divisibility_equiv_bound(self):
        with pytest.raises(FeasibilityError):
            mersenne_divisibility_equiv(17)


class TestPerfectNumbers:
    @pytest.mark.parametrize("n", [6, 28, 496, 8128])
    def test_perfect(self, n):
        assert perfect_number_check(n)

    @pytest.mark.parametrize("n", [100, 12, 2046, 2096128])
    def test_imperfect(self, n):
        assert not perfect_number_check(n)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            perfect_number_check(15)


class TestFermat:
    def test_hand_values(self):
        assert fermat_representation(1) == 5
        assert fermat_representation(2) == 17
        assert fermat_representation(4) == 65537

    def test_fifth(self):
        assert fermat_representation(5) == 4294967297

    def test_bound(self):
        with pytest.raises(FeasibilityError):
            fermat_representation(13)


class TestLucasFib:
    def test_hand_values(self):
        # the ratios at (-1, -3) and (1, -3): L(n), and F(n) or L(n) by parity
        for n, lucas_n, oscillating in [(4, 7, 7), (5, 11, 5), (2, 3, 3)]:
            assert second_fundamental(QPoint(-1, -3), n) == lucas_n
            assert second_fundamental(QPoint(1, -3), n) == oscillating


class TestCombinatorialIdentity:
    @pytest.mark.parametrize("n", [2, 6, 7, 100, 101])
    def test_examples(self, n):
        assert combinatorial_identity_check(n)

    def test_sweep(self):
        assert all(combinatorial_identity_check(n) for n in range(2, 256))

    def test_carried_verdicts_match_the_reference(self):
        # AU7's carried verdicts against the per-n reference, to twice AU7's full bound
        verdicts = primes.combinatorial_identity_checks()
        assert [next(verdicts)() for n in range(2, 4097)] == [
            combinatorial_identity_check(n) for n in range(2, 4097)
        ]

    def test_window_yields_the_falling_factorials(self):
        from quanta.sequences import falling_factorial

        window = primes._falling_factorials()
        assert [next(window) for n in range(2, 4097)] == [
            falling_factorial(n) for n in range(2, 4097)
        ]

    def test_falling_factorial_matches_range_product(self):
        from quanta.sequences import falling_factorial

        assert [falling_factorial(n) for n in range(301)] == [
            prod(range(n - n // 2, n)) for n in range(301)
        ]

    def test_right_side_matches_generator_form(self, monkeypatch):
        # with the left side replaced by the generator form of the right
        # side, the check holds exactly when its own right side equals it
        def generator_form(n):
            K = n // 2
            shift = (n - 1) & 1
            return 2 ** (K - ((n + 1) & 1)) * prod(n + shift - 2 * lam for lam in range(1, K + 1))

        monkeypatch.setattr(primes, "falling_factorial", generator_form)
        assert all(combinatorial_identity_check(n) for n in range(2, 601))


class TestHarmonicCongruence:
    def test_anchor_case(self):
        # n = 9: both sides congruent to 60 mod 81
        from quanta.sequences import falling_factorial

        assert falling_factorial(9) % 81 == 60
        assert harmonic_congruence_check(9)

    def test_n17(self):
        assert harmonic_congruence_check(17)

    def test_wrong_residue_class(self):
        with pytest.raises(ValueError):
            harmonic_congruence_check(10)
        with pytest.raises(ValueError):
            harmonic_congruence_check(1)  # below the stated range

    def test_sweep_to_105(self):
        assert all(harmonic_congruence_check(n) for n in range(9, 106, 8))


class TestLagarias:
    def test_equality_at_one(self):
        assert lagarias_check(1) == "holds"

    def test_strict_at_six(self):
        assert lagarias_check(6) == "holds_strict"

    def test_abundant_case(self):
        assert lagarias_check(5040) == "holds_strict"

    def test_sweep(self):
        assert lagarias_sweep(500) == []

    def test_enclosure_holds_harmonic_numbers(self):
        h = Fraction(0)
        for n in range(1, 2001):
            h += Fraction(1, n)
            a, b = _enclosure(n)
            assert a < h < b, n
        assert h == harmonic_number(2000)

    def test_enclosure_holds_integer_brackets_at_visited_n(self, monkeypatch):
        # at the n the full sweep visits, the enclosure holds the exact
        # outward-rounded sums of 1/k at _SWEEP_BITS fractional bits
        visited = _record_calls(monkeypatch, "_harmonic_enclosure")
        assert lagarias_sweep(100000) == []
        monkeypatch.undo()
        assert len(visited) == 74
        one = 1 << primes._SWEEP_BITS
        for n, lo, hi in _harmonic_brackets(visited, primes._SWEEP_BITS):
            a, b = _enclosure(n)
            assert a < Fraction(lo, one) <= Fraction(hi, one) < b, n

    @pytest.mark.parametrize("N", [0, 1, 2, 2**14, 3**9, 7**5, 20000])
    def test_divisor_sums_match_sigma(self, N):
        # the tiny lagarias bounds stop at n = 200; this covers the sieve above it
        assert list(primes._divisor_sums(N))[1:] == [sigma(n) for n in range(1, N + 1)]

    @pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8, 9, 2**12 - 1, 2**12, 2**12 + 1, 2**15 + 2])
    def test_divisor_sums_at_power_of_two_edges(self, N):
        # the last even n of each power of two, and odd nmax either side of one
        assert list(primes._divisor_sums(N))[1:] == [sigma(n) for n in range(1, N + 1)]

    def test_sweep_beyond_sieve_cap_is_refused(self):
        from quanta.verify import run_check

        # run_check's override rule refuses it before the sweep starts
        start = time.perf_counter()
        with pytest.raises(FeasibilityError, match="lagarias: product of max"):
            run_check("lagarias", {"nmax": primes.SIEVE_MAX_LIMIT + 1})
        assert time.perf_counter() - start < 1.0
        with pytest.raises(FeasibilityError):
            primes._divisor_sums(primes.SIEVE_MAX_LIMIT + 1)

    def test_sweep_matches_per_n_check(self):
        undecided = [n for n in range(1, 2001) if lagarias_check(n) == "undecided"]
        assert lagarias_sweep(2000) == undecided

    def test_full_sweep_visits_recorded_n(self, monkeypatch):
        # the 74 n above the running threshold, the only n whose H_n the
        # sweep encloses, recorded from the per-n loop before the sweep
        # skipped in C; of them only n = 1 escalates to the exact check
        visited = _record_calls(monkeypatch, "_harmonic_enclosure")
        escalated = _record_calls(monkeypatch, "lagarias_check")
        assert lagarias_sweep(100000) == []
        assert len(visited) == 74
        assert hashlib.sha256(repr(visited).encode()).hexdigest() == (
            "3be43dd3628bfb5bbf69ac1a7bf511856416fa95947e1218a9dcbe9926903b35"
        )
        assert escalated == [1]

    @pytest.mark.parametrize("N", [200, 2000, 400000])
    def test_sweep_escalates_only_n1(self, monkeypatch, N):
        escalated = _record_calls(monkeypatch, "lagarias_check")
        assert lagarias_sweep(N) == []
        assert escalated == [1]


class TestLambdaEmergence:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_small_k(self, k):
        assert lambda_emergence_check(k)


class TestOmegaSpaceProbe:
    def test_kernel_classes(self):
        assert omega_space_probe(QPoint(1, 0), 2) == "kernel"
        assert omega_space_probe(QPoint(1, 0), 6) == "kernel"

    def test_member_classes(self):
        assert omega_space_probe(QPoint(1, -1), 2) == "member"
        assert omega_space_probe(QPoint(0, -1), 17) == "member"


class TestImport:
    def test_import_quanta_leaves_mpmath_unloaded(self):
        # mpmath is imported inside the three functions that use it
        src = str(Path(quanta.__file__).resolve().parents[1])
        code = "import sys, quanta; print('mpmath' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr
