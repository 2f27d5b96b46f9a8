"""Prime machinery and arithmetic applications."""

import time
from fractions import Fraction
from math import prod

import mpmath
import pytest
from mpmath.libmp import to_rational

from quanta.scalars import QuadExt, SQRT2
from quanta.sequences import KernelPointError, QPoint, TheoremViolationError
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
    lucas_fib_representations,
    lucas_lehmer,
    mersenne_divisibility_equiv,
    mersenne_representation,
    mersenne_test,
    nth_prime,
    omega_space_probe,
    perfect_number_check,
    primes_upto,
    sigma,
)


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


class TestEmergence:
    def test_hand_case_unit_point(self):
        result = emergence_check(2, QPoint(1, 1))
        assert (result.p_k, result.p_next) == (3, 5)
        assert result.omega0_mod == 0
        assert result.ratio_divisible is True
        assert result.gen1_integer is True

    def test_closed_form_point(self):
        result = emergence_check(2, QPoint(1, -2))
        assert result.omega0_mod == 0
        assert result.ratio_divisible is True

    def test_modular_only_for_large_k(self):
        result = emergence_check(15, QPoint(1, 0))  # p_15 = 47 > exact bound
        assert result.p_k > EXACT_EMERGENCE_MAX_P
        assert result.omega0_mod == 0
        assert result.exact_path is False
        assert result.ratio_divisible is None

    def test_kernel_point_skips_exact_path(self):
        # (1, 0) lies in the kernel at every level 2p for odd prime p
        result = emergence_check(3, QPoint(1, 0))
        assert result.omega0_mod == 0
        assert result.exact_path is False

    def test_quadratic_point(self):
        result = emergence_check(2, QPoint(QuadExt(1), SQRT2))
        assert result.omega0_mod == 0

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
        expected = {5: True, 7: True, 11: False, 13: True}
        for p, want in expected.items():
            assert mersenne_test(p) is want
            assert lucas_lehmer(p) is want

    def test_precondition(self):
        with pytest.raises(ValueError):
            mersenne_test(4)
        with pytest.raises(ValueError):
            mersenne_test(3)

    def test_representation_hand_values(self):
        assert mersenne_representation(3) == 7
        assert mersenne_representation(5) == 31
        assert mersenne_representation(7) == 127

    def test_representation_triangle_levels(self):
        # hand recurrence at (-2, -5), p=5: level one is (24, 15), top is 372
        from quanta.sequences import QPoint, omega_table

        table = omega_table(QPoint(-2, -5), 5)
        assert [table.entry(r, 1) for r in range(2)] == [24, 15]
        assert table.top() == 372

    def test_representation_precondition(self):
        with pytest.raises(ValueError):
            mersenne_representation(4)

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
        assert lucas_fib_representations(4) == (7, 7)
        assert lucas_fib_representations(5) == (11, 5)
        assert lucas_fib_representations(2) == (3, 3)


class TestCombinatorialIdentity:
    @pytest.mark.parametrize("n", [2, 6, 7, 100, 101])
    def test_examples(self, n):
        assert combinatorial_identity_check(n)

    def test_sweep(self):
        assert all(combinatorial_identity_check(n) for n in range(2, 256))

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

    def test_brackets_enclose_harmonic_numbers(self):
        bits = 192
        one = 1 << bits
        h = Fraction(0)
        for n, lo, hi in primes._harmonic_brackets(2000, bits):
            h += Fraction(1, n)
            assert Fraction(lo, one) <= h <= Fraction(hi, one), n
            assert hi - lo <= n, n
        assert n == 2000
        assert h == harmonic_number(2000)

    def test_interval_contains_harmonic_number(self):
        # the endpoints have more bits than the precision, so a conversion
        # that rounds to nearest instead of outward would show here
        bits = 192
        h = Fraction(0)
        saved, mpmath.iv.prec = mpmath.iv.prec, bits
        try:
            for n, lo, hi in primes._harmonic_brackets(2000, bits):
                h += Fraction(1, n)
                a, b = primes._harmonic_interval(lo, hi, bits)._mpi_
                assert Fraction(*to_rational(a)) <= h <= Fraction(*to_rational(b)), n
        finally:
            mpmath.iv.prec = saved

    @pytest.mark.parametrize("N", [0, 1, 2, 2**14, 3**9, 7**5, 20000])
    def test_divisor_sums_match_sigma(self, N):
        # the tiny lagarias bounds stop at n = 200; this covers the sieve above it
        assert list(primes._divisor_sums(N))[1:] == [sigma(n) for n in range(1, N + 1)]

    def test_sweep_beyond_sieve_cap_is_refused(self):
        from quanta.verify import run_check

        start = time.perf_counter()
        report = run_check("lagarias", {"nmax": primes.SIEVE_MAX_LIMIT + 1})
        assert time.perf_counter() - start < 1.0
        assert report.status == "error"
        assert str(primes.SIEVE_MAX_LIMIT) in report.failures[0]["actual"]
        with pytest.raises(FeasibilityError):
            primes._divisor_sums(primes.SIEVE_MAX_LIMIT + 1)

    def test_sweep_matches_per_n_check(self):
        undecided = [n for n in range(1, 2001) if lagarias_check(n) == "undecided"]
        assert lagarias_sweep(2000) == undecided


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
