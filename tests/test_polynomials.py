"""Symbolic layer: psi as a polynomial, derivative ladders, Chebyshev/Dickson."""

import random
from fractions import Fraction
from itertools import islice
from math import comb, factorial

import pytest

from quanta import polynomials
from quanta.sequences import QPoint, _psi_values, omega_table, psi_rec
from quanta.polynomials import (
    BiPoly,
    UniPoly,
    _mirror_check,
    _three_term,
    chebyshev_checks,
    dickson_checks,
    dir_derivative,
    psi_bipoly,
    psi_k_poly,
    verify_derivative_expansion,
    verify_diff_ladder,
    verify_fundamental_psi,
)


class TestBiPoly:
    def test_arithmetic(self):
        a, b = BiPoly.var_a(), BiPoly.var_b()
        p = (a + b) * (a - b)
        assert p == a * a - b * b

    def test_zero_coefficients_dropped(self):
        a = BiPoly.var_a()
        assert not (a - a).coeffs

    def test_derivatives(self):
        a, b = BiPoly.var_a(), BiPoly.var_b()
        p = a * a * b
        assert p.deriv_a() == 2 * a * b
        assert p.deriv_b() == a * a

    def test_evaluate_generic(self):
        a, b = BiPoly.var_a(), BiPoly.var_b()
        p = 2 * a + 3 * b
        assert p.evaluate(Fraction(1, 2), Fraction(1, 3)) == 2

    def test_product_rule_on_samples(self):
        point = QPoint(2, -3)
        a, b = BiPoly.var_a(), BiPoly.var_b()
        p = a * a - 3 * b
        q = b * b + a
        lhs = dir_derivative(p * q, point)
        rhs = dir_derivative(p, point) * q + p * dir_derivative(q, point)
        assert lhs == rhs

    def test_derivative_additive(self):
        point = QPoint(1, 5)
        a, b = BiPoly.var_a(), BiPoly.var_b()
        p, q = a * b, b * b - a
        assert dir_derivative(p + q, point) == dir_derivative(p, point) + dir_derivative(q, point)


class TestUniPoly:
    def test_text_form(self):
        p = UniPoly([1, 0, Fraction(-2, 3)])
        assert p.to_text() == "1 + -2/3*x^2"

    def test_trailing_zeros_trimmed(self):
        assert UniPoly([1, 2, 0, 0]).degree == 1

    def test_horner_evaluation(self):
        p = UniPoly([1, -3, 0, 4])
        assert p.evaluate(Fraction(1, 2)) == 1 - Fraction(3, 2) + Fraction(1, 2)


class TestExactTypeContract:
    def test_coefficients_are_ints_when_integral(self):
        p = UniPoly([Fraction(4, 2), 1]) * UniPoly([3, Fraction(1, 2)])
        assert [type(c) for c in p.coeffs] == [int, int, Fraction]
        q = (BiPoly.var_a() + BiPoly.var_b()) ** 3
        assert all(type(c) is int for c in q.coeffs.values())

    def test_division_never_gives_float(self):
        assert UniPoly([3, 1]) / 2 == UniPoly([Fraction(3, 2), Fraction(1, 2)])
        assert all(type(c) is Fraction for c in (UniPoly([3, 1]) / 2).coeffs)
        half = BiPoly.const(3) / 2
        assert half == BiPoly.const(Fraction(3, 2))
        assert type(half.constant_value()) is Fraction

    def test_constant_value_is_fraction(self):
        assert type(BiPoly.const(3).constant_value()) is Fraction
        assert type(BiPoly().constant_value()) is Fraction


class TestPsiBipoly:
    def test_small_cases(self):
        a, b = BiPoly.var_a(), BiPoly.var_b()
        assert psi_bipoly(1) == BiPoly.const(1)
        assert psi_bipoly(2) == -b
        assert psi_bipoly(3) == -a - b

    @pytest.mark.parametrize("n", range(1, 18))
    def test_evaluations_match_recurrence(self, n):
        poly = psi_bipoly(n)
        rng = random.Random(n)
        pairs = [(1, 4), (-2, -5), (0, -1), (3, 7), (-1, -3)]
        while len(pairs) < 25:
            pairs.append((rng.randint(-9, 9), rng.randint(-9, 9)))
        for a, b in pairs:
            assert poly.evaluate(Fraction(a), Fraction(b)) == psi_rec(a, b, n)


class TestDirectionalDerivative:
    def test_linear_form(self):
        p = -BiPoly.var_a() - BiPoly.var_b()
        assert dir_derivative(p, QPoint(1, 1)) == BiPoly.const(-2)

    def test_zero_times_is_identity(self):
        p = psi_bipoly(6)
        assert dir_derivative(p, QPoint(1, 1), 0) == p

    def test_quadratic_point_rejected(self):
        from quanta.scalars import QuadExt, SQRT2

        with pytest.raises(ValueError):
            dir_derivative(psi_bipoly(4), QPoint(QuadExt(1), SQRT2))

    def test_taylor_coefficient_matches_derivative(self):
        # Taylor: the k-fold derivative along (alpha, beta) at (1, 4) is k!
        # times the t^k coefficient of psi(1 + alpha t, 4 + beta t, n); over
        # F1100's quick grid, points in [-2, 2]^2, n <= 14 and every k
        for alpha in range(-2, 3):
            for beta in range(-2, 3):
                if (alpha, beta) == (0, 0):
                    continue
                taylor = list(islice(_psi_values(UniPoly([1, alpha]), UniPoly([4, beta])), 15))
                for n in range(2, 15):
                    deriv, coeffs = psi_bipoly(n), taylor[n].coeffs
                    for k in range(n // 2 + 1):
                        if k:
                            deriv = dir_derivative(deriv, QPoint(alpha, beta))
                        expected = coeffs[k] * factorial(k) if k < len(coeffs) else 0
                        assert deriv.evaluate(1, 4) == expected, (alpha, beta, n, k)


class TestFundamentalCollapse:
    def test_unit_point_n4(self):
        assert verify_fundamental_psi(4, QPoint(1, 1))

    def test_trivial_point_n2(self):
        assert verify_fundamental_psi(2, QPoint(0, -1))

    def test_doubling_point_n3(self):
        assert verify_fundamental_psi(3, QPoint(1, -2))

    @pytest.mark.parametrize("n", range(2, 14))
    def test_sweep(self, n):
        assert verify_fundamental_psi(n, QPoint(2, -1))


class TestDiffLadder:
    def test_examples(self):
        assert verify_diff_ladder(omega_table(QPoint(1, 1), 5), 0)
        assert verify_diff_ladder(omega_table(QPoint(1, 0), 4), 1)
        assert verify_diff_ladder(omega_table(QPoint(3, -4), 2), 0)

    def test_range_check(self):
        with pytest.raises(ValueError):
            verify_diff_ladder(omega_table(QPoint(1, 1), 4), 2)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_sweep_with_expansion(self, n):
        base = psi_bipoly(n)
        for point in (QPoint(-1, 2), QPoint(Fraction(1, 2), Fraction(-3, 4))):
            table = omega_table(point, n)
            for r in range(n // 2):
                assert verify_diff_ladder(table, r)
            for k in range(n // 2 + 1):
                assert verify_derivative_expansion(table, k, base)

    def test_second_derivative_matches_expansion_poly(self):
        # two derivative steps of the degree-5 psi polynomial along (1, 1),
        # scaled by 1/2!, reproduce the k=2 expansion coefficient map
        assert verify_derivative_expansion(omega_table(QPoint(1, 1), 5), 2, psi_bipoly(5))

    def test_k_poly_top_is_constant(self):
        # top expansion polynomial is the signed psi value at the point
        point = QPoint(1, 1)
        top = psi_k_poly(omega_table(point, 7), 3)
        assert top.is_constant()
        assert top.constant_value() == -psi_rec(1, 1, 7)


def _chebyshev(count):
    """T_0, ..., T_(count-1), as Che steps them."""
    return list(islice(_three_term(1, UniPoly([0, 2]), 1), count))


def _dickson(count, alpha):
    """D_0(x, alpha), ..., D_(count-1)(x, alpha), as Dic steps them."""
    return list(islice(_three_term(2, UniPoly.var(), Fraction(alpha)), count))


def _chebyshev_formula(n):
    """T_n = (n/2) sum_k (-1)^k (n-k-1)!/(k! (n-2k)!) (2x)^(n-2k), n >= 1."""
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        term = Fraction(n * factorial(n - k - 1), 2 * factorial(k) * factorial(n - 2 * k))
        coeffs[n - 2 * k] = (-1) ** k * term * 2 ** (n - 2 * k)
    return UniPoly(coeffs)


def _dickson_formula(n, alpha):
    """D_n = sum_i n/(n-i) C(n-i, i) (-alpha)^i x^(n-2i), n >= 1."""
    coeffs = [Fraction(0)] * (n + 1)
    for i in range(n // 2 + 1):
        coeffs[n - 2 * i] = Fraction(n, n - i) * comb(n - i, i) * (-alpha) ** i
    return UniPoly(coeffs)


class TestChebyshev:
    def test_classical_values(self):
        assert _chebyshev(4) == [
            UniPoly([1]), UniPoly([0, 1]), UniPoly([-1, 0, 2]), UniPoly([0, -3, 0, 4])
        ]

    def test_explicit_coefficients(self):
        for n, poly in enumerate(_chebyshev(65)[1:], 1):
            assert poly == _chebyshev_formula(n), n

    @pytest.mark.parametrize("n", range(1, 24))
    def test_check(self, n):
        # the n-th verdict of Che's stream, called after the stream has moved on
        verdicts = list(islice(chebyshev_checks(), 23))
        assert verdicts[n - 1]()


class TestDickson:
    def test_classical_values(self):
        assert _dickson(4, 1)[3] == UniPoly([0, -3, 0, 1])
        assert _dickson(3, 2)[2] == UniPoly([-4, 0, 1])
        assert _dickson(2, 9) == [UniPoly([2]), UniPoly([0, 1])]

    def test_functional_identity(self):
        # D_n(y + alpha/y) = y^n + (alpha/y)^n
        d5 = _dickson(6, 3)[5]
        y = Fraction(2)
        assert d5.evaluate(y + 3 / y) == y**5 + (Fraction(3) / y) ** 5

    @pytest.mark.parametrize("alpha", [1, -1, 2, -2, 3])
    def test_explicit_coefficients(self, alpha):
        for n, poly in enumerate(_dickson(65, alpha)[1:], 1):
            assert poly == _dickson_formula(n, alpha), n

    @pytest.mark.parametrize("alpha", [1, -1, 2, -2, 3])
    def test_check(self, alpha):
        assert all(verdict() for verdict in islice(dickson_checks(alpha), 15))

    def test_wrong_classical_side_fails_its_own_n(self):
        # a classical stream that is wrong only at n = 4 fails that verdict alone
        def classical():
            for n, poly in enumerate(_three_term(2, UniPoly.var(), 1)):
                yield poly + 1 if n == 4 else poly

        verdicts = list(islice(_mirror_check(classical(), 1, 1, lambda n: 1), 8))
        assert [verdict() for verdict in verdicts] == [True] * 3 + [False] + [True] * 4

    @pytest.mark.parametrize("checks", [chebyshev_checks, lambda: dickson_checks(2)])
    def test_wrong_top_at_the_last_x_fails_the_verdict(self, monkeypatch, checks):
        # omega_top one too high only at the point (alpha, 2 alpha - c x^2) of
        # the last x of _EVAL_XS, c = 4 for Che and 1 for Dic
        x2, omega_top = polynomials._EVAL_XS[-1] ** 2, polynomials.omega_top

        def mutant(point, n, modulus=None):
            value = omega_top(point, n, modulus)
            return value + 1 if (2 * point.alpha - point.beta).a in (x2, 4 * x2) else value

        assert all(verdict() for verdict in islice(checks(), 6))
        monkeypatch.setattr(polynomials, "omega_top", mutant)
        assert [verdict() for verdict in islice(checks(), 6)] == [False] * 6
