"""Sequence engines: recurrences, triangles, fundamental identities."""

import json
from contextlib import nullcontext
from fractions import Fraction
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quanta import sequences
from quanta.scalars import (
    GOLDEN,
    LocalizationError,
    QuadExt,
    SQRT2,
    SQRT3,
    SQRT5,
    divides_int,
    reduce_mod,
)
from quanta.sequences import (
    DegeneratePointError,
    _expansion_column,
    _triangle,
    _unit_seed_top,
    KernelPointError,
    QPoint,
    TheoremViolationError,
    falling_factorial,
    fib_lambda_table,
    fibonacci,
    flipped_omega_coupling,
    lambda_from_omega,
    lambda_seed,
    lambda_table,
    lucas,
    omega_closed,
    omega_table,
    omega_top,
    product_identity_check,
    psi_closed,
    psi_expansion_identity_check,
    psi_k_expand,
    psi_point,
    psi_pow2,
    psi_rec,
    rising_product,
    second_fundamental,
    second_fundamental_v2,
    sums_of_powers_check,
)
from quanta.polynomials import dir_derivative, psi_bipoly
from quanta.verify import _QUAD_SAMPLE


class TestPsiRecurrence:
    def test_seeds(self):
        assert psi_rec(9, -7, 0) == 2
        assert psi_rec(9, -7, 1) == 1

    def test_hand_step(self):
        assert psi_rec(1, 4, 2) == -4

    def test_lucas_point(self):
        assert psi_rec(-1, -3, 4) == 7  # L(4)

    def test_fibonacci_point(self):
        assert psi_rec(1, -3, 5) == 5  # F(5)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            psi_rec(1, 1, -1)

    def test_generic_over_fractions(self):
        assert psi_rec(Fraction(1, 2), Fraction(1, 3), 2) == Fraction(-1, 3)

    def test_point_wrapper_quadratic(self):
        assert psi_point(QPoint(QuadExt(1), SQRT2), 2) == -SQRT2


# integer, rational, quadratic and mixed-denominator points for the lift
_LIFT_POINTS = [
    QPoint(1, 1),
    QPoint(0, -1),
    QPoint(Fraction(1, 2), Fraction(-3, 4)),
    QPoint(-3, Fraction(7, 2)),
    QPoint(QuadExt(1), SQRT2),
    QPoint(QuadExt(1), GOLDEN - 1),
    QPoint(QuadExt(2), SQRT3 - 1),
    QPoint(SQRT2 * Fraction(2, 3), QuadExt(Fraction(5, 7))),
    QPoint(Fraction(1, 3) + SQRT5 / 6, SQRT5),
]


class TestPsiPointLift:
    # psi_point runs on the point's integer lift; the generic recurrence on
    # the point's own components is its reference, canonical form included
    @pytest.mark.parametrize("point", _LIFT_POINTS, ids=str)
    def test_matches_generic_recurrence(self, point):
        for n in range(201):
            got, want = psi_point(point, n), psi_rec(point.alpha, point.beta, n)
            assert got == want, n
            assert repr(got) == repr(want), n
        with pytest.raises(ValueError):
            psi_point(point, -1)

    @given(
        a=st.fractions(max_denominator=30),
        b=st.fractions(max_denominator=30),
        n=st.integers(0, 60),
    )
    @settings(max_examples=150, deadline=None)
    def test_rational_points(self, a, b, n):
        assume(a or b)
        point = QPoint(a, b)
        got, want = psi_point(point, n), psi_rec(point.alpha, point.beta, n)
        assert got == want
        assert repr(got) == repr(want)

    def test_fractions_only_at_the_boundary(self, monkeypatch):
        point = QPoint(QuadExt(1), GOLDEN - 1)
        made = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        psi_point(point, 200)
        monkeypatch.undo()
        assert len(made) <= 8

    @pytest.mark.parametrize(
        "point",
        [
            QPoint(Fraction(1, 2), Fraction(-2, 3)),
            QPoint(GOLDEN, 1),
            QPoint(QuadExt(1), SQRT2),
            QPoint(2, 3),
            QPoint(Fraction(-2, 3), SQRT3 * Fraction(5, 7)),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("modulus", [7, 11, 12, 13])
    def test_modular_matches_reduced_exact_value(self, point, modulus):
        # reduce_mod of the exact value is an independent reference for the
        # residues psi_point keeps on the lift
        coprime = gcd(sequences._lift(point)[0], modulus) == 1
        for n in range(41):
            if not coprime:
                with pytest.raises(LocalizationError):
                    psi_point(point, n, modulus)
                continue
            got = psi_point(point, n, modulus)
            assert type(got) is QuadExt and got.d in (0, point.d), n
            assert got == reduce_mod(psi_point(point, n), modulus), n

    def test_lift_clears_every_denominator(self):
        point = QPoint(Fraction(1, 3) + SQRT5 / 6, Fraction(5, 4) * SQRT5)
        assert sequences._lift(point) == (12, (4, 2), (0, 15), 5)


# points far larger than either modulus: a modular value runs on the lift
# reduced mod m, and reduce_mod of the exact value is its reference
_HUGE_POINTS = [
    QPoint(10**60 + 7, -3),
    QPoint(Fraction(10**60, 3), 1),
    QPoint(QuadExt(1), SQRT2 * 10**60),
]


class TestModularLift:
    @staticmethod
    def residue(value, modulus):
        # every modular value is a QuadExt with int components in [0, m)
        assert type(value) is QuadExt
        assert all(type(c) is int and 0 <= c < modulus for c in (value.a, value.b))
        return value

    @pytest.mark.parametrize("modulus", [13, 1000003])
    @pytest.mark.parametrize("point", _HUGE_POINTS, ids=["int", "rational", "quadratic"])
    def test_residues_of_the_exact_values(self, point, modulus):
        m = modulus
        for n in range(31):
            want = reduce_mod(psi_point(point, n), m)
            assert self.residue(psi_point(point, n, m), m) == want, n
        for n in range(1, 31):
            want = reduce_mod(omega_top(point, n), m)
            assert self.residue(omega_top(point, n, m), m) == want, n
            table, exact = omega_table(point, n, m), omega_table(point, n)
            for k in range(n // 2 + 1):
                for r in range(n // 2 - k + 1):
                    want = reduce_mod(exact.entry(r, k), m)
                    assert self.residue(table.entry(r, k), m) == want, (n, r, k)
        a, b = point.alpha, point.beta
        for s in range(1, 8):
            if not point.is_rational:
                with pytest.raises(ValueError, match="rational parameters"):
                    psi_pow2(a, b, s, m)
                continue
            want = reduce_mod(psi_pow2(a, b, s), m)
            assert self.residue(psi_pow2(a, b, s, m), m) == want, s


class TestPsiClosed:
    def test_value_at_unit_point(self):
        assert psi_closed(1, 1, 5) == 1

    def test_signed_parity_point(self):
        # recurrence: 0, 1, -2, -3, 2; closed form of the (1, 2) table agrees
        assert psi_closed(1, 2, 4) == 2
        assert psi_rec(1, 2, 4) == 2

    def test_fibonacci_cross_check(self):
        assert psi_closed(1, -3, 5) == 5

    @pytest.mark.parametrize("n", range(1, 40))
    def test_matches_recurrence(self, n):
        assert psi_closed(3, -5, n) == psi_rec(3, -5, n)


class TestPsiPow2:
    def test_doubling_chain(self):
        assert psi_pow2(1, 4, 1) == -4
        assert psi_pow2(1, 4, 4) == 37634

    def test_modular_chain(self):
        result = psi_pow2(1, 4, 4, modulus=31)
        assert type(result) is QuadExt
        assert result == reduce_mod(psi_pow2(1, 4, 4), 31) == 0

    def test_agrees_with_recurrence(self):
        for s in range(1, 7):
            assert psi_pow2(3, -2, s) == psi_rec(3, -2, 1 << s)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            psi_pow2(1, 4, 3, modulus=1)
        with pytest.raises(ValueError):
            psi_pow2(1, 4, 0)


class TestProductIdentity:
    def test_doubling_case(self):
        assert product_identity_check(1, 4, 8, 8)

    def test_trivial_case(self):
        assert product_identity_check(5, 9, 0, 0)

    def test_lucas_case(self):
        assert product_identity_check(-1, -3, 5, 3)

    def test_order_precondition(self):
        with pytest.raises(ValueError):
            product_identity_check(1, 1, 2, 3)


# Integer points with 2z - x = 0 among them, e.g. (1, 2), where every diagonal
# multiplier vanishes; a rational point; the quadratic sample points.
_EQUIV_POINTS = [
    *(QPoint(z, x) for z in range(-3, 4) for x in range(-3, 4) if (z, x) != (0, 0)),
    QPoint(Fraction(1, 2), Fraction(-2, 3)),
    *_QUAD_SAMPLE,
    QPoint(QuadExt(1), SQRT5),
]


class TestOmegaTable:
    def test_hand_levels_n7(self):
        table = omega_table(QPoint(1, 1), 7)
        assert [table.entry(r, 1) for r in range(3)] == [-8, -5, -2]
        assert [table.entry(r, 2) for r in range(2)] == [30, 0]
        assert table.entry(0, 3) == 120
        assert table.top() == 120

    def test_hand_levels_n6(self):
        table = omega_table(QPoint(1, 1), 6)
        assert [table.entry(r, 1) for r in range(3)] == [-5, -2, 1]
        assert [table.entry(r, 2) for r in range(2)] == [0, -12]
        assert table.top() == 120

    def test_seed_row(self):
        table = omega_table(QPoint(-2, -5), 9)
        assert all(table.entry(r, 0) == 1 for r in range(5))

    @pytest.mark.parametrize("modulus", [None, 7, 13, 12])
    @pytest.mark.parametrize("point", _EQUIV_POINTS, ids=repr)
    def test_top_matches_table(self, point, modulus):
        # omega_top sums the triangle's paths; the full table is the reference
        for flipped in (False, True):
            with flipped_omega_coupling() if flipped else nullcontext():
                for n in range(1, 41):
                    try:
                        want = omega_table(point, n, modulus).top()
                    except LocalizationError:
                        with pytest.raises(LocalizationError):
                            omega_top(point, n, modulus)
                        continue
                    got = omega_top(point, n, modulus)
                    assert got == want and type(got) is type(want), (flipped, n)
                    if isinstance(want, QuadExt):
                        assert (type(got.a), type(got.b)) == (type(want.a), type(want.b))
                    if modulus is not None:
                        # both sides above divide by the scale in _unlift;
                        # reduce_mod of the exact top is an independent reference
                        want = reduce_mod(omega_top(point, n), modulus)
                        assert got == want, (flipped, n)

    def test_top_matches_table_at_large_n(self):
        assert omega_top(QPoint(1, 4), 1024) == omega_table(QPoint(1, 4), 1024).top()

    def test_modular_consistency(self):
        point = QPoint(2, -3)
        for n in (6, 9, 12):
            exact = omega_table(point, n)
            modular = omega_table(point, n, modulus=7)
            for k in range(n // 2 + 1):
                for r in range(n // 2 - k + 1):
                    got, want = modular.entry(r, k), reduce_mod(exact.entry(r, k), 7)
                    assert type(got) is QuadExt and got == want

    def test_quadratic_point(self):
        # top value at (1, sqrt2), n=6 equals ff(6) * psi = 60 * sqrt2
        table = omega_table(QPoint(QuadExt(1), SQRT2), 6)
        assert table.top() == 60 * SQRT2

    def test_golden_point_scale(self):
        point = QPoint(QuadExt(1), GOLDEN - 1)
        assert omega_top(point, 8) == falling_factorial(8) * psi_point(point, 8)

    def test_out_of_range_entry(self):
        table = omega_table(QPoint(1, 1), 7)
        with pytest.raises(IndexError):
            table.entry(2, 2)

    def test_json_round_trip(self):
        table = omega_table(QPoint(1, 1), 5)
        payload = json.loads(json.dumps(table.to_dict()))
        assert payload["n"] == 5
        assert payload["point"] == ["1", "1"]
        assert payload["modulus"] is None
        assert [0, 2, "12"] in payload["entries"]

    def test_stable_column(self):
        table = omega_table(QPoint(1, -2), 8)
        assert [table.entry(0, k) for k in range(5)] == [
            QuadExt(omega_closed((1, -2), 0, k, 8)) for k in range(5)
        ]


class TestOmegaClosed:
    def test_even_point_table(self):
        assert omega_closed((1, -2), 0, 3, 6) == 120

    def test_falling_factorial_point(self):
        assert omega_closed((0, -1), 0, 3, 7) == 120

    def test_empty_product(self):
        assert omega_closed((1, 2), 4, 0, 11) == 1

    def test_unsupported_point(self):
        with pytest.raises(ValueError):
            omega_closed((1, 1), 0, 1, 6)

    def test_out_of_triangle(self):
        with pytest.raises(ValueError):
            omega_closed((1, -2), 2, 3, 6)

    @pytest.mark.parametrize("point_id", [(1, -2), (1, 2), (0, -1)])
    def test_matches_table(self, point_id):
        for n in range(2, 16):
            table = omega_table(QPoint(*point_id), n)
            for k in range(n // 2 + 1):
                for r in range(n // 2 - k + 1):
                    assert table.entry(r, k) == omega_closed(point_id, r, k, n)


class TestLambdaTable:
    def test_seeds_n5(self):
        table = lambda_table(QPoint(1, 1), 5)
        assert [table.entry(r, 0) for r in range(3)] == [1, -5, 5]

    def test_symbolic_level_one(self):
        # lambda_0(1) = -alpha - 2 beta, checked at two rational points
        for alpha, beta in [(1, 1), (2, -3)]:
            table = lambda_table(QPoint(alpha, beta), 5)
            assert table.entry(0, 1) == -alpha - 2 * beta

    def test_unit_point_value(self):
        assert lambda_table(QPoint(1, 1), 5).entry(0, 1) == -3

    def test_factorial_divisibility(self):
        table = lambda_table(QPoint(3, -2), 12)
        for k in range(2, 7):
            for r in range(6 - k + 1):
                assert divides_int(factorial(k), table.entry(r, k))

    def test_bridge_from_omega(self):
        points = [
            QPoint(1, 1),
            QPoint(-2, 3),
            QPoint(QuadExt(1), SQRT2),
            QPoint(Fraction(1, 2), Fraction(-3, 4)),
        ]
        for point in points:
            for n in (5, 7, 10):
                table = lambda_table(point, n)
                otable = omega_table(point, n)
                for k in range(n // 2 + 1):
                    for r in range(n // 2 - k + 1):
                        assert lambda_from_omega(otable, r, k) == table.entry(r, k)

    def test_bridge_level_one_explicit(self):
        # factor 1/2 times omega_0(1) = -2 alpha - 4 beta
        assert lambda_from_omega(omega_table(QPoint(1, 1), 5), 0, 1) == -3

    @pytest.mark.parametrize(
        "point",
        [
            QPoint(Fraction(1, 2), Fraction(-3, 4)),
            QPoint(Fraction(-2, 3), Fraction(5, 7)),
            QPoint(GOLDEN, 1),
            QPoint(QuadExt(1), SQRT2),
            QPoint(SQRT3 * Fraction(2, 3), QuadExt(-1)),
        ],
        ids=str,
    )
    def test_scaled_points_match_the_recurrence(self, point):
        # the table runs on the lift and unlifts level k by s^k; the
        # recurrence over the point's own QuadExt components is the reference
        al, be = point.alpha, point.beta
        for n in range(2, 31):
            K = n // 2
            table = lambda_table(point, n)
            level = [QuadExt(lambda_seed(n, r)) for r in range(K + 1)]
            for k in range(K + 1):
                if k:
                    level = [
                        (2 * al - be) * (K - k - r + 1) * level[r] + al * (r + 1) * level[r + 1]
                        for r in range(K - k + 1)
                    ]
                for r, want in enumerate(level):
                    got = table.entry(r, k)
                    assert got == want and repr(got) == repr(want), (n, r, k)

    def test_fractions_only_in_the_seeds(self, monkeypatch):
        # a rational or quadratic point costs no more Fractions than an
        # integer one: the table is filled on the lift, and entries unlift
        # only when read
        points = [QPoint(3, -2), QPoint(Fraction(1, 2), Fraction(-3, 4)), QPoint(GOLDEN, 1)]
        made = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        counts = []
        for point in points:
            made.clear()
            monkeypatch.setattr(Fraction, "__new__", counting)
            lambda_table(point, 40)
            monkeypatch.undo()
            counts.append(len(made))
        assert counts == [counts[0]] * 3, counts


class TestPsiKExpand:
    def test_k0_reduces_to_psi(self):
        value, _ = psi_k_expand(1, 4, omega_table(QPoint(1, 1), 9), 0)
        assert value == psi_rec(1, 4, 9)

    def test_top_k_reduces_to_point_psi(self):
        for n in (6, 9):
            K = n // 2
            value, _ = psi_k_expand(1, 4, omega_table(QPoint(1, 1), n), K)
            expected = psi_point(QPoint(1, 1), n)
            assert value == (expected if K % 2 == 0 else -expected)

    def test_matches_directional_derivative(self):
        n, k = 5, 1
        point = QPoint(1, 1)
        value, _ = psi_k_expand(1, 4, omega_table(point, n), k)
        deriv = dir_derivative(psi_bipoly(n), point, k)
        expected = -deriv.evaluate(Fraction(1), Fraction(4))
        assert value == expected

    def test_integral_coefficients(self):
        _, coeffs = psi_k_expand(1, 4, omega_table(QPoint(-2, 3), 11), 2)
        assert all(c.is_integral for c in coeffs)

    def test_degenerate_point_rejected(self):
        with pytest.raises(DegeneratePointError):
            psi_k_expand(1, 2, omega_table(QPoint(1, 2), 6), 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            psi_k_expand(1, 4, omega_table(QPoint(1, 1), 6), 4)

    def test_modular_table_refused(self):
        # an expansion coefficient divides by factorials, which a residue
        # table cannot honour
        table = omega_table(QPoint(1, SQRT2), 9, modulus=7)
        with pytest.raises(ValueError):
            psi_k_expand(1, 4, table, 1)
        with pytest.raises(ValueError):
            lambda_from_omega(table, 0, 1)


class TestExpansionColumn:
    @pytest.mark.parametrize(
        "point",
        [QPoint(1, 1), QPoint(-2, 1), QPoint(0, -1), QPoint(Fraction(1, 2), Fraction(-3, 4))]
        + _QUAD_SAMPLE[:2],
        ids=str,
    )
    def test_column_is_the_coefficient_formula(self, point):
        # the reference divides the QuadExt entry; the column divides ints
        # wherever omega_r(k) is one
        for n in range(2, 17):
            table, K = omega_table(point, n), n // 2
            for k in range(K + 1):
                want = []
                for r in range(K - k + 1):
                    num = (-1) ** (r + k) * n * factorial(n - r - k - 1) * comb(K - r, k)
                    den = factorial(n - 2 * r) * factorial(r)
                    want.append(table.entry(r, k) * num / den)
                column = _expansion_column(table, k)
                assert column == want, (n, k)
                if point.is_integral:
                    assert all(type(c) is int for c in column), (n, k)

    def test_cached_per_table(self):
        first, second = omega_table(QPoint(1, 1), 9), omega_table(QPoint(1, 1), 9)
        column = _expansion_column(first, 2)
        assert _expansion_column(first, 2) is column
        assert _expansion_column(second, 2) is not column
        assert _expansion_column(second, 2) == column

    @pytest.mark.parametrize("point", [QPoint(1, 1), QPoint(1, SQRT2)], ids=str)
    def test_modular_table_refused(self, point):
        with pytest.raises(ValueError):
            _expansion_column(omega_table(point, 9, modulus=7), 1)

    @pytest.mark.parametrize("point", [QPoint(1, 1), QPoint(-2, 3)], ids=str)
    def test_int_and_quadext_arguments_agree(self, point):
        # int arguments at an integer point run on ints; QuadExt ones do not
        for n in range(2, 13):
            table = omega_table(point, n)
            for k in range(n // 2 + 1):
                got = psi_k_expand(1, 4, table, k)
                assert got == psi_k_expand(QuadExt(1), QuadExt(4), table, k)
                assert all(type(x) is QuadExt for x in [got[0], *got[1]])
            assert psi_expansion_identity_check(QuadExt(1), Fraction(4), table, 2, 1)


class TestSecondFundamental:
    def test_unit_point(self):
        assert second_fundamental(QPoint(1, 1), 7) == 1

    def test_doubling_point(self):
        assert second_fundamental(QPoint(1, -2), 6) == 2

    def test_trivial_point(self):
        for n in (4, 9, 14):
            assert second_fundamental(QPoint(0, -1), n) == 1

    def test_violation_reported_under_fault(self):
        with flipped_omega_coupling():
            with pytest.raises(TheoremViolationError):
                second_fundamental(QPoint(1, 1), 7)

    def test_v2_unit_point(self):
        assert second_fundamental_v2(QPoint(1, 1), 3) == 60
        assert second_fundamental_v2(QPoint(1, 1), 3) == rising_product(3)

    def test_v2_trivial_point(self):
        assert second_fundamental_v2(QPoint(0, -1), 2) == 6

    def test_v2_kernel_point(self):
        with pytest.raises(KernelPointError):
            second_fundamental_v2(QPoint(1, 0), 1)  # psi(1,0,2) = 0


class TestSumsOfPowers:
    def test_odd_case(self):
        assert sums_of_powers_check(2, 1, 3)

    def test_even_case(self):
        assert sums_of_powers_check(1, 1, 2)

    def test_degenerate_pair(self):
        assert sums_of_powers_check(1, 0, 5)

    def test_odd_antisymmetric_rejected(self):
        with pytest.raises(ValueError):
            sums_of_powers_check(2, -2, 3)

    @pytest.mark.parametrize("x,y", [(3, 2), (4, -1), (5, 5)])
    def test_sweep(self, x, y):
        assert all(sums_of_powers_check(x, y, n) for n in range(1, 15))


class TestExpansionIdentity:
    def test_reference_case(self):
        assert psi_expansion_identity_check(1, 4, omega_table(QPoint(1, 1), 4), 2, 1)

    def test_two_term_case(self):
        assert psi_expansion_identity_check(2, -1, omega_table(QPoint(1, -2), 2), 3, 1)

    def test_zero_alpha_point(self):
        assert psi_expansion_identity_check(1, 0, omega_table(QPoint(0, -1), 6), 1, 1)

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePointError):
            psi_expansion_identity_check(2, 4, omega_table(QPoint(1, 2), 4), 1, 1)


class TestFibTable:
    def test_hand_dp_n5(self):
        assert fib_lambda_table(5) == (60, 5)

    def test_top_matches_filled_triangle(self):
        # the filled triangle stays the reference for the path-sum top
        for n in range(2, 81):
            K = (n - 1) // 2
            diag = [n - j for j in range(K + 1)]
            coupling = [2 * (n - 1 - 2 * r - n % 2) for r in range(K)]
            want = _triangle([1] * (K + 1), diag, coupling)[K][0]
            assert _unit_seed_top(diag, coupling) == want
            assert fib_lambda_table(n)[0] == want

    def test_smallest_case(self):
        _, value = fib_lambda_table(2)
        assert value == 1

    def test_tenth(self):
        assert fib_lambda_table(10)[1] == 55

    @pytest.mark.parametrize("n", range(2, 40))
    def test_matches_fibonacci(self, n):
        assert fib_lambda_table(n)[1] == fibonacci(n)


class TestHelpers:
    def test_falling_factorial(self):
        assert falling_factorial(7) == 6 * 5 * 4
        assert falling_factorial(1) == 1

    def test_rising_product(self):
        assert rising_product(3) == 3 * 4 * 5

    def test_fib_lucas(self):
        assert [fibonacci(n) for n in range(7)] == [0, 1, 1, 2, 3, 5, 8]
        assert [lucas(n) for n in range(7)] == [2, 1, 3, 4, 7, 11, 18]

    def test_qpoint_rejects_zero(self):
        with pytest.raises(ValueError):
            QPoint(0, 0)

    def test_qpoint_mixed_radicand(self):
        with pytest.raises(Exception):
            QPoint(SQRT2, SQRT5)
