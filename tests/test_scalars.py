"""Exact scalar semantics: quadratic elements, residues, text round-trip."""

from fractions import Fraction

import pytest

from quanta.scalars import (
    GOLDEN,
    LocalizationError,
    QuadExt,
    RingMismatchError,
    SQRT2,
    SQRT5,
    ScalarParseError,
    divides_int,
    format_scalar,
    is_square_free,
    parse_scalar,
    reduce_mod,
)


class TestQuadExt:
    def test_square_expansion(self):
        x = QuadExt(1, 1, 2)
        assert x * x == QuadExt(3, 2, 2)

    def test_multiplicative_identity(self):
        x = QuadExt(Fraction(2, 3), Fraction(-5, 7), 3)
        assert x * QuadExt(1) == x
        assert 1 * x == x

    def test_conjugate_product(self):
        x = QuadExt(1, 1, 5)
        assert x * x.conjugate() == QuadExt(-4)
        assert x * x.conjugate() == -4

    def test_radicand_normalization(self):
        assert QuadExt(3, 5, 0) == QuadExt(3)
        assert QuadExt(3, 5, 1) == QuadExt(8)
        assert QuadExt(2, 0, 7).d == 0

    def test_square_free_validation(self):
        with pytest.raises(ValueError):
            QuadExt(0, 1, 4)
        with pytest.raises(ValueError):
            QuadExt(0, 1, 12)
        assert is_square_free(30)
        assert not is_square_free(18)

    def test_radicand_mismatch(self):
        with pytest.raises(RingMismatchError):
            SQRT2 * QuadExt(0, 1, 3)
        with pytest.raises(RingMismatchError):
            SQRT2 + QuadExt(0, 1, 5)

    def test_rational_coerces_into_any_radicand(self):
        assert QuadExt(2) + SQRT2 == QuadExt(2, 1, 2)
        assert QuadExt(Fraction(1, 2)) * SQRT5 == QuadExt(0, Fraction(1, 2), 5)

    def test_pow(self):
        x = 1 + SQRT2
        assert x**0 == 1
        assert x**2 == 3 + 2 * SQRT2
        assert x**5 == (x * x) * (x * x) * x
        with pytest.raises(ValueError):
            x ** (-1)

    def test_golden_ratio_identity(self):
        # phi^2 = phi + 1
        assert GOLDEN * GOLDEN == GOLDEN + 1

    def test_norm_and_inverse(self):
        x = QuadExt(1, -1, 2)
        assert x.norm() == -1
        assert x * x.inverse() == 1
        with pytest.raises(ZeroDivisionError):
            QuadExt(0).inverse()

    def test_integral_flags(self):
        assert QuadExt(3, -2, 5).is_integral
        assert not GOLDEN.is_integral
        assert QuadExt(4).is_rational
        assert not SQRT2.is_rational

    def test_hash_consistency_with_int(self):
        assert hash(QuadExt(7)) == hash(7)
        assert QuadExt(7) == 7

    def test_immutable(self):
        with pytest.raises(AttributeError):
            SQRT2.a = Fraction(1)


class TestExactTypeContract:
    """Components are int when integral, else Fraction; results that are
    rational by contract stay Fraction, and no division yields a float."""

    def test_rational_results_are_fractions(self):
        for x in (QuadExt(3), QuadExt(1, 1, 2), GOLDEN):
            assert type(x.norm()) is Fraction
        assert type(QuadExt(3).as_fraction()) is Fraction
        assert QuadExt(3).as_fraction() == 3

    def test_division_never_gives_float(self):
        half = QuadExt(3) / 2
        assert half == QuadExt(Fraction(3, 2))
        assert type(half.a) is Fraction
        inv = QuadExt(2).inverse()
        assert inv == QuadExt(Fraction(1, 2))
        assert type(inv.a) is Fraction
        assert type((QuadExt(6) / 3).a) is int
        assert type((2 / QuadExt(4)).a) is Fraction
        with pytest.raises(ZeroDivisionError):
            QuadExt(3) / 0

    def test_division_by_int_divides_both_components(self):
        x = QuadExt(Fraction(3, 4), -6, 5)
        for q in (1, -1, 2, -9, 12, 10**30):
            got, want = x / q, x * QuadExt(Fraction(1, q))
            assert got == want and (type(got.a), type(got.b)) == (type(want.a), type(want.b))
        assert (QuadExt(4, 6, 2) / 2) == QuadExt(2, 3, 2)
        assert type((QuadExt(4, 6, 2) / 2).b) is int
        with pytest.raises(ZeroDivisionError):
            QuadExt(0, 1, 2) / 0

    def test_integral_components_are_ints(self):
        x = QuadExt(Fraction(6, 2), Fraction(4, 2), 2)
        assert (type(x.a), type(x.b)) == (int, int)
        assert type((GOLDEN + GOLDEN.conjugate()).a) is int
        assert type((QuadExt(Fraction(1, 2)) * 2).a) is int

    def test_hash_ignores_representation(self):
        assert hash(QuadExt(3)) == hash(QuadExt(Fraction(6, 2))) == hash(3)


class TestDivisibility:
    def test_plain_integers(self):
        assert divides_int(5, QuadExt(120))
        assert divides_int(5, QuadExt(0))
        assert not divides_int(3, QuadExt(4, 6, 2))

    def test_denominator_localization(self):
        assert divides_int(5, QuadExt(Fraction(10, 3)))
        with pytest.raises(LocalizationError):
            divides_int(5, QuadExt(Fraction(1, 5)))

    def test_golden_components(self):
        # (5 + 5 sqrt5)/2 is 5 times an element with 5-coprime denominator
        x = QuadExt(Fraction(5, 2), Fraction(5, 2), 5)
        assert divides_int(5, x)
        assert not divides_int(3, x)

    def test_modulus_bound(self):
        with pytest.raises(ValueError):
            divides_int(1, QuadExt(6))

    def test_reduce_mod(self):
        assert reduce_mod(QuadExt(7, 12, 2), 5) == QuadExt(2, 2, 2)
        assert reduce_mod(QuadExt(Fraction(1, 2)), 7) == QuadExt(4)
        with pytest.raises(LocalizationError):
            reduce_mod(GOLDEN, 4)

    def test_reduce_mod_is_a_residue_quadext(self):
        # 7*sqrt(2) vanishes mod 7, so the residue is rational: d drops to 0
        residue = reduce_mod(QuadExt(3, 7, 2), 7)
        assert type(residue) is QuadExt and residue == QuadExt(3) and residue.d == 0
        for x, m in [(QuadExt(Fraction(-5, 3), Fraction(9, 2), 5), 11), (QuadExt(-40), 7)]:
            residue = reduce_mod(x, m)
            assert all(type(c) is int and 0 <= c < m for c in (residue.a, residue.b))
        assert divides_int(5, QuadExt(10)) is True
        assert divides_int(5, QuadExt(11)) is False


class TestExactDiv:
    def test_integers(self):
        assert QuadExt(120) / QuadExt(60) == 2

    def test_self_division(self):
        x = QuadExt(3, -4, 7)
        assert x / x == 1

    def test_conjugate_route(self):
        assert QuadExt(-4) / QuadExt(1, -1, 5) == QuadExt(1, 1, 5)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt(1) / QuadExt(0)


class TestTextForm:
    @pytest.mark.parametrize(
        "text",
        ["0", "3", "-1/2", "-1-1*sqrt(2)", "1/2+1/2*sqrt(5)", "2*sqrt(3)", "-7/3+2/5*sqrt(7)"],
    )
    def test_round_trip(self, text):
        assert format_scalar(parse_scalar(text)) == text

    def test_parse_variants(self):
        assert parse_scalar("sqrt(2)") == SQRT2
        assert parse_scalar("-sqrt(2)") == -SQRT2
        assert parse_scalar(" 1 + 1*sqrt(2) ") == 1 + SQRT2
        assert parse_scalar("3/6") == QuadExt(Fraction(1, 2))

    def test_format_examples(self):
        assert format_scalar(QuadExt(0, -1, 2)) == "-1*sqrt(2)"
        assert format_scalar(GOLDEN) == "1/2+1/2*sqrt(5)"
        assert format_scalar(QuadExt(-1, -1, 2)) == "-1-1*sqrt(2)"

    def test_parse_errors_carry_position(self):
        with pytest.raises(ScalarParseError) as err:
            parse_scalar("1 + + 2")
        assert err.value.pos >= 0
        with pytest.raises(ScalarParseError):
            parse_scalar("")
        with pytest.raises(ScalarParseError):
            parse_scalar("1*sqrt(2)+1*sqrt(3)")
        with pytest.raises(ScalarParseError):
            parse_scalar("1/0")
        with pytest.raises(ScalarParseError):
            parse_scalar("1*sqrt(8)")

    def test_sqrt_one_and_zero_fold(self):
        assert parse_scalar("2*sqrt(1)") == 2
        assert parse_scalar("5+3*sqrt(0)") == 5
