"""Property-based checks of the algebraic invariants."""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quanta.polynomials import UniPoly
from quanta.scalars import QuadExt, divides_int, format_scalar, parse_scalar
from quanta.sequences import (
    QPoint,
    falling_factorial,
    omega_table,
    omega_top,
    product_identity_check,
    psi_closed,
    psi_point,
    psi_rec,
    second_fundamental,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
radicands = st.sampled_from([0, 2, 3, 5, 7])


@st.composite
def quad_elements(draw, radicand=None):
    d = radicand if radicand is not None else draw(radicands)
    return QuadExt(draw(rationals), draw(rationals), d)


class TestRingAxioms:
    @given(x=quad_elements(2), y=quad_elements(2), z=quad_elements(2))
    @settings(max_examples=150)
    def test_associativity_and_distributivity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(x=quad_elements(), y=quad_elements(5))
    @settings(max_examples=150)
    def test_commutativity(self, x, y):
        if x.d in (0, y.d):
            assert x + y == y + x
            assert x * y == y * x

    @given(x=quad_elements(3), y=quad_elements(3))
    @settings(max_examples=150)
    def test_conjugation_is_multiplicative(self, x, y):
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    @given(x=quad_elements())
    @settings(max_examples=150)
    def test_division_round_trip(self, x):
        if x:
            assert x / x == 1
            assert (x * x) / x == x

    @given(x=quad_elements())
    @settings(max_examples=150)
    def test_normalization_idempotent(self, x):
        rebuilt = QuadExt(x.a, x.b, x.d)
        assert rebuilt == x
        assert (rebuilt.a, rebuilt.b, rebuilt.d) == (x.a, x.b, x.d)


def _canonical(c) -> bool:
    """An exact rational is an int exactly when it is integral."""
    return type(c) in (int, Fraction) and (type(c) is int) == (c.denominator == 1)


def _ref_mul(x, y, d):
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def _ref_poly_mul(p, q):
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


def _trimmed(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


class TestIntegerBackedRationals:
    """Ring results against by-hand Fraction arithmetic, and the storage
    invariant: every component or coefficient is an int exactly when it is
    integral."""

    @given(
        d=st.sampled_from([2, 3, 5, 7]),
        xs=st.tuples(rationals, rationals),
        ys=st.tuples(rationals, rationals),
        e=st.integers(0, 5),
    )
    @settings(max_examples=200)
    def test_quadext_ops_match_fraction_reference(self, d, xs, ys, e):
        x, y = QuadExt(*xs, d), QuadExt(*ys, d)
        xf = (Fraction(xs[0]), Fraction(xs[1]))
        yf = (Fraction(ys[0]), Fraction(ys[1]))
        expected = [
            (x + y, (xf[0] + yf[0], xf[1] + yf[1])),
            (x - y, (xf[0] - yf[0], xf[1] - yf[1])),
            (x * y, _ref_mul(xf, yf, d)),
            (x + 3, (xf[0] + 3, xf[1])),
            (x * -2, (xf[0] * -2, xf[1] * -2)),
            (x / 6, (xf[0] / 6, xf[1] / 6)),
        ]
        power = (Fraction(1), Fraction(0))
        for _ in range(e):
            power = _ref_mul(power, xf, d)
        expected.append((x**e, power))
        norm = yf[0] * yf[0] - yf[1] * yf[1] * d
        if norm:
            num = _ref_mul(xf, (yf[0], -yf[1]), d)
            expected.append((x / y, (num[0] / norm, num[1] / norm)))
        for got, (a, b) in expected:
            assert (got.a, got.b) == (a, b)
            assert got.d == (d if b else 0)
            assert _canonical(got.a) and _canonical(got.b)

    @given(x=quad_elements())
    @settings(max_examples=150)
    def test_constructed_components_are_canonical(self, x):
        assert _canonical(x.a) and _canonical(x.b)

    @given(
        p=st.lists(rationals, max_size=6),
        q=st.lists(rationals, max_size=6),
    )
    @settings(max_examples=150)
    def test_unipoly_ops_match_fraction_reference(self, p, q):
        up, uq = UniPoly(p), UniPoly(q)
        width = max(len(p), len(q))
        padded = [list(p) + [0] * (width - len(p)), list(q) + [0] * (width - len(q))]
        sums = [Fraction(u) + v for u, v in zip(*padded)]
        cases = [
            (up * uq, _ref_poly_mul(p, q)),
            (up + uq, sums),
            (up * 4, [Fraction(u) * 4 for u in p]),
            (up - uq, [Fraction(u) - v for u, v in zip(*padded)]),
            (4 - up, [4 - Fraction(u) if i == 0 else -u for i, u in enumerate(p or [0])]),
            (up / 3, [Fraction(u) / 3 for u in p]),
            (up**2, _ref_poly_mul(p, p)),
        ]
        for got, ref in cases:
            assert got.coeffs == _trimmed(ref)
            assert all(_canonical(c) for c in got.coeffs)
        assert (up == 3) == (_trimmed(p) == (3,))
        assert UniPoly([3]) == 3 and UniPoly() == 0

    @given(
        coeffs=st.lists(rationals, max_size=9),
        x=st.fractions(min_value=-20, max_value=20, max_denominator=30),
    )
    @example(coeffs=[], x=Fraction(-7, 3))
    @example(coeffs=[Fraction(1, 3), -2, 0, Fraction(5, 7)], x=Fraction(-5, 9))
    @settings(max_examples=150)
    def test_unipoly_evaluate_matches_naive_sum(self, coeffs, x):
        # integer Horner on p/q against sum c_i x^i in Fraction arithmetic
        naive = sum((Fraction(c) * x**i for i, c in enumerate(coeffs)), Fraction(0))
        got = UniPoly(coeffs).evaluate(x)
        assert got == naive and type(got) is Fraction


class TestDivisibilityAgainstBruteForce:
    @given(
        x=quad_elements(),
        m=st.integers(min_value=2, max_value=40),
    )
    @settings(max_examples=200)
    def test_divides_matches_witness(self, x, m):
        q = x.a.denominator * x.b.denominator // gcd(
            x.a.denominator, x.b.denominator
        )
        if gcd(q, m) != 1:
            return
        verdict = divides_int(m, x)
        w = x / m
        witness = (w.a * q).denominator == 1 and (w.b * q).denominator == 1
        assert verdict == witness


class TestTextRoundTrip:
    @given(x=quad_elements())
    @settings(max_examples=200)
    def test_parse_format(self, x):
        assert parse_scalar(format_scalar(x)) == x


nonzero_pairs = st.tuples(
    st.integers(-6, 6), st.integers(-6, 6)
).filter(lambda ab: ab != (0, 0))


class TestSequenceInvariants:
    @given(ab=nonzero_pairs, n=st.integers(1, 24), d=radicands, data=st.data())
    @settings(max_examples=120)
    def test_closed_form_matches_recurrence(self, ab, n, d, data):
        a, b = ab
        assert psi_closed(a, b, n) == psi_rec(a, b, n)
        qa, qb = data.draw(quad_elements(d)), data.draw(quad_elements(d))
        assert psi_closed(qa, qb, n) == psi_rec(qa, qb, n)

    @given(ab=nonzero_pairs, n=st.integers(0, 14), m=st.integers(0, 14))
    @settings(max_examples=120)
    def test_product_identity(self, ab, n, m):
        a, b = ab
        if n < m:
            n, m = m, n
        assert product_identity_check(a, b, n, m)

    @given(ab=nonzero_pairs, n=st.integers(2, 20))
    @settings(max_examples=80, deadline=None)
    def test_fundamental_ratio(self, ab, n):
        point = QPoint(*ab)
        assert second_fundamental(point, n) == psi_point(point, n)

    @given(
        ab=nonzero_pairs,
        n=st.integers(2, 14),
        m=st.sampled_from([3, 5, 7, 11, 13]),
    )
    @settings(max_examples=80, deadline=None)
    def test_modular_table_matches_exact(self, ab, n, m):
        point = QPoint(*ab)
        exact = omega_table(point, n)
        modular = omega_table(point, n, modulus=m)
        for k in range(n // 2 + 1):
            for r in range(n // 2 - k + 1):
                assert modular.entry(r, k) == int(exact.entry(r, k).a) % m

    @given(n=st.integers(1, 40))
    @settings(max_examples=40)
    def test_trivial_point_top_is_falling_factorial(self, n):
        assert omega_top(QPoint(0, -1), n) == falling_factorial(n)
