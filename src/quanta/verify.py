"""Registry of executable theorem checks with machine-readable reports.

Each check id names one verified identity, binds a default parameter grid
per profile (quick / full), and runs a sweep that records counterexamples.
Reports serialize to a fixed JSON schema and a CSV summary; identical bounds
and seed reproduce identical payloads (timing is zeroed in the canonical
form, since wall-clock time is the one field that cannot be reproducible).
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Mapping

from .scalars import GOLDEN, QuadExt, SQRT2, SQRT3, SQRT5
from .sequences import (
    KernelPointError,
    QPoint,
    TheoremViolationError,
    delta,
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
    product_identity_check,
    psi_closed,
    psi_expansion_identity_check,
    psi_k_expand,
    psi_point,
    psi_rec,
    second_fundamental,
    second_fundamental_v2,
    sums_of_powers_check,
)
from .polynomials import (
    chebyshev_check,
    dickson_check,
    dir_derivative,
    psi_bipoly,
    verify_derivative_expansion,
    verify_diff_ladder,
    verify_fundamental_psi,
)
from . import primes
from .primes import (
    emergence_check,
    emergence_combination_check,
    first_odd_primes_check,
    lambda_emergence_check,
    lucas_fib_representations,
    omega_space_probe,
)
from .scalars import divides_int, format_scalar, reduce_mod

__all__ = [
    "TheoremCheck",
    "TheoremReport",
    "REGISTRY",
    "OMEGA_TOUCHING_IDS",
    "SPECIAL_TABLES",
    "run_check",
    "run_all",
    "reports_to_csv",
    "mutation_sensitivity",
    "flipped_omega_coupling",
]


# -- report plumbing -----------------------------------------------------------


@dataclass
class TheoremReport:
    id: str
    anchor: str
    grid: str
    cases_run: int
    failures: list[dict]
    elapsed_ms: int
    status: str

    def to_dict(self, volatile: bool = True) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "grid": self.grid,
            "cases_run": self.cases_run,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms if volatile else 0,
            "status": self.status,
        }

    def to_json(self, volatile: bool = True) -> str:
        return json.dumps(self.to_dict(volatile), separators=(",", ":"))


MAX_FAILURES_RECORDED = 10


class Sweep:
    """Accumulates case outcomes; retains at most 10 counterexamples."""

    def __init__(self) -> None:
        self.cases_run = 0
        self.failed = 0
        self.failures: list[dict] = []

    def record(self, params: Mapping, fn: Callable[[], object]) -> None:
        self.cases_run += 1
        try:
            ok = fn()
        except (TheoremViolationError, KernelPointError) as exc:
            self._fail(params, "identity holds", f"{type(exc).__name__}: {exc}")
            return
        if ok is False:
            self._fail(params, "True", "False")

    def expect(self, params: Mapping, actual, expected) -> None:
        self.cases_run += 1
        if actual != expected:
            self._fail(params, _show(expected), _show(actual))

    def _fail(self, params: Mapping, expected: str, actual: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_RECORDED:
            self.failures.append(
                {"params": dict(params), "expected": expected, "actual": actual}
            )


def _show(value) -> str:
    if isinstance(value, QuadExt):
        return format_scalar(value)
    return str(value)


@dataclass(frozen=True)
class TheoremCheck:
    id: str
    anchor: str
    grid: str
    runner: Callable[[Mapping, random.Random], Sweep]
    touches_omega: bool
    quick: Mapping | None  # None: skipped under the quick profile
    full: Mapping
    tiny: Mapping = field(default_factory=dict)  # bounds for fault-injection runs


# -- special-point expectation tables -------------------------------------------


def _pm(n: int, period: int) -> int:
    return min(n % period, (-n) % period)


def _table_1_1(n: int) -> QuadExt:
    return QuadExt({0: 2, 1: 1, 2: -1, 3: -2}[_pm(n, 6)])


def _table_1_0(n: int) -> QuadExt:
    return QuadExt({0: 2, 1: 1, 2: 0, 3: -1, 4: -2}[_pm(n, 8)])


def _table_1_m1(n: int) -> QuadExt:
    return QuadExt({0: 2, 1: 1, 2: 1, 3: 0, 4: -1, 5: -1, 6: -2}[_pm(n, 12)])


def _table_1_m2(n: int) -> QuadExt:
    return QuadExt(2 ** delta(n + 1))


def _table_1_2(n: int) -> QuadExt:
    value = 2 ** delta(n - 1) * n ** delta(n)
    return QuadExt(-value if (n // 2) & 1 else value)


def _table_sqrt2(n: int) -> QuadExt:
    one = QuadExt(1)
    return {
        0: 2 * one,
        1: one,
        2: -SQRT2,
        3: -one - SQRT2,
        4: 0 * one,
        5: one + SQRT2,
        6: SQRT2,
        7: -one,
        8: -2 * one,
    }[_pm(n, 16)]


def _table_golden(n: int) -> QuadExt:
    one = QuadExt(1)
    return {
        0: 2 * one,
        1: one,
        2: one - GOLDEN,
        3: -GOLDEN,
        4: -GOLDEN,
        5: 0 * one,
        6: GOLDEN,
        7: GOLDEN,
        8: GOLDEN - one,
        9: -one,
        10: -2 * one,
    }[_pm(n, 20)]


def _table_sqrt3(n: int) -> QuadExt:
    one = QuadExt(1)
    return {
        0: 2 * one,
        1: one,
        2: -SQRT3,
        3: -one - SQRT3,
        4: one,
        5: 2 + SQRT3,
        6: 0 * one,
        7: -2 - SQRT3,
        8: -one,
        9: one + SQRT3,
        10: SQRT3,
        11: -one,
        12: -2 * one,
    }[_pm(n, 24)]


def _table_sqrt5(n: int) -> QuadExt:
    r = n % 4
    if r == 0:
        return QuadExt(lucas(n // 2))
    if r == 1:
        return lucas((n + 1) // 2) + fibonacci((n - 1) // 2) * SQRT5
    if r == 2:
        return -(fibonacci(n // 2) * SQRT5)
    return -lucas((n - 1) // 2) - fibonacci((n + 1) // 2) * SQRT5


# check id -> (point, residue period, expected psi value as a function of n)
SPECIAL_TABLES: dict[str, tuple[QPoint, int, Callable[[int], QuadExt]]] = {
    "PP00": (QPoint(1, 1), 6, _table_1_1),
    "PP00Q": (QPoint(1, 0), 8, _table_1_0),
    "PP1A": (QPoint(1, -1), 12, _table_1_m1),
    "ABAB": (QPoint(1, -2), 2, _table_1_m2),
    "DA": (QPoint(1, 2), 4, _table_1_2),
    "root2": (QPoint(QuadExt(1), SQRT2), 16, _table_sqrt2),
    "phi": (QPoint(QuadExt(1), GOLDEN - 1), 20, _table_golden),
    "root3": (QPoint(QuadExt(1), SQRT3), 24, _table_sqrt3),
    "FL": (QPoint(QuadExt(1), SQRT5), 4, _table_sqrt5),
}


# -- grids -----------------------------------------------------------------------


def _int_points(coord: int) -> list[QPoint]:
    return [
        QPoint(a, b)
        for a in range(-coord, coord + 1)
        for b in range(-coord, coord + 1)
        if (a, b) != (0, 0)
    ]


_EMERGENCE_POINTS = [
    QPoint(1, 1),
    QPoint(1, 0),
    QPoint(1, -1),
    QPoint(2, 3),
    QPoint(1, -2),
]

_QUAD_SAMPLE = [
    QPoint(QuadExt(1), SQRT2),
    QPoint(QuadExt(1), GOLDEN - 1),
    QPoint(QuadExt(2), SQRT3 - 1),
]


def _pairs(rng: random.Random, count: int, span: int = 6) -> list[tuple[int, int]]:
    out = []
    while len(out) < count:
        a, b = rng.randint(-span, span), rng.randint(-span, span)
        if (a, b) != (0, 0):
            out.append((a, b))
    return out


# -- runners ----------------------------------------------------------------------


def _run_def0(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 30)
    for a, b in _pairs(rng, 12) + [(1, 4), (-2, -5), (0, -1)]:
        sweep.expect({"a": a, "b": b, "n": 0}, psi_rec(a, b, 0), 2)
        sweep.expect({"a": a, "b": b, "n": 1}, psi_rec(a, b, 1), 1)
        for n in range(2, nmax + 1):
            step = (2 * a - b) ** delta(n - 1) * psi_rec(a, b, n - 1) - a * psi_rec(
                a, b, n - 2
            )
            sweep.expect({"a": a, "b": b, "n": n}, psi_rec(a, b, n), step)
    return sweep


def _run_comp3(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 40)
    cases = [(a, b) for a, b in _pairs(rng, 10)]
    cases += [(Fraction(1, 2), Fraction(-3, 5)), (Fraction(-2, 3), Fraction(7, 4))]
    for a, b in cases:
        for n in range(1, nmax + 1):
            sweep.expect(
                {"a": str(a), "b": str(b), "n": n}, psi_closed(a, b, n), psi_rec(a, b, n)
            )
    return sweep


def _run_00(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 30)
    from .sequences import _lucas_coeff

    for x, y in [(2, 1), (1, 1), (3, -1), (5, 2), (-2, 7), (1, 0)]:
        for n in range(1, nmax + 1):
            expansion = sum(
                (-1) ** i * _lucas_coeff(n, i) * (x * y) ** i * (x + y) ** (n - 2 * i)
                for i in range(n // 2 + 1)
            )
            sweep.expect({"x": x, "y": y, "n": n}, expansion, x**n + y**n)
    return sweep


def _run_ww4(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 30)
    for x, y in [(2, 1), (1, 1), (3, -1), (4, 3), (1, 0), (-3, 5)]:
        for n in range(1, nmax + 1):
            if n & 1 and x + y == 0:
                continue
            lhs = psi_point(QPoint(x * y, -x * x - y * y), n) * (x + y) ** delta(n)
            sweep.expect({"x": x, "y": y, "n": n}, lhs, QuadExt(x**n + y**n))
    return sweep


def _run_ww8(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 20)
    for a, b in _pairs(rng, 8) + [(1, 4), (-1, -3)]:
        for n in range(0, nmax + 1):
            for m in range(0, n + 1):
                sweep.record(
                    {"a": a, "b": b, "n": n, "m": m},
                    lambda a=a, b=b, n=n, m=m: product_identity_check(a, b, n, m),
                )
    return sweep


def _run_ex00(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 12)
    scalars = [(1, 4), (2, -1), (1, 0)]
    xys = [(2, 1), (1, 1), (3, -1)]
    for point in _int_points(2):
        for a, b in scalars:
            if not (point.beta * a - point.alpha * b):
                continue
            for x, y in xys:
                for n in range(2, nmax + 1):
                    sweep.record(
                        {"point": str(point), "a": a, "b": b, "x": x, "y": y, "n": n},
                        lambda point=point, a=a, b=b, x=x, y=y, n=n: (
                            psi_expansion_identity_check(a, b, point, x, y, n)
                        ),
                    )
    return sweep


def _run_diff1(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 14)
    points = [QPoint(1, 1), QPoint(1, 0), QPoint(-1, 2), QPoint(2, -1)]
    for point in points:
        for n in range(2, nmax + 1):
            for r in range(n // 2):
                sweep.record(
                    {"point": str(point), "n": n, "r": r},
                    lambda point=point, n=n, r=r: verify_diff_ladder(n, r, point),
                )
    return sweep


def _run_diff3(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 14)
    points = [QPoint(1, 1), QPoint(1, -2), QPoint(-2, 1), QPoint(1, 2)]
    for point in points:
        for n in range(2, nmax + 1):
            base = psi_bipoly(n)
            table = omega_table(point, n)
            for k in range(n // 2 + 1):
                sweep.record(
                    {"point": str(point), "n": n, "k": k},
                    lambda point=point, n=n, k=k, table=table, base=base: (
                        verify_derivative_expansion(n, k, point, table, base)
                    ),
                )
    return sweep


def _run_iaexp2(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 20)
    points = [QPoint(1, 1), QPoint(0, -1), QPoint(1, -2), QPoint(2, 3), QPoint(-1, -3)]
    for point in points:
        for n in range(2, nmax + 1):
            sweep.record(
                {"point": str(point), "n": n},
                lambda point=point, n=n: verify_fundamental_psi(n, point),
            )
    return sweep


def _run_g0(bounds, rng) -> Sweep:
    # The triangle builder against its own definition: unit seed row, a direct
    # recomputation of every level from the recurrence, and modular tables
    # agreeing with the exact table reduced.
    sweep = Sweep()
    nmax = bounds.get("nmax", 14)
    points = [QPoint(1, 1), QPoint(-2, -5), QPoint(2, 3)] + _QUAD_SAMPLE[:2]
    for point in points:
        al, be = point.alpha, point.beta
        big_a, big_b = 2 * al - be, 2 * al
        for n in range(2, nmax + 1):
            table = omega_table(point, n)
            K = n // 2
            dlt = delta(n - 1)
            for r in range(K + 1):
                sweep.expect(
                    {"point": str(point), "n": n, "r": r, "k": 0},
                    table.entry(r, 0),
                    QuadExt(1),
                )
            for k in range(1, K + 1):
                for r in range(K - k + 1):
                    direct = big_a * (n - r - k) * table.entry(r, k - 1) - big_b * (
                        n - 2 * r - dlt
                    ) * table.entry(r + 1, k - 1)
                    sweep.expect(
                        {"point": str(point), "n": n, "r": r, "k": k},
                        table.entry(r, k),
                        direct,
                    )
            m = rng.choice([5, 7, 11, 13])
            mod_table = omega_table(point, n, modulus=m)
            for k in range(K + 1):
                for r in range(K - k + 1):
                    expected_pair = reduce_mod(table.entry(r, k), m)
                    got = mod_table.entry(r, k)
                    actual_pair = (
                        (int(got.a) % m, int(got.b) % m)
                        if isinstance(got, QuadExt)
                        else (got.residue, 0)
                    )
                    sweep.expect(
                        {"point": str(point), "n": n, "r": r, "k": k, "mod": m},
                        actual_pair,
                        expected_pair,
                    )
    return sweep


def _run_fd3(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 20)
    points = [QPoint(1, 1), QPoint(1, -2), QPoint(-2, 3), QPoint(2, -1)]
    for point in points:
        al, be = point.alpha, point.beta
        for n in range(2, nmax + 1):
            table = lambda_table(point, n)
            K = n // 2
            for r in range(K + 1):
                sweep.expect(
                    {"point": str(point), "n": n, "r": r, "k": 0},
                    table.entry(r, 0),
                    QuadExt(lambda_seed(n, r)),
                )
            for k in range(1, K + 1):
                for r in range(K - k + 1):
                    direct = (2 * al - be) * (K - k - r + 1) * table.entry(r, k - 1) + (
                        al * (r + 1) * table.entry(r + 1, k - 1)
                    )
                    sweep.expect(
                        {"point": str(point), "n": n, "r": r, "k": k},
                        table.entry(r, k),
                        direct,
                    )
                    entry = table.entry(r, k)
                    if k >= 2:
                        sweep.record(
                            {"point": str(point), "n": n, "r": r, "k": k, "claim": "k!"},
                            lambda entry=entry, k=k: divides_int(factorial(k), entry),
                        )
    return sweep


def _run_h2(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 16)
    points = [QPoint(1, 1), QPoint(1, -2), QPoint(-1, 2)] + _QUAD_SAMPLE[:2]
    for point in points:
        for n in range(2, nmax + 1):
            otable = omega_table(point, n)
            ltable = lambda_table(point, n)
            K = n // 2
            for k in range(K + 1):
                for r in range(K - k + 1):
                    sweep.expect(
                        {"point": str(point), "n": n, "r": r, "k": k},
                        lambda_from_omega(point, n, r, k, otable),
                        ltable.entry(r, k),
                    )
    return sweep


def _run_f1100(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 16)
    coord = bounds.get("coord", 2)
    scalar_a, scalar_b = 1, 4
    for point in _int_points(coord):
        if not (point.beta * scalar_a - point.alpha * scalar_b):
            continue
        for n in range(2, nmax + 1):
            otable = omega_table(point, n)
            ltable = lambda_table(point, n)
            base = psi_bipoly(n)
            K = n // 2
            deriv = base
            kfact = 1
            for k in range(K + 1):
                if k:
                    deriv = dir_derivative(deriv, point)
                    kfact *= k
                try:
                    value, coeffs = psi_k_expand(scalar_a, scalar_b, point, n, k, otable)
                except TheoremViolationError as exc:
                    sweep.cases_run += 1
                    sweep._fail(
                        {"point": str(point), "n": n, "k": k},
                        "integral coefficients",
                        str(exc),
                    )
                    continue
                for r, c in enumerate(coeffs):
                    bridge = lambda_from_omega(point, n, r, k, otable) / kfact
                    if k & 1:
                        bridge = -bridge
                    sweep.expect(
                        {"point": str(point), "n": n, "k": k, "r": r, "path": "bridge"},
                        c,
                        bridge,
                    )
                    sweep.expect(
                        {"point": str(point), "n": n, "k": k, "r": r, "path": "k!|lam"},
                        divides_int(kfact, ltable.entry(r, k)) if kfact > 1 else True,
                        True,
                    )
                dval = deriv.evaluate(Fraction(scalar_a), Fraction(scalar_b)) / kfact
                if k & 1:
                    dval = -dval
                sweep.expect(
                    {"point": str(point), "n": n, "k": k, "path": "derivative"},
                    value,
                    QuadExt(dval),
                )
    return sweep


def _run_k00(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 40)
    coord = bounds.get("coord", 2)
    for point in _int_points(coord):
        for n in range(2, nmax + 1):
            sweep.record(
                {"point": str(point), "n": n},
                lambda point=point, n=n: second_fundamental(point, n) is not None,
            )
    return sweep


def _run_space4(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 30)
    for point in _int_points(2) + _QUAD_SAMPLE[:1]:
        for n in range(1, nmax + 1):
            if not psi_point(point, 2 * n):
                continue  # kernel point at this level: ratio undefined
            sweep.record(
                {"point": str(point), "n": n},
                lambda point=point, n=n: second_fundamental_v2(point, n)
                is not None,
            )
    return sweep


def _run_fa2(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 24)
    for x, y in [(2, 1), (1, 1), (3, -1), (4, 3), (1, 0), (5, -2)]:
        for n in range(1, nmax + 1):
            if n & 1 and x + y == 0:
                continue
            sweep.record(
                {"x": x, "y": y, "n": n},
                lambda x=x, y=y, n=n: sums_of_powers_check(x, y, n),
            )
    return sweep


_S1_FAMILIES = [
    ("(1,0)", QPoint(1, 0), 8, {1, 7}, lambda: QuadExt(1)),
    ("(1,-1)", QPoint(1, -1), 12, {2, 10}, lambda: QuadExt(1)),
    ("(1,sqrt2)", QPoint(QuadExt(1), SQRT2), 16, {3, 13}, lambda: -1 - SQRT2),
    ("(1,phi-1)", QPoint(QuadExt(1), GOLDEN - 1), 20, {4, 16}, lambda: -GOLDEN),
    ("(1,sqrt3)", QPoint(QuadExt(1), SQRT3), 24, {5, 19}, lambda: 2 + SQRT3),
]

_S11_FAMILIES = [
    ("(1,0)", QPoint(1, 0), 8, {2, 6}),
    ("(1,-1)", QPoint(1, -1), 12, {3, 9}),
    ("(1,sqrt2)", QPoint(QuadExt(1), SQRT2), 16, {4, 12}),
    ("(1,phi-1)", QPoint(QuadExt(1), GOLDEN - 1), 20, {5, 15}),
    ("(1,sqrt3)", QPoint(QuadExt(1), SQRT3), 24, {6, 18}),
]


def _run_s1(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 120)
    for label, point, period, residues, expected in _S1_FAMILIES:
        for n in range(1, nmax + 1):
            if n % period in residues:
                sweep.expect(
                    {"family": label, "n": n}, psi_point(point, n), expected()
                )
                sweep.expect(
                    {"family": label, "n": n, "probe": True},
                    omega_space_probe(point, n),
                    "member",
                )
    return sweep


def _run_s11(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 120)
    for label, point, period, residues in _S11_FAMILIES:
        for n in range(1, nmax + 1):
            if n % period in residues:
                sweep.expect({"family": label, "n": n}, psi_point(point, n), QuadExt(0))
                sweep.expect(
                    {"family": label, "n": n, "probe": True},
                    omega_space_probe(point, n),
                    "kernel",
                )
    return sweep


def _run_infinite_params(bounds, rng) -> Sweep:
    sweep = Sweep()
    kmax = bounds.get("kmax", 5)
    base_points = [QPoint(1, 1), QPoint(1, -2), QPoint(0, -1), QPoint(2, 3)]
    for k in range(2, kmax + 1):
        combos = [
            (base_points[:1], [1]),
            (base_points[:2], [3, -2]),
            (base_points, [0, 0, 0, 0]),
            (base_points, [rng.randint(-9, 9) for _ in base_points]),
        ]
        for i, (pts, coeffs) in enumerate(combos):
            sweep.record(
                {"k": k, "combo": i, "coeffs": list(coeffs)},
                lambda k=k, pts=pts, coeffs=coeffs: emergence_combination_check(
                    k, pts, coeffs
                ),
            )
    return sweep


def _run_gen1(bounds, rng) -> Sweep:
    sweep = Sweep()
    kmax = bounds.get("kmax", 6)
    points = [QPoint(1, 1), QPoint(1, -2), QPoint(0, -1), QPoint(2, 3)]
    for k in range(2, kmax + 1):
        for point in points:
            try:
                result = emergence_check(k, point)
            except (TheoremViolationError, KernelPointError) as exc:
                sweep.cases_run += 1
                sweep._fail(
                    {"k": k, "point": str(point)}, "identity holds", str(exc)
                )
                continue
            if not result.exact_path:
                continue
            sweep.expect(
                {"k": k, "point": str(point), "claim": "integer"},
                result.gen1_integer,
                True,
            )
            sweep.expect(
                {"k": k, "point": str(point), "claim": "divisible"},
                result.gen1_divisible,
                True,
            )
    return sweep


def _run_gen2(bounds, rng) -> Sweep:
    sweep = Sweep()
    kmax = bounds.get("kmax", 10)
    for k in range(2, kmax + 1):
        for point in _EMERGENCE_POINTS:
            sweep.record(
                {"k": k, "point": str(point)},
                lambda k=k, point=point: emergence_check(k, point).omega0_mod == 0,
            )
    return sweep


def _run_gen5(bounds, rng) -> Sweep:
    sweep = Sweep()
    kmax = bounds.get("kmax", 5)
    points = [QPoint(1, 1), QPoint(1, -2), QPoint(0, -1), QPoint(2, 3)]
    for k in range(2, kmax + 1):
        for point in points:
            sweep.record(
                {"k": k, "point": str(point)},
                lambda k=k, point=point: first_odd_primes_check(k, point),
            )
    return sweep


def _closed_form_runner(point_id: tuple[int, int]) -> Callable:
    def run(bounds, rng) -> Sweep:
        sweep = Sweep()
        nmax = bounds.get("nmax", 30)
        point = QPoint(*point_id)
        for n in range(2, nmax + 1):
            table = omega_table(point, n)
            K = n // 2
            for k in range(K + 1):
                for r in range(K - k + 1):
                    sweep.expect(
                        {"point": str(point), "n": n, "r": r, "k": k},
                        table.entry(r, k),
                        QuadExt(omega_closed(point_id, r, k, n)),
                    )
            if point_id == (0, -1):
                sweep.expect(
                    {"point": str(point), "n": n, "claim": "top=ff"},
                    table.top(),
                    QuadExt(falling_factorial(n)),
                )
            if point_id == (1, -2):
                explicit = 2 ** K
                term = n + delta(n - 1) - 2
                while term >= 1:
                    explicit *= term
                    term -= 2
                sweep.expect(
                    {"point": str(point), "n": n, "claim": "descending-odds"},
                    table.top(),
                    QuadExt(explicit),
                )
        return sweep

    return run


def _table_runner(table_id: str) -> Callable:
    def run(bounds, rng) -> Sweep:
        sweep = Sweep()
        nmax = bounds.get("nmax", 60)
        point, _, expected = SPECIAL_TABLES[table_id]
        for n in range(2, nmax + 1):
            try:
                value = second_fundamental(point, n)
            except TheoremViolationError as exc:
                sweep.cases_run += 1
                sweep._fail({"n": n}, "ratio == psi", str(exc))
                continue
            sweep.expect({"n": n}, value, expected(n))
        return sweep

    return run


def _run_au7(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 400)
    from .primes import combinatorial_identity_check

    for n in range(2, nmax + 1):
        sweep.record({"n": n}, lambda n=n: combinatorial_identity_check(n))
    return sweep


_KNOWN_MERSENNE_EXPONENTS = {5, 7, 13, 17, 19, 31}


def _run_u14(bounds, rng) -> Sweep:
    sweep = Sweep()
    pset = bounds.get("pset", [5, 7, 11, 13, 17, 19, 23, 29, 31])
    for p in pset:
        sweep.expect(
            {"p": p, "path": "doubling"},
            primes.mersenne_test(p),
            p in _KNOWN_MERSENNE_EXPONENTS,
        )
        sweep.expect(
            {"p": p, "path": "classical"},
            primes.lucas_lehmer(p),
            p in _KNOWN_MERSENNE_EXPONENTS,
        )
    return sweep


def _run_u16(bounds, rng) -> Sweep:
    sweep = Sweep()
    pset = bounds.get("pset", [5, 7])
    for p in pset:
        n = 1 << (p - 1)
        sweep.record(
            {"p": p},
            lambda p=p, n=n: divides_int(2 * n - 1, second_fundamental(QPoint(1, 4), n))
            == (p in _KNOWN_MERSENNE_EXPONENTS),
        )
    return sweep


def _run_u18(bounds, rng) -> Sweep:
    sweep = Sweep()
    perfect = [6, 28, 496, 8128, 33550336]
    imperfect = [100, 12, 2046, 2096128, 33550334]
    for N in perfect:
        sweep.expect({"N": N}, primes.perfect_number_check(N), True)
    for N in imperfect:
        sweep.expect({"N": N}, primes.perfect_number_check(N), False)
    return sweep


def _run_g2f(bounds, rng) -> Sweep:
    sweep = Sweep()
    pmax = bounds.get("pmax", 15)
    for p in range(3, pmax + 1, 2):
        sweep.record(
            {"p": p},
            lambda p=p: primes.mersenne_representation(p) == (1 << p) - 1,
        )
    return sweep


def _equiv_runner(bounds, rng) -> Sweep:
    sweep = Sweep()
    pset = bounds.get("pset", [5, 7, 11, 13])
    for p in pset:
        sweep.record(
            {"p": p},
            lambda p=p: primes.mersenne_divisibility_equiv(p)
            == (p in _KNOWN_MERSENNE_EXPONENTS),
        )
    return sweep


def _run_g4(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 5)
    expected = {1: 5, 2: 17, 3: 257, 4: 65537, 5: 4294967297}
    for n in range(1, nmax + 1):
        sweep.record(
            {"n": n},
            lambda n=n: primes.fermat_representation(n)
            == expected.get(n, (1 << (1 << n)) + 1),
        )
    return sweep


def _run_g6(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 60)
    for n in range(2, nmax + 1):
        sweep.record(
            {"n": n}, lambda n=n: lucas_fib_representations(n)[0] == lucas(n)
        )
    return sweep


def _run_g7(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 60)
    for n in range(2, nmax + 1):
        expected = fibonacci(n) if n & 1 else lucas(n)
        sweep.record(
            {"n": n},
            lambda n=n, expected=expected: lucas_fib_representations(n)[1]
            == expected,
        )
    return sweep


_TEN_EVAL_XS = tuple(Fraction(i, 4) for i in (-7, -5, -3, -1, 1, 3, 5, 7, 9, 11))


def _run_che(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 32)
    for n in range(1, nmax + 1):
        sweep.record(
            {"n": n}, lambda n=n: chebyshev_check(n, eval_points=_TEN_EVAL_XS)
        )
    return sweep


def _run_dic(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 32)
    for alpha in bounds.get("alphas", [1, -1, 2, -2, 3]):
        for n in range(1, nmax + 1):
            sweep.record(
                {"n": n, "alpha": alpha},
                lambda n=n, alpha=alpha: dickson_check(
                    n, alpha, eval_points=_TEN_EVAL_XS
                ),
            )
    return sweep


def _run_g6x(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 60)
    for n in range(2, nmax + 1):
        sweep.record(
            {"n": n}, lambda n=n: fib_lambda_table(n)[1] == fibonacci(n)
        )
    return sweep


def _run_primefib(bounds, rng) -> Sweep:
    sweep = Sweep()
    kmax = bounds.get("kmax", 8)
    for k in range(2, kmax + 1):
        sweep.record({"k": k}, lambda k=k: lambda_emergence_check(k))
    return sweep


def _run_harmonic(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 201)
    for n in range(9, nmax + 1, 8):
        sweep.record({"n": n}, lambda n=n: primes.harmonic_congruence_check(n))
    return sweep


def _run_lagarias(bounds, rng) -> Sweep:
    sweep = Sweep()
    nmax = bounds.get("nmax", 2000)
    offenders = primes.lagarias_sweep(nmax)
    sweep.cases_run = nmax
    for n in offenders:
        sweep._fail({"n": n}, "holds", "undecided or violated")
    return sweep


# -- registry ---------------------------------------------------------------------


def _check(
    id: str,
    anchor: str,
    grid: str,
    runner: Callable,
    *,
    omega: bool,
    quick: Mapping | None,
    full: Mapping,
    tiny: Mapping | None = None,
) -> TheoremCheck:
    return TheoremCheck(
        id=id,
        anchor=anchor,
        grid=grid,
        runner=runner,
        touches_omega=omega,
        quick=quick,
        full=full,
        tiny=dict(tiny) if tiny is not None else dict(quick or full),
    )


REGISTRY: dict[str, TheoremCheck] = {
    c.id: c
    for c in [
        _check(
            "def0",
            "seed values and step of the psi recurrence",
            "random and fixed (a,b); n up to nmax",
            _run_def0,
            omega=False,
            quick={"nmax": 24},
            full={"nmax": 48},
            tiny={"nmax": 8},
        ),
        _check(
            "comp3",
            "half-length closed form equals the psi recurrence",
            "random integer and rational (a,b); n up to nmax",
            _run_comp3,
            omega=False,
            quick={"nmax": 32},
            full={"nmax": 64},
            tiny={"nmax": 10},
        ),
        _check(
            "00",
            "power-sum expansion of x^n + y^n in xy and x+y",
            "fixed (x,y) pairs; n up to nmax",
            _run_00,
            omega=False,
            quick={"nmax": 40},
            full={"nmax": 80},
            tiny={"nmax": 10},
        ),
        _check(
            "WW4",
            "psi(xy, -x^2-y^2, n) equals (x^n+y^n)/(x+y)^(n mod 2)",
            "fixed (x,y) pairs; n up to nmax",
            _run_ww4,
            omega=False,
            quick={"nmax": 40},
            full={"nmax": 80},
            tiny={"nmax": 10},
        ),
        _check(
            "WW8",
            "product-of-psi doubling identity",
            "random (a,b); all 0 <= m <= n <= nmax",
            _run_ww8,
            omega=False,
            quick={"nmax": 16},
            full={"nmax": 24},
            tiny={"nmax": 8},
        ),
        _check(
            "ex00",
            "two-form expansion of the scaled power sum",
            "integer points coord<=2; fixed scalars; n up to nmax",
            _run_ex00,
            omega=True,
            quick={"nmax": 10},
            full={"nmax": 16},
            tiny={"nmax": 8},
        ),
        _check(
            "diff1",
            "directional derivative lowers the expansion index with factor -(r+1)",
            "rational points; n up to nmax; all r",
            _run_diff1,
            omega=True,
            quick={"nmax": 12},
            full={"nmax": 20},
            tiny={"nmax": 8},
        ),
        _check(
            "diff3",
            "expansion polynomial equals the scaled k-fold directional derivative",
            "rational points; n up to nmax; all k",
            _run_diff3,
            omega=True,
            quick={"nmax": 12},
            full={"nmax": 20},
            tiny={"nmax": 8},
        ),
        _check(
            "IAexp2",
            "K-fold derivative of psi collapses to psi at the point",
            "rational points; n up to nmax",
            _run_iaexp2,
            omega=False,
            quick={"nmax": 16},
            full={"nmax": 20},
            tiny={"nmax": 8},
        ),
        _check(
            "G0",
            "triangle builder satisfies its defining recurrence; modular tables match",
            "mixed points; n up to nmax; all entries",
            _run_g0,
            omega=True,
            quick={"nmax": 12},
            full={"nmax": 18},
            tiny={"nmax": 8},
        ),
        _check(
            "FD3",
            "lambda triangle: seeds, recurrence, and k! divisibility",
            "integer points; n up to nmax; all entries",
            _run_fd3,
            omega=False,
            quick={"nmax": 16},
            full={"nmax": 24},
            tiny={"nmax": 8},
        ),
        _check(
            "H2",
            "factorial bridge from omega entries to lambda entries",
            "mixed points; n up to nmax; all entries",
            _run_h2,
            omega=True,
            quick={"nmax": 14},
            full={"nmax": 20},
            tiny={"nmax": 8},
        ),
        _check(
            "F1100",
            "first fundamental expansion: coefficients integral, bridge and "
            "derivative paths agree",
            "integer points coord<=2; n up to nmax; all k",
            _run_f1100,
            omega=True,
            quick={"nmax": 14, "coord": 2},
            full={"nmax": 40, "coord": 2},
            tiny={"nmax": 8, "coord": 1},
        ),
        _check(
            "k00",
            "second fundamental ratio: exact division recovering psi",
            "integer points coord<=C; n in [2, nmax]",
            _run_k00,
            omega=True,
            quick={"nmax": 40, "coord": 2},
            full={"nmax": 200, "coord": 3},
            tiny={"nmax": 12, "coord": 1},
        ),
        _check(
            "space4",
            "psi-normalized top entry equals the rising product",
            "integer and quadratic points; n up to nmax",
            _run_space4,
            omega=True,
            quick={"nmax": 24},
            full={"nmax": 100},
            tiny={"nmax": 10},
        ),
        _check(
            "FA2",
            "power-sum value of the fundamental ratio",
            "fixed (x,y); n up to nmax",
            _run_fa2,
            omega=True,
            quick={"nmax": 20},
            full={"nmax": 40},
            tiny={"nmax": 8},
        ),
        _check(
            "S1",
            "membership residues: psi equals the tabulated nonzero values",
            "five point families; n up to nmax",
            _run_s1,
            omega=False,
            quick={"nmax": 120},
            full={"nmax": 240},
            tiny={"nmax": 48},
        ),
        _check(
            "S11",
            "kernel residues: psi vanishes on the tabulated classes",
            "five point families; n up to nmax",
            _run_s11,
            omega=False,
            quick={"nmax": 120},
            full={"nmax": 240},
            tiny={"nmax": 48},
        ),
        _check(
            "infinite_params",
            "next prime divides integer combinations of normalized ratios",
            "k in [2, kmax]; fixed and random combinations",
            _run_infinite_params,
            omega=True,
            quick={"kmax": 4},
            full={"kmax": 6},
            tiny={"kmax": 3},
        ),
        _check(
            "gen1",
            "thinned ratio integrality and divisibility by the next prime "
            "(divisibility genuinely fails at k=2 where p_{k+1} = 2 p_k - 1)",
            "k in [2, kmax]; integer points",
            _run_gen1,
            omega=True,
            quick={"kmax": 4},
            full={"kmax": 6},
            tiny={"kmax": 3},
        ),
        _check(
            "gen2",
            "next prime divides the top triangle entry at level 2 p_k",
            "k in [2, kmax]; five-point grid; modular with exact spot checks",
            _run_gen2,
            omega=True,
            quick={"kmax": 10},
            full={"kmax": 25},
            tiny={"kmax": 4},
        ),
        _check(
            "gen5",
            "product of the first odd primes divides the normalized ratio",
            "k in [2, kmax]; integer points",
            _run_gen5,
            omega=True,
            quick={"kmax": 5},
            full={"kmax": 6},
            tiny={"kmax": 3},
        ),
        _check(
            "AU5",
            "closed product form of the triangle at (1, -2)",
            "n up to nmax; all entries",
            _closed_form_runner((1, -2)),
            omega=True,
            quick={"nmax": 24},
            full={"nmax": 40},
            tiny={"nmax": 10},
        ),
        _check(
            "AU9",
            "closed product form of the triangle at (1, 2)",
            "n up to nmax; all entries",
            _closed_form_runner((1, 2)),
            omega=True,
            quick={"nmax": 24},
            full={"nmax": 40},
            tiny={"nmax": 10},
        ),
        _check(
            "AU11",
            "falling-factorial closed form of the triangle at (0, -1)",
            "n up to nmax; all entries",
            _closed_form_runner((0, -1)),
            omega=True,
            quick={"nmax": 24},
            full={"nmax": 40},
            tiny={"nmax": 10},
        ),
        _check(
            "PP00",
            "period-6 value table at (1, 1)",
            "n in [2, nmax]",
            _table_runner("PP00"),
            omega=True,
            quick={"nmax": 60},
            full={"nmax": 200},
            tiny={"nmax": 16},
        ),
        _check(
            "PP00Q",
            "period-8 value table at (1, 0)",
            "n in [2, nmax]",
            _table_runner("PP00Q"),
            omega=True,
            quick={"nmax": 60},
            full={"nmax": 200},
            tiny={"nmax": 16},
        ),
        _check(
            "PP1A",
            "period-12 value table at (1, -1)",
            "n in [2, nmax]",
            _table_runner("PP1A"),
            omega=True,
            quick={"nmax": 60},
            full={"nmax": 200},
            tiny={"nmax": 16},
        ),
        _check(
            "ABAB",
            "parity power table at (1, -2)",
            "n in [2, nmax]",
            _table_runner("ABAB"),
            omega=True,
            quick={"nmax": 60},
            full={"nmax": 200},
            tiny={"nmax": 16},
        ),
        _check(
            "DA",
            "signed parity-power table at (1, 2)",
            "n in [2, nmax]",
            _table_runner("DA"),
            omega=True,
            quick={"nmax": 60},
            full={"nmax": 200},
            tiny={"nmax": 16},
        ),
        _check(
            "root2",
            "period-16 value table at (1, sqrt 2)",
            "n in [2, nmax]",
            _table_runner("root2"),
            omega=True,
            quick={"nmax": 60},
            full={"nmax": 200},
            tiny={"nmax": 16},
        ),
        _check(
            "phi",
            "period-20 value table at the golden-ratio point",
            "n in [2, nmax]",
            _table_runner("phi"),
            omega=True,
            quick={"nmax": 60},
            full={"nmax": 200},
            tiny={"nmax": 16},
        ),
        _check(
            "root3",
            "period-24 value table at (1, sqrt 3)",
            "n in [2, nmax]",
            _table_runner("root3"),
            omega=True,
            quick={"nmax": 60},
            full={"nmax": 200},
            tiny={"nmax": 16},
        ),
        _check(
            "FL",
            "Fibonacci/Lucas value table at (1, sqrt 5) mod 4",
            "n in [2, nmax]",
            _table_runner("FL"),
            omega=True,
            quick={"nmax": 60},
            full={"nmax": 200},
            tiny={"nmax": 16},
        ),
        _check(
            "AU7",
            "falling factorial as a power of two times descending odds",
            "n in [2, nmax]",
            _run_au7,
            omega=False,
            quick={"nmax": 400},
            full={"nmax": 2000},
            tiny={"nmax": 40},
        ),
        _check(
            "U14",
            "Mersenne primality by modular doubling, against the classical chain",
            "p in pset",
            _run_u14,
            omega=False,
            quick={"pset": [5, 7, 11, 13, 17, 19, 23, 29, 31]},
            full={"pset": [5, 7, 11, 13, 17, 19, 23, 29, 31]},
            tiny={"pset": [5, 7, 11]},
        ),
        _check(
            "U16",
            "Mersenne criterion through the exact fundamental ratio",
            "p in pset (exact tables)",
            _run_u16,
            omega=True,
            quick={"pset": [5, 7]},
            full={"pset": [5, 7, 11]},
            tiny={"pset": [5]},
        ),
        _check(
            "U18",
            "even perfect numbers against the divisor sum",
            "fixed perfect and imperfect values",
            _run_u18,
            omega=False,
            quick={},
            full={},
            tiny={},
        ),
        _check(
            "G2f",
            "Mersenne numbers as fundamental ratios at (-2, -5)",
            "odd p in [3, pmax]",
            _run_g2f,
            omega=True,
            quick={"pmax": 15},
            full={"pmax": 25},
            tiny={"pmax": 9},
        ),
        _check(
            "ABCD12",
            "exact ratio-divides-ratio Mersenne criterion",
            "p in pset (exact tables; full profile)",
            _equiv_runner,
            omega=True,
            quick=None,
            full={"pset": [5, 7, 11, 13]},
            tiny={"pset": [5]},
        ),
        _check(
            "ABCD12G",
            "product form of the exact Mersenne criterion",
            "p in pset (exact tables; full profile)",
            _equiv_runner,
            omega=True,
            quick=None,
            full={"pset": [5, 7, 11, 13]},
            tiny={"pset": [5]},
        ),
        _check(
            "G4",
            "doubled-power numbers 2^(2^n) + 1 as fundamental ratios",
            "n in [1, nmax]",
            _run_g4,
            omega=True,
            quick={"nmax": 5},
            full={"nmax": 5},
            tiny={"nmax": 3},
        ),
        _check(
            "G6",
            "Lucas numbers as fundamental ratios at (-1, -3)",
            "n in [2, nmax]",
            _run_g6,
            omega=True,
            quick={"nmax": 60},
            full={"nmax": 100},
            tiny={"nmax": 12},
        ),
        _check(
            "G7",
            "Fibonacci/Lucas oscillation as fundamental ratios at (1, -3)",
            "n in [2, nmax]",
            _run_g7,
            omega=True,
            quick={"nmax": 60},
            full={"nmax": 100},
            tiny={"nmax": 12},
        ),
        _check(
            "Che",
            "Chebyshev polynomials: coefficient match and ratio evaluations "
            "(recurrence coefficient 2x; scaling 2^(d(n-1)))",
            "n in [1, nmax]",
            _run_che,
            omega=True,
            quick={"nmax": 32},
            full={"nmax": 64},
            tiny={"nmax": 10},
        ),
        _check(
            "Dic",
            "Dickson polynomials: coefficient match, functional identity, and "
            "ratio evaluations (recurrence x D - alpha D, consistent with the "
            "coefficient formula; the 2x variant is not)",
            "n in [1, nmax]; alpha in alphas",
            _run_dic,
            omega=True,
            quick={"nmax": 32},
            full={"nmax": 64},
            tiny={"nmax": 10},
        ),
        _check(
            "G6X",
            "companion triangle ratio equals the Fibonacci numbers",
            "n in [2, nmax]",
            _run_g6x,
            omega=False,
            quick={"nmax": 60},
            full={"nmax": 100},
            tiny={"nmax": 12},
        ),
        _check(
            "primeFib",
            "next prime divides the companion value over F(2 p_k)",
            "k in [2, kmax]",
            _run_primefib,
            omega=False,
            quick={"kmax": 8},
            full={"kmax": 12},
            tiny={"kmax": 4},
        ),
        _check(
            "harmonic",
            "mod n^2 congruence of the falling factorial with the harmonic "
            "combination (n = 1 mod 8)",
            "n in [9, nmax] with n = 1 mod 8",
            _run_harmonic,
            omega=False,
            quick={"nmax": 201},
            full={"nmax": 401},
            tiny={"nmax": 57},
        ),
        _check(
            "lagarias",
            "divisor-sum inequality sigma(n) <= H_n + log(H_n) e^(H_n)",
            "n in [1, nmax]",
            _run_lagarias,
            omega=False,
            quick={"nmax": 2000},
            full={"nmax": 100000},
            tiny={"nmax": 200},
        ),
    ]
}

OMEGA_TOUCHING_IDS = frozenset(c.id for c in REGISTRY.values() if c.touches_omega)


# -- execution ---------------------------------------------------------------------


def _execute(
    check: TheoremCheck, bounds: Mapping | None, seed: int, skipped: bool
) -> TheoremReport:
    grid_desc = f"{check.grid}; bounds={dict(bounds or {})}; seed={seed}"
    if skipped:
        return TheoremReport(
            id=check.id,
            anchor=check.anchor,
            grid=grid_desc,
            cases_run=0,
            failures=[],
            elapsed_ms=0,
            status="skipped",
        )
    rng = random.Random(f"{seed}:{check.id}")
    start = time.perf_counter()
    try:
        sweep = check.runner(bounds or {}, rng)
    except (TheoremViolationError, KernelPointError) as exc:
        sweep = Sweep()
        sweep.cases_run = 1
        sweep._fail({"stage": "sweep"}, "identity holds", f"{type(exc).__name__}: {exc}")
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    status = "pass" if sweep.failed == 0 and sweep.cases_run > 0 else "fail"
    return TheoremReport(
        id=check.id,
        anchor=check.anchor,
        grid=grid_desc,
        cases_run=sweep.cases_run,
        failures=sweep.failures,
        elapsed_ms=elapsed_ms,
        status=status,
    )


def run_check(
    id: str,
    overrides: Mapping | None = None,
    *,
    profile: str = "full",
    seed: int = 0,
    registry: Mapping[str, TheoremCheck] | None = None,
) -> TheoremReport:
    """Run one registered check with profile bounds plus overrides."""
    registry = REGISTRY if registry is None else registry
    if id not in registry:
        raise KeyError(f"unknown check id {id!r}")
    check = registry[id]
    base = check.quick if profile == "quick" else check.full
    bounds = dict(base or check.full)
    bounds.update(overrides or {})
    return _execute(check, bounds, seed, skipped=False)


def run_all(
    profile: str = "quick",
    *,
    seed: int = 0,
    ids: Iterable[str] | None = None,
    registry: Mapping[str, TheoremCheck] | None = None,
) -> list[TheoremReport]:
    """Run every registered check (ordered by id) under a profile.

    The quick profile marks checks without quick bounds as skipped rather
    than omitting them, so coverage stays visible.
    """
    if profile not in ("quick", "full"):
        raise ValueError("profile must be 'quick' or 'full'")
    registry = REGISTRY if registry is None else registry
    selected = sorted(ids) if ids is not None else sorted(registry)
    reports = []
    for id in selected:
        check = registry[id]
        bounds = check.quick if profile == "quick" else check.full
        reports.append(_execute(check, bounds, seed, bounds is None))
    return reports


def reports_to_csv(reports: Iterable[TheoremReport], volatile: bool = True) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["id", "status", "cases_run", "failures", "elapsed_ms"])
    for report in reports:
        writer.writerow(
            [
                report.id,
                report.status,
                report.cases_run,
                len(report.failures),
                report.elapsed_ms if volatile else 0,
            ]
        )
    return buffer.getvalue()


def mutation_sensitivity(seed: int = 0) -> tuple[float, dict[str, str]]:
    """Fraction of omega-touching checks that fail when the triangle
    recurrence is perturbed (coupling sign flipped), with per-id statuses.

    Runs serially on reduced bounds; the flag is global process state.
    """
    statuses: dict[str, str] = {}
    with flipped_omega_coupling():
        for id in sorted(OMEGA_TOUCHING_IDS):
            check = REGISTRY[id]
            report = _execute(check, check.tiny, seed, skipped=False)
            statuses[id] = report.status
    failing = sum(1 for s in statuses.values() if s == "fail")
    return failing / len(statuses), statuses
