"""Registry of executable theorem checks with machine-readable reports.

Each check id names one verified identity and binds its parameter grid per
profile (quick / full, plus the reduced `tiny` grid of fault-injection
runs).  One `_register(...)` next to the check's runner enters it in
REGISTRY.  A runner is a generator `runner(bounds, rng)` that yields cases
`(params, fn, expected)`: the case passes when `fn()` equals `expected`, and
a predicate case yields `expected=True`.  `_execute` is the one loop over
cases.  It counts them, calls each `fn` under the
TheoremViolationError/KernelPointError guard (a raise fails that case),
counts every failing case and keeps the first MAX_FAILURES_RECORDED
counterexamples; a report whose list was cut short also carries
`failures_total`.  A runner that raises mid-sweep leaves one sweep-level
failure instead: status `fail` for a violation, `error` for any other
exception, and the other checks still run.

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
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Iterator, Mapping

from .scalars import GOLDEN, QuadExt, SQRT2, SQRT3, SQRT5
from .sequences import (
    KernelPointError,
    QPoint,
    TheoremViolationError,
    _lucas_coeff,
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
    chebyshev_checks,
    dickson_checks,
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
from .scalars import divides_int, reduce_mod

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
    failures_total: int  # every failing case; `failures` keeps the first few

    def to_dict(self, volatile: bool = True) -> dict:
        out = {
            "id": self.id,
            "anchor": self.anchor,
            "grid": self.grid,
            "cases_run": self.cases_run,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms if volatile else 0,
            "status": self.status,
        }
        if self.failures_total > len(self.failures):
            out["failures_total"] = self.failures_total
        return out

    def to_json(self, volatile: bool = True) -> str:
        return json.dumps(self.to_dict(volatile), separators=(",", ":"))


MAX_FAILURES_RECORDED = 10


# (params, fn, expected): the case passes when fn() == expected
Case = tuple[Mapping, Callable[[], object], object]


@dataclass(frozen=True)
class TheoremCheck:
    id: str
    anchor: str
    grid: str
    runner: Callable[[Mapping, random.Random], Iterator[Case]]
    touches_omega: bool
    quick: Mapping | None  # None: skipped under the quick profile
    full: Mapping
    tiny: Mapping  # bounds for fault-injection runs


REGISTRY: dict[str, TheoremCheck] = {}


def _register(
    id: str, anchor: str, grid: str, *, touches_omega: bool,
    quick: Mapping | None, full: Mapping, tiny: Mapping,
) -> Callable:
    """Register the decorated runner as check `id`; the runner is returned
    unchanged, so one runner can back several checks."""

    def register(runner):
        REGISTRY[id] = TheoremCheck(
            id, anchor, grid, runner, touches_omega, quick, full, tiny
        )
        return runner

    return register


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
# the points of the checks on the psi-normalized ratio: gen1, gen5, infinite_params
_RATIO_POINTS = [QPoint(1, 1), QPoint(1, -2), QPoint(0, -1), QPoint(2, 3)]

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


@_register(
    "def0", "seed values and step of the psi recurrence",
    "random and fixed (a,b); n up to nmax", touches_omega=False,
    quick={"nmax": 24}, full={"nmax": 48}, tiny={"nmax": 8},
)
def _run_def0(bounds, rng) -> Iterator[Case]:
    for a, b in _pairs(rng, 12) + [(1, 4), (-2, -5), (0, -1)]:
        yield {"a": a, "b": b, "n": 0}, lambda: psi_rec(a, b, 0), 2
        yield {"a": a, "b": b, "n": 1}, lambda: psi_rec(a, b, 1), 1
        for n in range(2, bounds["nmax"] + 1):
            step = (2 * a - b) ** delta(n - 1) * psi_rec(a, b, n - 1) - a * psi_rec(
                a, b, n - 2
            )
            yield {"a": a, "b": b, "n": n}, lambda: psi_rec(a, b, n), step


@_register(
    "comp3", "half-length closed form equals the psi recurrence",
    "random integer and rational (a,b); n up to nmax", touches_omega=False,
    quick={"nmax": 32}, full={"nmax": 64}, tiny={"nmax": 10},
)
def _run_comp3(bounds, rng) -> Iterator[Case]:
    cases = _pairs(rng, 10)
    cases += [(Fraction(1, 2), Fraction(-3, 5)), (Fraction(-2, 3), Fraction(7, 4))]
    for a, b in cases:
        for n in range(1, bounds["nmax"] + 1):
            yield (
                {"a": str(a), "b": str(b), "n": n},
                lambda: psi_closed(a, b, n),
                psi_rec(a, b, n),
            )


@_register(
    "00", "power-sum expansion of x^n + y^n in xy and x+y",
    "fixed (x,y) pairs; n up to nmax", touches_omega=False,
    quick={"nmax": 40}, full={"nmax": 80}, tiny={"nmax": 10},
)
def _run_00(bounds, rng) -> Iterator[Case]:
    for x, y in [(2, 1), (1, 1), (3, -1), (5, 2), (-2, 7), (1, 0)]:
        for n in range(1, bounds["nmax"] + 1):
            yield (
                {"x": x, "y": y, "n": n},
                lambda: sum(
                    (-1) ** i
                    * _lucas_coeff(n, i)
                    * (x * y) ** i
                    * (x + y) ** (n - 2 * i)
                    for i in range(n // 2 + 1)
                ),
                x**n + y**n,
            )


@_register(
    "WW4", "psi(xy, -x^2-y^2, n) equals (x^n+y^n)/(x+y)^(n mod 2)",
    "fixed (x,y) pairs; n up to nmax", touches_omega=False,
    quick={"nmax": 40}, full={"nmax": 80}, tiny={"nmax": 10},
)
def _run_ww4(bounds, rng) -> Iterator[Case]:
    for x, y in [(2, 1), (1, 1), (3, -1), (4, 3), (1, 0), (-3, 5)]:
        for n in range(1, bounds["nmax"] + 1):
            if n & 1 and x + y == 0:
                continue
            yield (
                {"x": x, "y": y, "n": n},
                lambda: psi_point(QPoint(x * y, -x * x - y * y), n)
                * (x + y) ** delta(n),
                QuadExt(x**n + y**n),
            )


@_register(
    "WW8", "product-of-psi doubling identity",
    "random (a,b); all 0 <= m <= n <= nmax", touches_omega=False,
    quick={"nmax": 16}, full={"nmax": 24}, tiny={"nmax": 8},
)
def _run_ww8(bounds, rng) -> Iterator[Case]:
    for a, b in _pairs(rng, 8) + [(1, 4), (-1, -3)]:
        for n in range(0, bounds["nmax"] + 1):
            for m in range(0, n + 1):
                yield (
                    {"a": a, "b": b, "n": n, "m": m},
                    lambda: product_identity_check(a, b, n, m),
                    True,
                )


@_register(
    "ex00", "two-form expansion of the scaled power sum",
    "integer points coord<=2; fixed scalars; n up to nmax", touches_omega=True,
    quick={"nmax": 10}, full={"nmax": 16}, tiny={"nmax": 8},
)
def _run_ex00(bounds, rng) -> Iterator[Case]:
    scalars = [(1, 4), (2, -1), (1, 0)]
    xys = [(2, 1), (1, 1), (3, -1)]
    for point in _int_points(2):
        label = str(point)
        tables = {n: omega_table(point, n) for n in range(2, bounds["nmax"] + 1)}
        for a, b in scalars:
            if not (point.beta * a - point.alpha * b):
                continue
            for x, y in xys:
                for n, table in tables.items():
                    yield (
                        {"point": label, "a": a, "b": b, "x": x, "y": y, "n": n},
                        lambda: psi_expansion_identity_check(a, b, table, x, y),
                        True,
                    )


@_register(
    "diff1", "directional derivative lowers the expansion index with factor -(r+1)",
    "rational points; n up to nmax; all r", touches_omega=True,
    quick={"nmax": 12}, full={"nmax": 20}, tiny={"nmax": 8},
)
def _run_diff1(bounds, rng) -> Iterator[Case]:
    points = [QPoint(1, 1), QPoint(1, 0), QPoint(-1, 2), QPoint(2, -1)]
    for point in points:
        label = str(point)
        for n in range(2, bounds["nmax"] + 1):
            table = omega_table(point, n)
            for r in range(n // 2):
                yield (
                    {"point": label, "n": n, "r": r},
                    lambda: verify_diff_ladder(table, r),
                    True,
                )


@_register(
    "diff3", "expansion polynomial equals the scaled k-fold directional derivative",
    "rational points; n up to nmax; all k", touches_omega=True,
    quick={"nmax": 12}, full={"nmax": 20}, tiny={"nmax": 8},
)
def _run_diff3(bounds, rng) -> Iterator[Case]:
    points = [QPoint(1, 1), QPoint(1, -2), QPoint(-2, 1), QPoint(1, 2)]
    bipolys = {n: psi_bipoly(n) for n in range(2, bounds["nmax"] + 1)}
    for point in points:
        label = str(point)
        for n in range(2, bounds["nmax"] + 1):
            table = omega_table(point, n)
            for k in range(n // 2 + 1):
                yield (
                    {"point": label, "n": n, "k": k},
                    lambda: verify_derivative_expansion(table, k, bipolys[n]),
                    True,
                )


@_register(
    "IAexp2", "K-fold derivative of psi collapses to psi at the point",
    "rational points; n up to nmax", touches_omega=False,
    quick={"nmax": 16}, full={"nmax": 20}, tiny={"nmax": 8},
)
def _run_iaexp2(bounds, rng) -> Iterator[Case]:
    points = [QPoint(1, 1), QPoint(0, -1), QPoint(1, -2), QPoint(2, 3), QPoint(-1, -3)]
    for point in points:
        label = str(point)
        for n in range(2, bounds["nmax"] + 1):
            yield (
                {"point": label, "n": n},
                lambda: verify_fundamental_psi(n, point),
                True,
            )


@_register(
    "G0", "triangle builder satisfies its defining recurrence; modular tables match",
    "mixed points; n up to nmax; all entries", touches_omega=True,
    quick={"nmax": 12}, full={"nmax": 18}, tiny={"nmax": 8},
)
def _run_g0(bounds, rng) -> Iterator[Case]:
    # The triangle builder against its own definition: unit seed row, a direct
    # recomputation of every level from the recurrence, and modular tables
    # agreeing with the exact table reduced.
    points = [QPoint(1, 1), QPoint(-2, -5), QPoint(2, 3)] + _QUAD_SAMPLE[:2]
    for point in points:
        label = str(point)
        al, be = point.alpha, point.beta
        big_a, big_b = 2 * al - be, 2 * al
        for n in range(2, bounds["nmax"] + 1):
            table = omega_table(point, n)
            K = n // 2
            dlt = delta(n - 1)
            for r in range(K + 1):
                yield (
                    {"point": label, "n": n, "r": r, "k": 0},
                    lambda: table.entry(r, 0),
                    QuadExt(1),
                )
            for k in range(1, K + 1):
                for r in range(K - k + 1):
                    direct = big_a * (n - r - k) * table.entry(r, k - 1) - big_b * (
                        n - 2 * r - dlt
                    ) * table.entry(r + 1, k - 1)
                    yield (
                        {"point": label, "n": n, "r": r, "k": k},
                        lambda: table.entry(r, k),
                        direct,
                    )
            m = rng.choice([5, 7, 11, 13])
            mod_table = omega_table(point, n, modulus=m)
            for k in range(K + 1):
                for r in range(K - k + 1):
                    yield (
                        {"point": label, "n": n, "r": r, "k": k, "mod": m},
                        lambda: mod_table.entry(r, k),
                        reduce_mod(table.entry(r, k), m),
                    )


@_register(
    "FD3", "lambda triangle: seeds, recurrence, and k! divisibility",
    "integer points; n up to nmax; all entries", touches_omega=False,
    quick={"nmax": 16}, full={"nmax": 24}, tiny={"nmax": 8},
)
def _run_fd3(bounds, rng) -> Iterator[Case]:
    points = [QPoint(1, 1), QPoint(1, -2), QPoint(-2, 3), QPoint(2, -1)]
    for point in points:
        label = str(point)
        al, be = point.alpha, point.beta
        for n in range(2, bounds["nmax"] + 1):
            table = lambda_table(point, n)
            K = n // 2
            for r in range(K + 1):
                yield (
                    {"point": label, "n": n, "r": r, "k": 0},
                    lambda: table.entry(r, 0),
                    QuadExt(lambda_seed(n, r)),
                )
            for k in range(1, K + 1):
                for r in range(K - k + 1):
                    direct = (2 * al - be) * (K - k - r + 1) * table.entry(r, k - 1) + (
                        al * (r + 1) * table.entry(r + 1, k - 1)
                    )
                    yield (
                        {"point": label, "n": n, "r": r, "k": k},
                        lambda: table.entry(r, k),
                        direct,
                    )
                    if k >= 2:
                        yield (
                            {"point": label, "n": n, "r": r, "k": k, "claim": "k!"},
                            lambda: divides_int(factorial(k), table.entry(r, k)),
                            True,
                        )


@_register(
    "H2", "factorial bridge from omega entries to lambda entries",
    "mixed points; n up to nmax; all entries", touches_omega=True,
    quick={"nmax": 14}, full={"nmax": 20}, tiny={"nmax": 8},
)
def _run_h2(bounds, rng) -> Iterator[Case]:
    points = [QPoint(1, 1), QPoint(1, -2), QPoint(-1, 2)] + _QUAD_SAMPLE[:2]
    for point in points:
        label = str(point)
        for n in range(2, bounds["nmax"] + 1):
            otable = omega_table(point, n)
            ltable = lambda_table(point, n)
            K = n // 2
            for k in range(K + 1):
                for r in range(K - k + 1):
                    yield (
                        {"point": label, "n": n, "r": r, "k": k},
                        lambda: lambda_from_omega(otable, r, k),
                        ltable.entry(r, k),
                    )


@_register(
    "F1100",
    "first fundamental expansion: coefficients integral, bridge and "
    "derivative paths agree",
    "integer points coord<=2; n up to nmax; all k", touches_omega=True,
    quick={"nmax": 14, "coord": 2}, full={"nmax": 40, "coord": 2},
    tiny={"nmax": 8, "coord": 1},
)
def _run_f1100(bounds, rng) -> Iterator[Case]:
    scalar_a, scalar_b = 1, 4
    bipolys = {n: psi_bipoly(n) for n in range(2, bounds["nmax"] + 1)}
    for point in _int_points(bounds["coord"]):
        if not (point.beta * scalar_a - point.alpha * scalar_b):
            continue
        label = str(point)
        for n in range(2, bounds["nmax"] + 1):
            otable = omega_table(point, n)
            ltable = lambda_table(point, n)
            deriv, signed = bipolys[n], 1  # signed = (-1)^k k!
            for k in range(n // 2 + 1):
                if k:
                    deriv = dir_derivative(deriv, point)
                    signed *= -k
                try:
                    value, coeffs = psi_k_expand(scalar_a, scalar_b, otable, k)
                except TheoremViolationError as exc:
                    yield (
                        {"point": label, "n": n, "k": k},
                        lambda: str(exc),
                        "integral coefficients",
                    )
                    continue
                for r, c in enumerate(coeffs):
                    # c_r (-1)^k k! = lambda_r(k), lambda from its own triangle
                    lam = ltable.entry(r, k)
                    yield (
                        {"point": label, "n": n, "k": k, "r": r, "path": "bridge"},
                        lambda: c * signed,
                        lam,
                    )
                    yield (
                        {"point": label, "n": n, "k": k, "r": r, "path": "k!|lam"},
                        lambda: lam.a % signed == 0,
                        True,
                    )
                yield (
                    {"point": label, "n": n, "k": k, "path": "derivative"},
                    lambda: value * signed,
                    deriv.evaluate(scalar_a, scalar_b),
                )


@_register(
    "k00", "second fundamental ratio: exact division recovering psi",
    "integer points coord<=C; n in [2, nmax]", touches_omega=True,
    quick={"nmax": 40, "coord": 2}, full={"nmax": 200, "coord": 3},
    tiny={"nmax": 12, "coord": 1},
)
def _run_k00(bounds, rng) -> Iterator[Case]:
    for point in _int_points(bounds["coord"]):
        label = str(point)
        for n in range(2, bounds["nmax"] + 1):
            yield (
                {"point": label, "n": n},
                lambda: second_fundamental(point, n) is not None,
                True,
            )


@_register(
    "space4", "psi-normalized top entry equals the rising product",
    "integer and quadratic points; n up to nmax", touches_omega=True,
    quick={"nmax": 24}, full={"nmax": 100}, tiny={"nmax": 10},
)
def _run_space4(bounds, rng) -> Iterator[Case]:
    for point in _int_points(2) + _QUAD_SAMPLE[:1]:
        label = str(point)
        for n in range(1, bounds["nmax"] + 1):
            if not psi_point(point, 2 * n):
                continue  # kernel point at this level: ratio undefined
            yield (
                {"point": label, "n": n},
                lambda: second_fundamental_v2(point, n) is not None,
                True,
            )


@_register(
    "FA2", "power-sum value of the fundamental ratio",
    "fixed (x,y); n up to nmax", touches_omega=True,
    quick={"nmax": 20}, full={"nmax": 40}, tiny={"nmax": 8},
)
def _run_fa2(bounds, rng) -> Iterator[Case]:
    for x, y in [(2, 1), (1, 1), (3, -1), (4, 3), (1, 0), (5, -2)]:
        for n in range(1, bounds["nmax"] + 1):
            if n & 1 and x + y == 0:
                continue
            yield {"x": x, "y": y, "n": n}, lambda: sums_of_powers_check(x, y, n), True


# family label, SPECIAL_TABLES id, residues where psi takes its tabulated
# nonzero value (S1), residues where psi vanishes (S11)
_RESIDUE_FAMILIES = [
    ("(1,0)", "PP00Q", {1, 7}, {2, 6}),
    ("(1,-1)", "PP1A", {2, 10}, {3, 9}),
    ("(1,sqrt2)", "root2", {3, 13}, {4, 12}),
    ("(1,phi-1)", "phi", {4, 16}, {5, 15}),
    ("(1,sqrt3)", "root3", {5, 19}, {6, 18}),
]


def _residue_runner(probe: str) -> Callable:
    def run(bounds, rng) -> Iterator[Case]:
        for label, table_id, member, kernel in _RESIDUE_FAMILIES:
            point, period, expected = SPECIAL_TABLES[table_id]
            residues = member if probe == "member" else kernel
            for n in range(1, bounds["nmax"] + 1):
                if n % period in residues:
                    yield (
                        {"family": label, "n": n},
                        lambda: psi_point(point, n),
                        expected(n),
                    )
                    yield (
                        {"family": label, "n": n, "probe": True},
                        lambda: omega_space_probe(point, n),
                        probe,
                    )

    return run


_register(
    "S1", "membership residues: psi equals the tabulated nonzero values",
    "five point families; n up to nmax", touches_omega=False,
    quick={"nmax": 120}, full={"nmax": 240}, tiny={"nmax": 48},
)(_residue_runner("member"))
_register(
    "S11", "kernel residues: psi vanishes on the tabulated classes",
    "five point families; n up to nmax", touches_omega=False,
    quick={"nmax": 120}, full={"nmax": 240}, tiny={"nmax": 48},
)(_residue_runner("kernel"))


@_register(
    "infinite_params", "next prime divides integer combinations of normalized ratios",
    "k in [2, kmax]; fixed and random combinations", touches_omega=True,
    quick={"kmax": 4}, full={"kmax": 6}, tiny={"kmax": 3},
)
def _run_infinite_params(bounds, rng) -> Iterator[Case]:
    for k in range(2, bounds["kmax"] + 1):
        combos = [
            (_RATIO_POINTS[:1], [1]),
            (_RATIO_POINTS[:2], [3, -2]),
            (_RATIO_POINTS, [0, 0, 0, 0]),
            (_RATIO_POINTS, [rng.randint(-9, 9) for _ in _RATIO_POINTS]),
        ]
        for i, (pts, coeffs) in enumerate(combos):
            yield (
                {"k": k, "combo": i, "coeffs": list(coeffs)},
                lambda: emergence_combination_check(k, pts, coeffs),
                True,
            )


@_register(
    "gen1",
    "thinned ratio integrality and divisibility by the next prime "
    "(divisibility genuinely fails at k=2 where p_{k+1} = 2 p_k - 1)",
    "k in [2, kmax]; integer points", touches_omega=True,
    quick={"kmax": 4}, full={"kmax": 6}, tiny={"kmax": 3},
)
def _run_gen1(bounds, rng) -> Iterator[Case]:
    for k in range(2, bounds["kmax"] + 1):
        for point in _RATIO_POINTS:
            label = str(point)
            try:
                result = emergence_check(k, point)
            except (TheoremViolationError, KernelPointError) as exc:
                yield {"k": k, "point": label}, lambda: str(exc), "identity holds"
                continue
            if not result.exact_path:
                continue
            yield (
                {"k": k, "point": label, "claim": "integer"},
                lambda: result.gen1_integer,
                True,
            )
            yield (
                {"k": k, "point": label, "claim": "divisible"},
                lambda: result.gen1_divisible,
                True,
            )


@_register(
    "gen2", "next prime divides the top triangle entry at level 2 p_k",
    "k in [2, kmax]; five-point grid; modular with exact spot checks",
    touches_omega=True,
    quick={"kmax": 10}, full={"kmax": 25}, tiny={"kmax": 4},
)
def _run_gen2(bounds, rng) -> Iterator[Case]:
    for k in range(2, bounds["kmax"] + 1):
        for point in _EMERGENCE_POINTS:
            yield (
                {"k": k, "point": str(point)},
                lambda: emergence_check(k, point).omega0_mod == 0,
                True,
            )


@_register(
    "gen5", "product of the first odd primes divides the normalized ratio",
    "k in [2, kmax]; integer points", touches_omega=True,
    quick={"kmax": 5}, full={"kmax": 6}, tiny={"kmax": 3},
)
def _run_gen5(bounds, rng) -> Iterator[Case]:
    for k in range(2, bounds["kmax"] + 1):
        for point in _RATIO_POINTS:
            yield (
                {"k": k, "point": str(point)},
                lambda: first_odd_primes_check(k, point),
                True,
            )


def _closed_form_runner(point_id: tuple[int, int]) -> Callable:
    def run(bounds, rng) -> Iterator[Case]:
        point = QPoint(*point_id)
        label = str(point)
        for n in range(2, bounds["nmax"] + 1):
            table = omega_table(point, n)
            K = n // 2
            for k in range(K + 1):
                for r in range(K - k + 1):
                    yield (
                        {"point": label, "n": n, "r": r, "k": k},
                        lambda: table.entry(r, k),
                        QuadExt(omega_closed(point_id, r, k, n)),
                    )
            if point_id == (0, -1):
                yield (
                    {"point": label, "n": n, "claim": "top=ff"},
                    lambda: table.top(),
                    QuadExt(falling_factorial(n)),
                )
            if point_id == (1, -2):
                explicit = 2 ** K
                term = n + delta(n - 1) - 2
                while term >= 1:
                    explicit *= term
                    term -= 2
                yield (
                    {"point": label, "n": n, "claim": "descending-odds"},
                    lambda: table.top(),
                    QuadExt(explicit),
                )

    return run


_register(
    "AU5", "closed product form of the triangle at (1, -2)",
    "n up to nmax; all entries", touches_omega=True,
    quick={"nmax": 24}, full={"nmax": 40}, tiny={"nmax": 10},
)(_closed_form_runner((1, -2)))
_register(
    "AU9", "closed product form of the triangle at (1, 2)",
    "n up to nmax; all entries", touches_omega=True,
    quick={"nmax": 24}, full={"nmax": 40}, tiny={"nmax": 10},
)(_closed_form_runner((1, 2)))
_register(
    "AU11", "falling-factorial closed form of the triangle at (0, -1)",
    "n up to nmax; all entries", touches_omega=True,
    quick={"nmax": 24}, full={"nmax": 40}, tiny={"nmax": 10},
)(_closed_form_runner((0, -1)))


def _table_runner(table_id: str) -> Callable:
    def run(bounds, rng) -> Iterator[Case]:
        point, _, expected = SPECIAL_TABLES[table_id]
        for n in range(2, bounds["nmax"] + 1):
            yield {"n": n}, lambda: second_fundamental(point, n), expected(n)

    return run


# The nine SPECIAL_TABLES checks share one grid and one set of profiles.
for _id, _anchor in {
    "PP00": "period-6 value table at (1, 1)",
    "PP00Q": "period-8 value table at (1, 0)",
    "PP1A": "period-12 value table at (1, -1)",
    "ABAB": "parity power table at (1, -2)",
    "DA": "signed parity-power table at (1, 2)",
    "root2": "period-16 value table at (1, sqrt 2)",
    "phi": "period-20 value table at the golden-ratio point",
    "root3": "period-24 value table at (1, sqrt 3)",
    "FL": "Fibonacci/Lucas value table at (1, sqrt 5) mod 4",
}.items():
    _register(
        _id, _anchor, "n in [2, nmax]", touches_omega=True,
        quick={"nmax": 60}, full={"nmax": 200}, tiny={"nmax": 16},
    )(_table_runner(_id))


@_register(
    "AU7", "falling factorial as a power of two times descending odds",
    "n in [2, nmax]", touches_omega=False,
    quick={"nmax": 400}, full={"nmax": 2000}, tiny={"nmax": 40},
)
def _run_au7(bounds, rng) -> Iterator[Case]:
    for n in range(2, bounds["nmax"] + 1):
        yield {"n": n}, lambda: primes.combinatorial_identity_check(n), True


_KNOWN_MERSENNE_EXPONENTS = {5, 7, 13, 17, 19, 31}


@_register(
    "U14", "Mersenne primality by modular doubling, against the classical chain",
    "p in pset", touches_omega=False,
    quick={"pset": [5, 7, 11, 13, 17, 19, 23, 29, 31]},
    full={"pset": [5, 7, 11, 13, 17, 19, 23, 29, 31]},
    tiny={"pset": [5, 7, 11]},
)
def _run_u14(bounds, rng) -> Iterator[Case]:
    for p in bounds["pset"]:
        prime = p in _KNOWN_MERSENNE_EXPONENTS
        yield {"p": p, "path": "doubling"}, lambda: primes.mersenne_test(p), prime
        yield {"p": p, "path": "classical"}, lambda: primes.lucas_lehmer(p), prime


@_register(
    "U16", "Mersenne criterion through the exact fundamental ratio",
    "p in pset (exact tables)", touches_omega=True,
    quick={"pset": [5, 7]}, full={"pset": [5, 7, 11]}, tiny={"pset": [5]},
)
def _run_u16(bounds, rng) -> Iterator[Case]:
    for p in bounds["pset"]:
        n = 1 << (p - 1)
        yield (
            {"p": p},
            lambda: divides_int(2 * n - 1, second_fundamental(QPoint(1, 4), n))
            == (p in _KNOWN_MERSENNE_EXPONENTS),
            True,
        )


@_register(
    "U18", "even perfect numbers against the divisor sum",
    "fixed perfect and imperfect values", touches_omega=False,
    quick={}, full={}, tiny={},
)
def _run_u18(bounds, rng) -> Iterator[Case]:
    perfect = [6, 28, 496, 8128, 33550336]
    imperfect = [100, 12, 2046, 2096128, 33550334]
    for N in perfect:
        yield {"N": N}, lambda: primes.perfect_number_check(N), True
    for N in imperfect:
        yield {"N": N}, lambda: primes.perfect_number_check(N), False


@_register(
    "G2f", "Mersenne numbers as fundamental ratios at (-2, -5)",
    "odd p in [3, pmax]", touches_omega=True,
    quick={"pmax": 15}, full={"pmax": 25}, tiny={"pmax": 9},
)
def _run_g2f(bounds, rng) -> Iterator[Case]:
    for p in range(3, bounds["pmax"] + 1, 2):
        yield {"p": p}, lambda: primes.mersenne_representation(p) == (1 << p) - 1, True


@_register(
    "ABCD12", "exact ratio-divides-ratio Mersenne criterion",
    "p in pset (exact tables; full profile)", touches_omega=True,
    quick=None, full={"pset": [5, 7, 11, 13]}, tiny={"pset": [5]},
)
@_register(
    "ABCD12G", "product form of the exact Mersenne criterion",
    "p in pset (exact tables; full profile)", touches_omega=True,
    quick=None, full={"pset": [5, 7, 11, 13]}, tiny={"pset": [5]},
)
def _equiv_runner(bounds, rng) -> Iterator[Case]:
    for p in bounds["pset"]:
        yield (
            {"p": p},
            lambda: primes.mersenne_divisibility_equiv(p)
            == (p in _KNOWN_MERSENNE_EXPONENTS),
            True,
        )


@_register(
    "G4", "doubled-power numbers 2^(2^n) + 1 as fundamental ratios",
    "n in [1, nmax]", touches_omega=True,
    quick={"nmax": 5}, full={"nmax": 5}, tiny={"nmax": 3},
)
def _run_g4(bounds, rng) -> Iterator[Case]:
    expected = {1: 5, 2: 17, 3: 257, 4: 65537, 5: 4294967297}
    for n in range(1, bounds["nmax"] + 1):
        yield (
            {"n": n},
            lambda: primes.fermat_representation(n)
            == expected.get(n, (1 << (1 << n)) + 1),
            True,
        )


@_register(
    "G6", "Lucas numbers as fundamental ratios at (-1, -3)",
    "n in [2, nmax]", touches_omega=True,
    quick={"nmax": 60}, full={"nmax": 100}, tiny={"nmax": 12},
)
def _run_g6(bounds, rng) -> Iterator[Case]:
    for n in range(2, bounds["nmax"] + 1):
        yield {"n": n}, lambda: lucas_fib_representations(n)[0] == lucas(n), True


@_register(
    "G7", "Fibonacci/Lucas oscillation as fundamental ratios at (1, -3)",
    "n in [2, nmax]", touches_omega=True,
    quick={"nmax": 60}, full={"nmax": 100}, tiny={"nmax": 12},
)
def _run_g7(bounds, rng) -> Iterator[Case]:
    for n in range(2, bounds["nmax"] + 1):
        expected = fibonacci(n) if n & 1 else lucas(n)
        yield {"n": n}, lambda: lucas_fib_representations(n)[1] == expected, True


@_register(
    "Che",
    "Chebyshev polynomials: coefficient match and ratio evaluations "
    "(recurrence coefficient 2x; scaling 2^(d(n-1)))",
    "n in [1, nmax]", touches_omega=True,
    quick={"nmax": 32}, full={"nmax": 64}, tiny={"nmax": 10},
)
def _run_che(bounds, rng) -> Iterator[Case]:
    for n, verdict in zip(range(1, bounds["nmax"] + 1), chebyshev_checks()):
        yield {"n": n}, verdict, True


_DIC_ALPHAS = (1, -1, 2, -2, 3)  # the `alphas` of Dic's grid


@_register(
    "Dic",
    "Dickson polynomials: coefficient match, functional identity, and "
    "ratio evaluations (recurrence x D - alpha D, consistent with the "
    "coefficient formula; the 2x variant is not)",
    "n in [1, nmax]; alpha in alphas", touches_omega=True,
    quick={"nmax": 32}, full={"nmax": 64}, tiny={"nmax": 10},
)
def _run_dic(bounds, rng) -> Iterator[Case]:
    for alpha in _DIC_ALPHAS:
        for n, verdict in zip(range(1, bounds["nmax"] + 1), dickson_checks(alpha)):
            yield {"n": n, "alpha": alpha}, verdict, True


@_register(
    "G6X", "companion triangle ratio equals the Fibonacci numbers",
    "n in [2, nmax]", touches_omega=False,
    quick={"nmax": 60}, full={"nmax": 100}, tiny={"nmax": 12},
)
def _run_g6x(bounds, rng) -> Iterator[Case]:
    for n in range(2, bounds["nmax"] + 1):
        yield {"n": n}, lambda: fib_lambda_table(n)[1] == fibonacci(n), True


@_register(
    "primeFib", "next prime divides the companion value over F(2 p_k)",
    "k in [2, kmax]", touches_omega=False,
    quick={"kmax": 8}, full={"kmax": 12}, tiny={"kmax": 4},
)
def _run_primefib(bounds, rng) -> Iterator[Case]:
    for k in range(2, bounds["kmax"] + 1):
        yield {"k": k}, lambda: lambda_emergence_check(k), True


@_register(
    "harmonic",
    "mod n^2 congruence of the falling factorial with the harmonic "
    "combination (n = 1 mod 8)",
    "n in [9, nmax] with n = 1 mod 8", touches_omega=False,
    quick={"nmax": 201}, full={"nmax": 401}, tiny={"nmax": 57},
)
def _run_harmonic(bounds, rng) -> Iterator[Case]:
    for n in range(9, bounds["nmax"] + 1, 8):
        yield {"n": n}, lambda: primes.harmonic_congruence_check(n), True


@_register(
    "lagarias", "divisor-sum inequality sigma(n) <= H_n + log(H_n) e^(H_n)",
    "n in [1, nmax]", touches_omega=False,
    quick={"nmax": 2000}, full={"nmax": 100000}, tiny={"nmax": 200},
)
def _run_lagarias(bounds, rng) -> Iterator[Case]:
    offenders = set(primes.lagarias_sweep(bounds["nmax"]))
    for n in range(1, bounds["nmax"] + 1):
        yield (
            {"n": n},
            lambda: "undecided or violated" if n in offenders else "holds",
            "holds",
        )


OMEGA_TOUCHING_IDS = frozenset(c.id for c in REGISTRY.values() if c.touches_omega)


# -- execution ---------------------------------------------------------------------


def _execute(check: TheoremCheck, bounds: Mapping | None, seed: int) -> TheoremReport:
    """Run `check` under `bounds`; None bounds (no quick profile) skip it."""
    grid_desc = f"{check.grid}; bounds={dict(bounds or {})}; seed={seed}"
    if bounds is None:
        return TheoremReport(
            id=check.id,
            anchor=check.anchor,
            grid=grid_desc,
            cases_run=0,
            failures=[],
            elapsed_ms=0,
            status="skipped",
            failures_total=0,
        )
    rng = random.Random(f"{seed}:{check.id}")
    cases_run, failures, failures_total, status = 0, [], 0, None
    start = time.perf_counter()
    try:
        # `fn` runs before the generator resumes, so a closure over the
        # runner's loop variables sees the values of its own case.
        for params, fn, expected in check.runner(bounds, rng):
            cases_run += 1
            try:
                actual = fn()
            except (TheoremViolationError, KernelPointError) as exc:
                expected, actual = "identity holds", _raised(exc)
            else:
                if actual == expected:
                    continue
                expected, actual = str(expected), str(actual)
            failures_total += 1
            if len(failures) < MAX_FAILURES_RECORDED:
                failures.append(_failure(params, expected, actual))
    except (TheoremViolationError, KernelPointError) as exc:
        cases_run, failures_total = 1, 1
        failures = [_failure({"stage": "sweep"}, "identity holds", _raised(exc))]
    except Exception as exc:
        # a defect of the check itself, not a verdict on the identity
        status, failures_total = "error", 1
        failures = [_failure({"stage": "sweep"}, "no exception", _raised(exc))]
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return TheoremReport(
        id=check.id,
        anchor=check.anchor,
        grid=grid_desc,
        cases_run=cases_run,
        failures=failures,
        elapsed_ms=elapsed_ms,
        status=status or ("pass" if cases_run and not failures else "fail"),
        failures_total=failures_total,
    )


def _failure(params: Mapping, expected: str, actual: str) -> dict:
    return {"params": dict(params), "expected": expected, "actual": actual}


def _raised(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _check_profile(profile: str) -> None:
    if profile not in ("quick", "full"):
        raise ValueError("profile must be 'quick' or 'full'")


def run_check(
    id: str,
    overrides: Mapping | None = None,
    *,
    profile: str = "full",
    seed: int = 0,
) -> TheoremReport:
    """Run one registered check with profile bounds plus overrides.

    An override key must be a bound of the check's profiles; any other key
    raises ValueError, as does a profile other than quick or full.
    """
    if id not in REGISTRY:
        raise KeyError(f"unknown check id {id!r}")
    _check_profile(profile)
    check = REGISTRY[id]
    allowed = set(check.full)
    foreign = sorted(set(overrides or {}) - allowed)
    if foreign:
        raise ValueError(
            f"{', '.join(foreign)} is not a bound of {id} "
            f"(its bounds: {', '.join(sorted(allowed)) or 'none'})"
        )
    base = check.quick if profile == "quick" else check.full
    bounds = dict(base or check.full)
    bounds.update(overrides or {})
    return _execute(check, bounds, seed)


def run_all(
    profile: str = "quick",
    *,
    seed: int = 0,
    ids: Iterable[str] | None = None,
) -> list[TheoremReport]:
    """Run every registered check (ordered by id) under a profile.

    The quick profile marks checks without quick bounds as skipped rather
    than omitting them, so coverage stays visible.
    """
    _check_profile(profile)
    selected = sorted(ids) if ids is not None else sorted(REGISTRY)
    reports = []
    for id in selected:
        check = REGISTRY[id]
        bounds = check.quick if profile == "quick" else check.full
        reports.append(_execute(check, bounds, seed))
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
                report.failures_total,
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
            report = _execute(check, check.tiny, seed)
            statuses[id] = report.status
    failing = sum(1 for s in statuses.values() if s == "fail")
    return failing / len(statuses), statuses
