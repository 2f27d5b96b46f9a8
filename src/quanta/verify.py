"""Registry of executable theorem checks with machine-readable reports.

Each check id names one verified identity and binds its parameter grid per
profile (quick / full, plus the reduced `tiny` grid of fault-injection
runs).  One `_register(...)` next to the check's runner enters it in
REGISTRY.  A runner is a generator `runner(bounds, rng)` that yields cases
`(params, fn, expected)`: the case passes when `fn()` equals `expected`, and
a predicate case yields `expected=True`.  It may also yield a block
`(params_of, actual, expected)` of two equally long lists, whose case i has
params `params_of(i)` and passes when actual[i] equals expected[i]; its
values are computed before it is yielded, so a block suits only cases that
cannot raise.  `_execute` is the one loop over cases.  It counts them, calls
each `fn` under the TheoremViolationError/KernelPointError guard (a raise
fails that case), compares a block at once, counts every failing case and
keeps the first MAX_FAILURES_RECORDED counterexamples in case order; a
report whose list was cut short also carries `failures_total`.  A runner
that raises mid-sweep, or yields a block of unequal lists, leaves one
sweep-level failure instead: status `fail` for a violation, `error` for any
other exception, and the other checks still run.

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
from itertools import compress, count, islice
from math import factorial, prod
from operator import ne
from typing import Callable, Iterable, Iterator, Mapping

from .scalars import GOLDEN, QuadExt, SQRT2, SQRT3, SQRT5
from .sequences import (
    KernelPointError,
    QPoint,
    TheoremViolationError,
    _expansion_column,
    _power_sum_expansion,
    _psi_sum,
    _psi_values,
    delta,
    falling_factorial,
    fib_lambda_table,
    fibonacci,
    flipped_omega_coupling,
    lambda_seed,
    lambda_table,
    lucas,
    omega_closed,
    omega_table,
    product_identity_check,
    psi_closed,
    psi_expansion_identity_check,
    psi_point,
    psi_rec,
    second_fundamental,
    sums_of_powers_check,
)
from .polynomials import (
    UniPoly,
    chebyshev_checks,
    dickson_checks,
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
# run_check's cap on prod(max(1, override / full bound)); k00 at 4x took 5.6 s
OVERRIDE_MAX_SCALE = 4


# (params, fn, expected): the case passes when fn() == expected; or a block
# (params_of, actual, expected): case i passes when actual[i] == expected[i]
Case = tuple[Mapping, Callable[[], object], object] | tuple[Callable[[int], Mapping], list, list]


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


def _mirrored(point: QPoint, *values) -> tuple[QPoint, int, Callable[[int], QuadExt]]:
    """The SPECIAL_TABLES entry of a point where psi is periodic and even in n:
    period P = 2 (len(values) - 1) and psi(n) = values[min(n mod P, -n mod P)]."""
    period = 2 * (len(values) - 1)
    values = [v if isinstance(v, QuadExt) else QuadExt(v) for v in values]
    cycle = [values[min(r, -r % period)] for r in range(period)]
    return point, period, lambda n: cycle[n % period]


def _table_1_2(n: int) -> QuadExt:
    value = 2 ** delta(n - 1) * n ** delta(n)
    return QuadExt(-value if (n // 2) & 1 else value)


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
    "PP00": _mirrored(QPoint(1, 1), 2, 1, -1, -2),
    "PP00Q": _mirrored(QPoint(1, 0), 2, 1, 0, -1, -2),
    "PP1A": _mirrored(QPoint(1, -1), 2, 1, 1, 0, -1, -1, -2),
    "ABAB": _mirrored(QPoint(1, -2), 2, 1),
    "DA": (QPoint(1, 2), 4, _table_1_2),
    "root2": _mirrored(
        QPoint(1, SQRT2), 2, 1, -SQRT2, -1 - SQRT2, 0, 1 + SQRT2, SQRT2, -1, -2
    ),
    "phi": _mirrored(
        QPoint(1, GOLDEN - 1),
        2, 1, 1 - GOLDEN, -GOLDEN, -GOLDEN, 0, GOLDEN, GOLDEN, GOLDEN - 1, -1, -2,
    ),
    "root3": _mirrored(
        QPoint(1, SQRT3),
        2, 1, -SQRT3, -1 - SQRT3, 1, 2 + SQRT3, 0, -2 - SQRT3, -1, 1 + SQRT3, SQRT3, -1, -2,
    ),
    "FL": (QPoint(1, SQRT5), 4, _table_sqrt5),
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
                lambda: _power_sum_expansion(x, y, n),
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
                signed = (-1) ** k * factorial(k)
                for r in range(K - k + 1):
                    yield (
                        {"point": label, "n": n, "r": r, "k": k},
                        lambda: _expansion_column(otable, k)[r] * signed,
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
    # On ints at (a, b) = (1, 4): the k-fold derivative of psi along the point
    # is k! times the t^k coefficient of psi(1 + alpha t, 4 + beta t, n), read
    # from one pass of psi's recurrence over Z[t] per point (Taylor's theorem).
    a, b, nmax = 1, 4, bounds["nmax"]
    for point in _int_points(bounds["coord"]):
        al, be = point.alpha.a, point.beta.a
        if be * a == al * b:
            continue
        label, paths = str(point), ("bridge", "k!|lam")
        taylor = islice(_psi_values(UniPoly([a, al]), UniPoly([b, be])), 2, nmax + 1)
        for n, poly in enumerate(taylor, 2):
            otable = omega_table(point, n)
            ltable = lambda_table(point, n)
            signed = 1  # (-1)^k k!
            for k in range(n // 2 + 1):
                if k:
                    signed *= -k
                try:
                    coeffs = _expansion_column(otable, k)
                except TheoremViolationError as exc:
                    yield (
                        {"point": label, "n": n, "k": k},
                        lambda: str(exc),
                        "integral coefficients",
                    )
                    continue
                actual, expected = [], []
                for r, c in enumerate(coeffs):
                    # c_r (-1)^k k! = lambda_r(k), lambda from its own triangle
                    lam = ltable.entry(r, k).a
                    actual += c * signed, lam % signed == 0
                    expected += lam, True
                yield (  # one block: per r, its bridge case, then its k!|lam case
                    lambda i: {"point": label, "n": n, "k": k, "r": i // 2, "path": paths[i & 1]},
                    actual,
                    expected,
                )
                yield (
                    {"point": label, "n": n, "k": k, "path": "derivative"},
                    lambda: _psi_sum(coeffs, a, 2 * a - b) * signed,
                    poly.coeffs[k] * factorial(k) if k <= poly.degree else 0,
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
                lambda: second_fundamental(point, 2 * n) is not None,
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
                lambda: emergence_check(k, point) is not None,  # it raises on failure
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


def _closed_form_runner(
    point_id: tuple[int, int], top: tuple[str, Callable[[int], int]] | None = None
) -> Callable:
    """Runner of a closed-form triangle check: every entry against
    omega_closed, then, when `top` = (label, value of n) is given, the top
    entry against that claim."""

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
            if top is not None:
                yield (
                    {"point": label, "n": n, "claim": top[0]},
                    lambda: table.top(),
                    QuadExt(top[1](n)),
                )

    return run


_register(
    "AU5", "closed product form of the triangle at (1, -2)",
    "n up to nmax; all entries", touches_omega=True,
    quick={"nmax": 24}, full={"nmax": 40}, tiny={"nmax": 10},
)(_closed_form_runner(
    (1, -2),
    ("descending-odds", lambda n: 2 ** (n // 2) * prod(range(n + delta(n - 1) - 2, 0, -2))),
))
_register(
    "AU9", "closed product form of the triangle at (1, 2)",
    "n up to nmax; all entries", touches_omega=True,
    quick={"nmax": 24}, full={"nmax": 40}, tiny={"nmax": 10},
)(_closed_form_runner((1, 2)))
_register(
    "AU11", "falling-factorial closed form of the triangle at (0, -1)",
    "n up to nmax; all entries", touches_omega=True,
    quick={"nmax": 24}, full={"nmax": 40}, tiny={"nmax": 10},
)(
    # a lambda, not falling_factorial itself: the name is looked up per call
    _closed_form_runner((0, -1), ("top=ff", lambda n: falling_factorial(n)))
)


def _ratio_runner(point: QPoint, expected: Callable[[int], object]) -> Callable:
    """Runner of a ratio-table check: for n in [2, nmax], the fundamental
    ratio second_fundamental(point, n) against expected(n), the classical
    value.  expected is called as each case is made, so a lambda that names
    lucas or fibonacci reads the name as it is bound then."""

    def run(bounds, rng) -> Iterator[Case]:
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
    _point, _, _expected = SPECIAL_TABLES[_id]
    _register(
        _id, _anchor, "n in [2, nmax]", touches_omega=True,
        quick={"nmax": 60}, full={"nmax": 200}, tiny={"nmax": 16},
    )(_ratio_runner(_point, _expected))


@_register(
    "AU7", "falling factorial as a power of two times descending odds",
    "n in [2, nmax]", touches_omega=False,
    quick={"nmax": 400}, full={"nmax": 2000}, tiny={"nmax": 40},
)
def _run_au7(bounds, rng) -> Iterator[Case]:
    for n, verdict in zip(range(2, bounds["nmax"] + 1), primes.combinatorial_identity_checks()):
        yield {"n": n}, verdict, True


_KNOWN_MERSENNE_EXPONENTS = {5, 7, 13, 17, 19, 31, 61, 89, 107}  # all in [5, 124], U14's p cap


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
    for p in bounds["pset"]:  # bounded as ABCD12's: the tables grow as 2^p
        if p > (cap := primes.MERSENNE_EXACT_MAX_P):
            raise primes.FeasibilityError(f"exact path is bounded at p <= {cap}")
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
        yield {"p": p}, lambda: second_fundamental(primes.MERSENNE_POINT, p), (1 << p) - 1


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
    for n in range(1, bounds["nmax"] + 1):
        yield {"n": n}, lambda: primes.fermat_representation(n), (1 << (1 << n)) + 1


_register(
    "G6", "Lucas numbers as fundamental ratios at (-1, -3)",
    "n in [2, nmax]", touches_omega=True,
    quick={"nmax": 60}, full={"nmax": 100}, tiny={"nmax": 12},
)(_ratio_runner(QPoint(-1, -3), lambda n: lucas(n)))
_register(
    "G7", "Fibonacci/Lucas oscillation as fundamental ratios at (1, -3)",
    "n in [2, nmax]", touches_omega=True,
    quick={"nmax": 60}, full={"nmax": 100}, tiny={"nmax": 12},
)(_ratio_runner(QPoint(1, -3), lambda n: fibonacci(n) if n & 1 else lucas(n)))


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
        yield {"n": n}, lambda: fib_lambda_table(n)[1], fibonacci(n)


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
    offenders = primes.lagarias_sweep(bounds["nmax"])  # its sieve is freed first
    expected = ["holds"] * bounds["nmax"]
    actual = expected.copy()
    for n in offenders:  # each n in [1, nmax]
        actual[n - 1] = "undecided or violated"
    yield lambda i: {"n": i + 1}, actual, expected


OMEGA_TOUCHING_IDS = frozenset(c.id for c in REGISTRY.values() if c.touches_omega)


# -- execution ---------------------------------------------------------------------


def _execute(check: TheoremCheck, bounds: Mapping | None, seed: int) -> TheoremReport:
    """Run `check` under `bounds`; None bounds (no quick profile) skip it."""
    grid_desc = f"{check.grid}; bounds={dict(bounds or {})}; seed={seed}"
    rng = random.Random(f"{seed}:{check.id}")
    cases_run, failures, failures_total = 0, [], 0
    status = "skipped" if bounds is None else None
    start = time.perf_counter()
    try:
        cases = () if status else check.runner(bounds, rng)
        # `fn` and `params_of` run before the generator resumes, so a closure
        # over the runner's loop variables sees the values of its own case.
        for params, fn, expected in cases:
            if type(fn) is list:  # a block: case i has params(i), fn[i], expected[i]
                if len(fn) != len(expected):
                    raise ValueError(f"a block of {len(fn)} values and {len(expected)} expected")
                cases_run += len(fn)
                wrong = list(compress(count(), map(ne, fn, expected)))
                failures_total += len(wrong)
                for i in wrong[: MAX_FAILURES_RECORDED - len(failures)]:
                    failures.append(_failure(params(i), str(expected[i]), str(fn[i])))
                continue
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
    raises ValueError, as does a profile other than quick or full, and
    overrides past OVERRIDE_MAX_SCALE raise FeasibilityError.
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

    def largest(bound):  # a list bound compares its largest element
        return max(bound, default=0) if isinstance(bound, list) else bound
    scale = prod(max(1, largest(v) / largest(check.full[k])) for k, v in (overrides or {}).items())
    if scale > OVERRIDE_MAX_SCALE:
        raise primes.FeasibilityError(
            f"{id}: product of max(1, override / full bound) is {scale:.3g} > {OVERRIDE_MAX_SCALE}"
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
