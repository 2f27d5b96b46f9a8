"""Acceptance gate: one test per criterion, bit-exact unless stated.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
live).  Criterion 7c checks the thinned emergence ratio at its true extent:
thinned ratio integral for k in [2,6]; p_{k+1} divides it for k in [3,6];
k=2 counterexample (thinned ratio = 1) reported by ``gen1``.
"""

import time

from quanta.primes import (
    emergence_check,
    lagarias_check,
    lagarias_sweep,
)
from quanta.sequences import QPoint, falling_factorial
from quanta.verify import mutation_sensitivity, run_check


def _line(number: str, description: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {number:>3} [{status}] {description} [{elapsed:.1f}s]{suffix}", flush=True)


def _check_report(number: str, description: str, id: str, bounds: dict):
    start = time.perf_counter()
    report = run_check(id, bounds)
    elapsed = time.perf_counter() - start
    ok = report.status == "pass"
    detail = f"{report.cases_run} cases"
    if report.failures:
        detail += f"; first failure {report.failures[0]['params']}"
    _line(number, description, ok, elapsed, detail)
    assert ok, f"criterion {number}: {id} failed: {report.failures[:3]}"


def test_criterion_01_second_fundamental_grid():
    _check_report(
        "1",
        "fundamental ratio = psi for n in [2,200], integer points in [-3,3]^2",
        "k00",
        {"nmax": 200, "coord": 3},
    )


def test_criterion_02_periodicity_tables():
    start = time.perf_counter()
    failures = []
    cases = 0
    for id in ("PP00", "PP00Q", "PP1A", "ABAB", "DA", "root2", "phi", "root3", "FL"):
        report = run_check(id, {"nmax": 200})
        cases += report.cases_run
        if report.status != "pass":
            failures.append((id, report.failures[:2]))
    elapsed = time.perf_counter() - start
    _line(
        "2",
        "nine special-point value tables for n in [2,200]",
        not failures,
        elapsed,
        f"{cases} cases",
    )
    assert not failures, failures


def test_criterion_03_mersenne_classification():
    _check_report(
        "3",
        "modular doubling classifies p in {5..31}; agrees with classical chain",
        "U14",
        {"pset": [5, 7, 11, 13, 17, 19, 23, 29, 31]},
    )


def test_criterion_04_mersenne_representation():
    _check_report(
        "4",
        "2^p - 1 reproduced as the (-2,-5) ratio for odd p in [3,25]",
        "G2f",
        {"pmax": 25},
    )


def test_criterion_05_exact_equivalence():
    start = time.perf_counter()
    a = run_check("ABCD12", {"pset": [5, 7, 11, 13]})
    b = run_check("ABCD12G", {"pset": [5, 7, 11, 13]})
    elapsed = time.perf_counter() - start
    ok = a.status == "pass" and b.status == "pass"
    _line("5", "exact ratio and product Mersenne criteria for p in {5,7,11,13}", ok, elapsed)
    assert ok, (a.failures[:2], b.failures[:2])


def test_criterion_06_fermat_representation():
    _check_report(
        "6",
        "2^(2^n) + 1 reproduced for n in [1,5]",
        "G4",
        {"nmax": 5},
    )


def test_criterion_07a_emergence_modular():
    _check_report(
        "7a",
        "p_{k+1} | top entry, k in [2,25], five-point grid (modular)",
        "gen2",
        {"kmax": 25},
    )


def test_criterion_07b_emergence_exact_variants():
    start = time.perf_counter()
    reports = [
        run_check("gen5", {"kmax": 6}),
        run_check("infinite_params", {"kmax": 6}),
    ]
    ratio_failures = []
    for k in range(2, 7):
        for point in [QPoint(1, 1), QPoint(1, -2), QPoint(0, -1), QPoint(2, 3)]:
            # emergence_check raises unless p_{k+1} divides the exact ratio
            if emergence_check(k, point).exact_path is not True:
                ratio_failures.append((k, str(point)))
    elapsed = time.perf_counter() - start
    ok = all(r.status == "pass" for r in reports) and not ratio_failures
    _line("7b", "exact ratio variants for k in [2,6]: normalized, combined, odd-prime product", ok, elapsed)
    assert ok, (ratio_failures, [r.failures[:2] for r in reports if r.status != "pass"])


def test_criterion_07c_emergence_thinned_ratio():
    # The normalized ratio is p(p+1)...(2p-1), so removing p(2p-1)(2p-2)
    # leaves (p+1)...(2p-3): p_{k+1} divides it iff p_{k+1} <= 2 p_k - 3.
    # At k = 2 the product is empty (60/60 = 1) and p_3 = 5 = 2*3 - 1, a
    # genuine counterexample that registry check gen1 must keep reporting.
    start = time.perf_counter()
    primes = [2, 3, 5, 7, 11, 13, 17]
    points = [QPoint(1, 1), QPoint(1, -2), QPoint(0, -1), QPoint(2, 3)]
    failures = []
    non_divisible_k = set()
    for k in range(2, 7):
        p, q = primes[k - 1], primes[k]
        expect_divisible = q <= 2 * p - 3
        if not expect_divisible:
            non_divisible_k.add(k)
        for point in points:
            result = emergence_check(k, point)
            if result.exact_path is not True or result.gen1_integer is not True:
                failures.append((k, str(point), "exact integral thinned ratio"))
            if result.gen1_divisible is not expect_divisible:
                failures.append((k, str(point), f"divisible is {expect_divisible}"))
    report = run_check("gen1", {"kmax": 6})
    reported = [
        (f["params"].get("k"), f["params"].get("point"), f["params"].get("claim"))
        for f in report.failures
    ]
    expected_reported = [(2, str(point), "divisible") for point in points]
    elapsed = time.perf_counter() - start
    ok = (
        not failures
        and non_divisible_k == {2}
        and report.status == "fail"
        and reported == expected_reported
    )
    _line(
        "7c",
        "thinned ratio integral for k in [2,6]; p_{k+1} divides it for k in [3,6]; "
        "k=2 counterexample reported by gen1",
        ok,
        elapsed,
        f"mismatches: {failures[:4]}" if failures else "",
    )
    assert not failures, failures
    assert non_divisible_k == {2}, non_divisible_k
    assert report.status == "fail", report.status
    assert reported == expected_reported, report.failures


def test_criterion_08_first_fundamental():
    _check_report(
        "8",
        "expansion = bridge = derivative paths; integral coefficients; k! | lambda "
        "(n in [2,40], points in [-2,2]^2, all k)",
        "F1100",
        {"nmax": 40, "coord": 2},
    )


def test_criterion_09_differential_ladder():
    start = time.perf_counter()
    reports = [
        run_check("diff1", {"nmax": 20}),
        run_check("diff3", {"nmax": 20}),
        run_check("IAexp2", {"nmax": 20}),
    ]
    elapsed = time.perf_counter() - start
    ok = all(r.status == "pass" for r in reports)
    _line("9", "derivative ladder and collapse identities, symbolic, n in [2,20]", ok, elapsed)
    assert ok, [r.id for r in reports if r.status != "pass"]


def test_criterion_10_chebyshev_dickson():
    start = time.perf_counter()
    che = run_check("Che", {"nmax": 64})
    dic = run_check("Dic", {"nmax": 64})
    elapsed = time.perf_counter() - start
    ok = che.status == "pass" and dic.status == "pass"
    _line("10", "coefficient-exact Chebyshev/Dickson for n in [1,64]", ok, elapsed)
    assert ok, (che.failures[:2], dic.failures[:2])


def test_criterion_11_combinatorial_identity():
    _check_report(
        "11",
        "falling factorial = two-power times descending odds for n in [2,2000]",
        "AU7",
        {"nmax": 2000},
    )


def test_criterion_12_harmonic_congruence():
    start = time.perf_counter()
    anchor_ok = falling_factorial(9) % 81 == 60
    report = run_check("harmonic", {"nmax": 401})
    elapsed = time.perf_counter() - start
    ok = anchor_ok and report.status == "pass"
    _line(
        "12",
        "harmonic congruence mod n^2 for n = 1 mod 8 in [9,401] (anchor n=9: 60 mod 81)",
        ok,
        elapsed,
        f"{report.cases_run} cases",
    )
    assert ok, report.failures[:3]


def test_criterion_13_lucas_fibonacci_representations():
    start = time.perf_counter()
    reports = [
        run_check("G6", {"nmax": 100}),
        run_check("G7", {"nmax": 100}),
        run_check("G6X", {"nmax": 100}),
        run_check("primeFib", {"kmax": 12}),
    ]
    elapsed = time.perf_counter() - start
    ok = all(r.status == "pass" for r in reports)
    _line("13", "Lucas/Fibonacci representations, n in [2,100], k in [2,12]", ok, elapsed)
    assert ok, [r.id for r in reports if r.status != "pass"]


def test_criterion_14_divisor_sum_inequality():
    start = time.perf_counter()
    offenders = lagarias_sweep(100000)
    spot = (
        lagarias_check(1) == "holds"
        and lagarias_check(6) == "holds_strict"
        and lagarias_check(5040) == "holds_strict"
    )
    elapsed = time.perf_counter() - start
    ok = offenders == [] and spot
    _line("14", "divisor-sum inequality for n in [1,10^5], strict beyond n=1", ok, elapsed)
    assert ok, offenders[:5]


def test_criterion_15_mutation_sensitivity():
    start = time.perf_counter()
    fraction, statuses = mutation_sensitivity()
    elapsed = time.perf_counter() - start
    ok = fraction >= 0.9
    survivors = sorted(id for id, s in statuses.items() if s != "fail")
    _line(
        "15",
        "perturbed triangle recurrence fails >= 90% of omega-touching checks",
        ok,
        elapsed,
        f"{fraction:.0%} fail; unaffected: {survivors}",
    )
    assert ok, f"sensitivity {fraction:.2%}, survivors {survivors}"
