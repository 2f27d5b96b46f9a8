"""Command-line surface: sequence values, triangle tables, theorem sweeps.

Exit codes are a stable contract for scripting: 0 on success, 1 when a
verification sweep found a violation or a check raised an error, 2 on usage
errors.  Data goes to stdout; progress goes to stderr so pipes stay
machine-clean.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import log, log2
from pathlib import Path

from .scalars import ScalarParseError, format_scalar, is_square_free, parse_scalar
from .sequences import (
    QPoint,
    TheoremViolationError,
    _lift,
    omega_table,
    omega_top,
    psi_point,
    second_fundamental,
)
from . import primes
from .verify import REGISTRY, SPECIAL_TABLES, reports_to_csv, run_all, run_check

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

BUDGET_S = 6.8  # seconds; `mersenne 11213`, kept until shift-add reduction, is estimated at 6.74


def _refuse_over_budget(command: str, *ops: tuple) -> None:
    """Raise FeasibilityError, before a command computes, when ``ops``, each
    (count, bit width, kind), are estimated past BUDGET_S.  An op costs c0 plus
    c1 w^1.585 for a "product" (Karatsuba) or c2 w^2 for a "reduction" (%, //,
    gcd, to decimal; pow(x, -1, m) is 45); a pair (w, v), w bits by v fewer, costs
    c1 w v^0.585 or c2 w max(v, 1000).  Python 3.11.7, 2-core x86-64 VM: c0 = 1e-6
    (`emerge 2048`'s 17,863 small steps 0.015-0.019 s), c1 = 3e-11 (2^20-bit product
    0.105 s), c2 = 1.75e-12 (% of 2^21 by 2^20 bits 1.92 s, str of 2^20 bits 1.58 s,
    % of 400,000 by 332 bits 0.5 ms); pow(x, -1, m) 35-47 % at 2^14-2^17 bits."""
    seconds = 0.0
    for count, width, kind in ops:  # clamped: a negative n is the engine's error
        w, v = (min(max(b, 0), 1e30) for b in (width if isinstance(width, tuple) else (width,) * 2))
        cost = 3e-11 * w * v**0.585 if kind == "product" else 1.75e-12 * w * max(v, 1000)
        seconds += min(max(count, 0), 1e30) * (1e-6 + cost)
    if seconds > BUDGET_S:
        raise primes.FeasibilityError(
            f"{command} would take about {seconds:.3g} s; the budget is {BUDGET_S:g} s"
        )


def _value_ops(point: QPoint, n: int, modulus=None, tops=0, entries=0) -> list:
    """Ops of psi(point, n) and ``tops`` omega tops, one value printed, or of a
    triangle of ``entries``, all printed; the README derives each count."""
    s, z, x, d = _lift(point)
    u = max(abs(c).bit_length() for c in (s, *z, *x)) + 1 + (d.bit_length() + 1) // 2
    parts, scaled, K, printed = 1 + (d > 0), int(s > 1), max(n, 0) // 2, entries or 1
    if modulus is not None:
        w, steps = modulus.bit_length(), K.bit_length()
        work = 2 * parts * (parts + 1) * entries or (6 * parts**2 + 2 * parts) * steps
        return [(work + printed * parts + 45 * scaled, w, "reduction"), (7, (u, w), "reduction")]
    v = u + n.bit_length() * (tops + entries > 0)
    w = K * v
    printing = printed * (parts + (3 * parts + 2) * scaled) + parts * scaled * tops
    return [
        (2 * parts**2 * (K * tops + entries), (w // 2, v), "product"),
        (6 * parts**2 + (parts + 2 * scaled) * (tops + 1), w, "product"),
        (printing, w // 2 if entries else w, "reduction"),
    ]


def parse_point(text: str) -> QPoint:
    """Parse 'a,b' where each side uses the scalar text form, optionally
    carrying a ':d=<radicand>' suffix that declares the ambient ring.  Every
    declaration must name the same square-free d >= 0, and no component may
    live over another radicand."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ScalarParseError("point must be '<alpha>,<beta>'", 0)
    declared: set[int] = set()
    comps = []
    for part in parts:
        head, sep, tail = part.partition(":d=")
        if sep:
            declared.add(int(tail))
        comps.append(parse_scalar(head.strip()))
    if len(declared) > 1:
        raise ScalarParseError(f"conflicting ring declarations d={sorted(declared)}", 0)
    for d in declared:
        if not is_square_free(d):
            raise ScalarParseError(f"declared radicand d={d} must be square-free and >= 0", 0)
        for comp in comps:
            if comp.d not in (0, d):
                raise ScalarParseError(f"component radicand {comp.d} conflicts with d={d}", 0)
    return QPoint(*comps)


def _print_progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _cmd_psi(args) -> int:
    point = parse_point(args.point)
    _refuse_over_budget("psi", *_value_ops(point, args.n, args.mod))
    print(psi_point(point, args.n, args.mod))
    return EXIT_OK


def _cmd_omega(args) -> int:
    point = parse_point(args.point)
    K = max(args.n, 0) // 2  # the whole triangle is built, even for one entry
    entries = (K + 1) * (K + 2) // 2
    _refuse_over_budget("omega", *_value_ops(point, args.n, args.mod, entries=entries))
    if args.k is not None and args.r is None:
        args.r = 0  # stable column by default
    if args.r is not None and args.k is None:
        raise ValueError("--r requires --k")
    if args.r is not None and (args.r < 0 or args.k < 0 or args.r + args.k > K):
        _print_progress(f"error: (r, k) outside triangle for n={args.n}")
        return EXIT_USAGE
    table = omega_table(point, args.n, modulus=args.mod)
    if args.r is not None:
        print(table.entry(args.r, args.k))
    else:
        print(json.dumps(table.to_dict(), separators=(",", ":")))
    return EXIT_OK


def _cmd_mersenne(args) -> int:
    # p - 2 squarings in each of psi_point's tail and lucas_lehmer, each reduced by %
    steps = 2 * (args.p - 2)
    _refuse_over_budget("mersenne", (steps, args.p, "product"), (steps, args.p, "reduction"))
    verdict = primes.mersenne_test(args.p)
    print("prime" if verdict else "composite")
    return EXIT_OK


def _cmd_emerge(args) -> int:
    point = parse_point(args.point)
    # p_k steps mod p_{k+1} (a quadratic step costs about two rational ones),
    # and p_k! mod p_{k+1} from p_k / 64 reduced products; above the first
    # primes p_k < k (ln k + ln ln k), so no sieve runs
    k = min(args.k, 10**30)  # past any budget, and a float below
    p = primes.nth_prime(k) if 2 <= k <= 31 else k * (log(k) + log(log(k))) if k > 31 else 2
    steps = [((2 if point.d else 1) * p, log2(p) + 1, "product"), (p / 64, 64 * log2(p), "reduction")]
    # emergence_check's exact ratio, and the top computed again and printed
    exact = _value_ops(point, 2 * p, tops=2) if p <= primes.EXACT_EMERGENCE_MAX_P else []
    _refuse_over_budget("emerge", *steps, *exact)
    try:
        result = primes.emergence_check(args.k, point)
    except TheoremViolationError as exc:
        print(f"p{args.k + 1} emergence : FAIL ({exc})")
        return EXIT_VIOLATION
    if result.exact_path:
        omega0 = format_scalar(omega_top(point, 2 * result.p_k))
        print(f"p{args.k + 1}={result.p_next} divides Omega0={omega0} : PASS")
    else:  # emergence_check returns only when the residue is 0
        q = result.p_next
        print(f"p{args.k + 1}={q} divides Omega0 (residue 0 mod {q}) : PASS")
    return EXIT_OK


def _cmd_table(args) -> int:
    point = parse_point(args.point)
    # rows cost at least linearly more with n, so sum to under nmax / 2 of the last
    ops = _value_ops(point, args.nmax, tops=1)
    _refuse_over_budget("table", *[(c * args.nmax // 2, w, kind) for c, w, kind in ops])
    if args.nmax < 2:
        raise ValueError(f"--nmax must be >= 2; got {args.nmax}")
    period = next((period for q, period, _ in SPECIAL_TABLES.values() if q == point), None)
    rows = []
    for n in range(2, args.nmax + 1):
        # the ratio column is psi once second_fundamental has checked it
        psi = format_scalar(second_fundamental(point, n))
        rows.append({"n": n, "psi": psi, "ratio": psi, "class": n % period if period else n})
    if args.format == "json":
        print(json.dumps(rows, separators=(",", ":")))
    elif args.format == "csv":
        print("n,psi,ratio,class")
        for row in rows:
            print(f"{row['n']},{row['psi']},{row['ratio']},{row['class']}")
    else:
        width = max(len(row["psi"]) for row in rows)
        header = f"{'n':>4}  {'psi':>{width}}  {'ratio':>{width}}  class"
        print(header)
        for row in rows:
            print(
                f"{row['n']:>4}  {row['psi']:>{width}}  "
                f"{row['ratio']:>{width}}  {row['class']}"
            )
    return EXIT_OK


_BOUND_FLAGS = ("nmax", "kmax", "pmax", "coord")


def _cmd_verify(args) -> int:
    overrides = {
        key: getattr(args, key) for key in _BOUND_FLAGS if getattr(args, key) is not None
    }
    if args.id == "all":
        if overrides:
            _print_progress("note: bound overrides apply only to single-id runs")
        reports = []
        for id in sorted(REGISTRY):
            _print_progress(f"running {id} ...")
            reports.extend(run_all(args.profile, seed=args.seed, ids=[id]))
    else:
        if args.id not in REGISTRY:
            _print_progress(f"error: unknown check id {args.id!r}")
            return EXIT_USAGE
        report = run_check(args.id, overrides, profile=args.profile, seed=args.seed)
        # a bound that a case refuses is a usage error, as the override rule is
        refused = f"{primes.FeasibilityError.__name__}: "
        if report.status == "error" and report.failures[0]["actual"].startswith(refused):
            raise primes.FeasibilityError(report.failures[0]["actual"].removeprefix(refused))
        # an empty grid finds no violation: a fail with no failure ran no case
        if report.status == "fail" and not report.failures:
            _print_progress(f"error: {args.id} runs no case: {report.grid}")
            return EXIT_USAGE
        reports = [report]
    payload = [r.to_dict() for r in reports]
    if args.format == "json":
        print(json.dumps(payload, separators=(",", ":")))
    elif args.format == "csv":
        print(reports_to_csv(reports), end="")
    else:
        for r in reports:
            line = f"{r.status.upper():7} {r.id:16} cases={r.cases_run:<7} {r.elapsed_ms} ms"
            if r.failures:
                first = r.failures[0]
                line += f"  first: {first['params']}"
                if r.status == "error":
                    line += f"  {first['actual']}"
            print(line)
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "verify_report.json").write_text(
            json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8"
        )
        (outdir / "verify_summary.csv").write_text(
            reports_to_csv(reports), encoding="utf-8"
        )
    ok = all(r.status in ("pass", "skipped") for r in reports)
    return EXIT_OK if ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quanta",
        description="Exact psi/omega sequence computations and theorem sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point_help = (
        "point as '<alpha>,<beta>'; scalars like '3', '-1/2', '1*sqrt(2)'; "
        "optional ':d=<radicand>' suffix declares the ring"
    )

    p_psi = sub.add_parser("psi", help="print psi(point, n)")
    p_psi.add_argument("--point", required=True, help=point_help)
    p_psi.add_argument("--n", type=int, required=True)
    p_psi.add_argument("--mod", type=int, default=None)
    p_psi.set_defaults(func=_cmd_psi)

    p_omega = sub.add_parser("omega", help="print a triangle entry or the full table")
    p_omega.add_argument("--point", required=True, help=point_help)
    p_omega.add_argument("--n", type=int, required=True)
    p_omega.add_argument("--r", type=int, default=None)
    p_omega.add_argument("--k", type=int, default=None)
    p_omega.add_argument("--mod", type=int, default=None)
    p_omega.set_defaults(func=_cmd_omega)

    p_verify = sub.add_parser("verify", help="run registered theorem checks")
    p_verify.add_argument("id", help="check id, or 'all'")
    p_verify.add_argument("--profile", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    p_verify.add_argument("--out", default=None, help="directory for report files")
    p_verify.add_argument("--seed", type=int, default=0)
    for flag in _BOUND_FLAGS:
        p_verify.add_argument(f"--{flag}", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_mersenne = sub.add_parser("mersenne", help="Mersenne primality of 2^p - 1")
    p_mersenne.add_argument("p", type=int)
    p_mersenne.set_defaults(func=_cmd_mersenne)

    p_emerge = sub.add_parser("emerge", help="emergence divisibility at the k-th prime")
    p_emerge.add_argument("k", type=int)
    p_emerge.add_argument("--point", required=True, help=point_help)
    p_emerge.set_defaults(func=_cmd_emerge)

    p_table = sub.add_parser("table", help="psi and ratio values over a range of n")
    p_table.add_argument("--point", required=True, help=point_help)
    p_table.add_argument("--nmax", type=int, required=True)
    p_table.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    p_table.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    # psi and omega values outgrow the default 4300-digit str() limit; argv
    # strings, the only text parsed, are capped by the OS (128 KiB on Linux)
    if hasattr(sys, "set_int_max_str_digits"):  # absent before 3.10.7
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # parse, ring, localization, kernel-point and feasibility errors alike
        _print_progress(f"error: {exc}")
        return EXIT_USAGE
    except TheoremViolationError as exc:
        _print_progress(f"violation: {exc}")
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
