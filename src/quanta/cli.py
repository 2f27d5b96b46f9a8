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
from pathlib import Path

from .scalars import ScalarParseError, format_scalar, is_square_free, parse_scalar
from .sequences import (
    QPoint,
    TheoremViolationError,
    _lift,
    falling_factorial,
    omega_table,
    omega_top,
    psi_point,
)
from . import primes
from .verify import REGISTRY, SPECIAL_TABLES, reports_to_csv, run_all, run_check

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

# `quanta omega` builds the whole triangle even for one entry, and its JSON
# grows as about n^3 (58 MB at n = 1000); `quanta table` computes one top per
# n up to nmax.  Larger n is refused by both.
OMEGA_MAX_N = 1024
PSI_MAX_N = 131072  # `quanta psi`: n steps on n-digit numbers; about 1 s at (1, 4)
PSI_MAX_BITS = 2**18  # estimated size of an exact psi value; (1, 4) at PSI_MAX_N fits
# p - 2 squarings of p-bit numbers, twice over; p = 11213 takes about 8 s
MERSENNE_MAX_P = 11213
# the top entry at level 2 p_k, p_2048 = 17863; (10^9, 1) takes about 4 s
EMERGE_MAX_K = 2048


def _psi_bits(point: QPoint, n: int) -> int:
    """Estimated bit length of the exact psi(point, n): n // 2 steps, each
    about one lifted component long, sqrt(d) counted as half of d's bits."""
    _, z, x, d = _lift(point)
    width = max(abs(c).bit_length() for c in (*z, *x))
    return (n // 2) * (width + 1 + (d.bit_length() + 1) // 2)


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
    if args.n > PSI_MAX_N:
        raise primes.FeasibilityError(f"--n is capped at {PSI_MAX_N}; got {args.n}")
    point = parse_point(args.point)
    # residues stay below --mod; only an exact value can outgrow memory
    if args.mod is None and (bits := _psi_bits(point, args.n)) > PSI_MAX_BITS:
        raise primes.FeasibilityError(
            f"exact psi would have about {bits} bits; the cap is {PSI_MAX_BITS}"
        )
    print(psi_point(point, args.n, args.mod))
    return EXIT_OK


def _cmd_omega(args) -> int:
    if args.n > OMEGA_MAX_N:
        raise primes.FeasibilityError(f"--n is capped at {OMEGA_MAX_N}; got {args.n}")
    point = parse_point(args.point)
    if args.k is not None and args.r is None:
        args.r = 0  # stable column by default
    if args.r is not None and args.k is None:
        raise ScalarParseError("--r requires --k", 0)
    if args.r is not None:
        K = args.n // 2
        if args.r < 0 or args.k < 0 or args.r + args.k > K:
            _print_progress(f"error: (r, k) outside triangle for n={args.n}")
            return EXIT_USAGE
        table = omega_table(point, args.n, modulus=args.mod)
        print(table.entry(args.r, args.k))
        return EXIT_OK
    table = omega_table(point, args.n, modulus=args.mod)
    print(json.dumps(table.to_dict(), separators=(",", ":")))
    return EXIT_OK


def _cmd_mersenne(args) -> int:
    if args.p > MERSENNE_MAX_P:
        raise primes.FeasibilityError(f"p is capped at {MERSENNE_MAX_P}; got {args.p}")
    verdict = primes.mersenne_test(args.p)
    print("prime" if verdict else "composite")
    return EXIT_OK


def _cmd_emerge(args) -> int:
    if args.k > EMERGE_MAX_K:
        raise primes.FeasibilityError(f"k is capped at {EMERGE_MAX_K}; got {args.k}")
    point = parse_point(args.point)
    try:
        result = primes.emergence_check(args.k, point)
    except TheoremViolationError as exc:
        print(f"p{args.k + 1} emergence : FAIL ({exc})")
        return EXIT_VIOLATION
    if result.exact_path:
        omega0 = format_scalar(omega_top(point, 2 * result.p_k))
        print(f"p{args.k + 1}={result.p_next} divides Omega0={omega0} : PASS")
    else:
        print(
            f"p{args.k + 1}={result.p_next} divides Omega0 "
            f"(residue {result.omega0_mod} mod {result.p_next}) : PASS"
        )
    return EXIT_OK


def _special_period(point: QPoint) -> int | None:
    for table_point, period, _ in SPECIAL_TABLES.values():
        if table_point == point:
            return period
    return None


def _cmd_table(args) -> int:
    if args.nmax > OMEGA_MAX_N:
        raise primes.FeasibilityError(f"--nmax is capped at {OMEGA_MAX_N}; got {args.nmax}")
    if args.nmax < 2:
        raise ValueError(f"--nmax must be >= 2; got {args.nmax}")
    point = parse_point(args.point)
    period = _special_period(point)
    rows = []
    for n in range(2, args.nmax + 1):
        psi = format_scalar(psi_point(point, n))
        ratio = format_scalar(omega_top(point, n) / falling_factorial(n))
        rows.append({"n": n, "psi": psi, "ratio": ratio, "class": n % period if period else n})
        if psi != ratio:
            _print_progress(f"warning: ratio != psi at n={n}")
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
        valid = REGISTRY[args.id].full
        foreign = [f"--{key}" for key in overrides if key not in valid]
        if foreign:
            _print_progress(
                f"error: {', '.join(foreign)} is not a bound of {args.id} "
                f"(its bounds: {', '.join(sorted(valid)) or 'none'})"
            )
            return EXIT_USAGE
        reports = [
            run_check(args.id, overrides, profile=args.profile, seed=args.seed)
        ]
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
