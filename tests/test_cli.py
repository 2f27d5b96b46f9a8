"""CLI surface: parsing, output formats, exit codes."""

import dataclasses
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from quanta import cli, primes, sequences
from quanta.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main, parse_point
from quanta.scalars import QuadExt, SQRT2, ScalarParseError, parse_scalar, reduce_mod
from quanta.sequences import QPoint, omega_table, psi_point
from quanta.verify import REGISTRY, run_check


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def estimate(capsys, *argv):
    """The seconds a command is estimated to take, read from its refusal;
    the caller sets ``cli.BUDGET_S`` to 0 first."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    return float(err.split(" would take about ")[1].split(" s; ")[0])


# argv (split on spaces) -> stdout, or the SHA-256 of a long stdout, stderr
# and exit code, recorded from the tree before a change that should keep them.
# An entry changed on purpose is named in CHANGES.md, never regenerated.
CLI_PROBES = json.loads(Path(__file__).with_name("cli_probes.json").read_text())


@pytest.mark.parametrize("argv", sorted(CLI_PROBES))
def test_cli_probe(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    want = CLI_PROBES[argv]
    if "stdout_sha256" in want:
        assert hashlib.sha256(out.encode()).hexdigest() == want["stdout_sha256"]
    else:
        assert out == want["stdout"]
    assert (err, code) == (want["stderr"], want["exit"])


class TestPointParsing:
    def test_rational_pair(self):
        assert parse_point("1,-2") == QPoint(1, -2)
        assert parse_point("1/2,3") == QPoint(Fraction(1, 2), 3)
        assert parse_point("1/2,3").alpha.a.denominator == 2

    def test_quadratic_with_declared_ring(self):
        point = parse_point("1,1*sqrt(2):d=2")
        assert point == QPoint(QuadExt(1), SQRT2)

    @pytest.mark.parametrize(
        "text",
        ["1,1*sqrt(3):d=2", "1:d=2,1:d=3", "1,1:d=4", "1,1:d=-3"],
        ids=["component-radicand", "two-declarations", "not-square-free", "negative"],
    )
    def test_ring_conflict(self, text):
        with pytest.raises(ScalarParseError):
            parse_point(text)

    def test_arity(self):
        with pytest.raises(ScalarParseError):
            parse_point("1")


class TestPsiCommand:
    def test_doubling_value(self, capsys):
        code, out, _ = run_cli(capsys, "psi", "--point", "1,4", "--n", "16")
        assert code == EXIT_OK
        assert out.strip() == "37634"

    def test_parity_power_point(self, capsys):
        code, out, _ = run_cli(capsys, "psi", "--point", "1,-2", "--n", "6")
        assert code == EXIT_OK
        assert out.strip() == "2"

    def test_quadratic_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "psi", "--point", "1,1*sqrt(2):d=2", "--n", "2"
        )
        assert code == EXIT_OK
        assert out.strip() == "-1*sqrt(2)"

    def test_modular(self, capsys):
        code, out, _ = run_cli(
            capsys, "psi", "--point", "1,4", "--n", "16", "--mod", "31"
        )
        assert code == EXIT_OK
        assert out.strip() == "0"

    def test_residue_at_an_integer_point(self, capsys):
        argv = ["psi", "--point", "3,7", "--n", "1000", "--mod", "1000003"]
        assert run_cli(capsys, *argv) == (EXIT_OK, "961351\n", "")

    def test_value_over_4300_digits_prints(self, capsys):
        # str() of an int this long raises under Python's default digit limit
        code, out, err = run_cli(capsys, "psi", "--point", "1000000000,1", "--n", "1000")
        assert code == EXIT_OK, err
        assert len(out.strip().lstrip("-")) > 4300

    @pytest.mark.parametrize("point", ["1000000000,1", "1000000000,1*sqrt(2)"])
    def test_value_over_budget_is_refused(self, capsys, point):
        # the exact value has about two million bits, and printing it alone
        # would take seconds
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "psi", "--point", point, "--n", "131072")
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: psi would take about ")
        assert err.endswith(f" s; the budget is {cli.BUDGET_S:g} s\n")

    def test_budget_spares_residues_and_small_points(self, capsys):
        # with --mod, rational and quadratic points run on residues
        argv = ["psi", "--point", "1000000000,1", "--n", "131072", "--mod", "1000003"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out.strip().isdigit()
        argv[2] = "1000000000,1*sqrt(2)"
        start = time.perf_counter()
        assert run_cli(capsys, *argv) == (EXIT_OK, "16689\n", "")
        assert time.perf_counter() - start < 1

    def test_quadratic_residue_at_the_cap_is_fast(self, capsys):
        # the exact value has about 327680 bits; its residue needs none of them
        start = time.perf_counter()
        argv = ["psi", "--point", "3,7*sqrt(2)", "--n", "131072", "--mod", "1000003"]
        assert run_cli(capsys, *argv) == (EXIT_OK, "799832\n", "")
        assert time.perf_counter() - start < 1

    def test_residue_at_a_huge_point_is_fast(self, capsys):
        # the lift is reduced mod m first, so a 3000-digit alpha costs what a
        # small one does; 746411 was checked by a hand loop over pairs mod m
        start = time.perf_counter()
        argv = ["psi", "--point", f"{10**3000},1*sqrt(2)", "--n", "131072"]
        assert run_cli(capsys, *argv, "--mod", "1000003") == (EXIT_OK, "746411\n", "")
        assert time.perf_counter() - start < 1

    def test_quadratic_residue_matches_the_exact_value(self, capsys):
        point = "1/2+1/2*sqrt(5),1"
        code, out, _ = run_cli(capsys, "psi", "--point", point, "--n", "57", "--mod", "13")
        assert code == EXIT_OK
        exact = psi_point(parse_point(point), 57)
        assert parse_scalar(out.strip()) == reduce_mod(exact, 13)

    def test_modulus_sharing_a_denominator_is_refused(self, capsys):
        argv = ["psi", "--point", "1/7+1*sqrt(2),1", "--n", "2", "--mod", "7"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: denominator 7 shares a factor with 7\n"

    def test_large_n_is_refused_only_when_exact(self, capsys):
        # a residue takes O(log n) steps of the modulus' width
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "psi", "--point", "1,4", "--n", "100000000")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: psi would take about ")
        code, out, _ = run_cli(capsys, "psi", "--point", "1,4", "--n", "100000000", "--mod", "1000003")
        assert code == EXIT_OK and out.strip().isdigit()
        assert time.perf_counter() - start < 1

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "psi", "--point", "1,,2", "--n", "3")
        assert code == EXIT_USAGE
        assert "error" in err


class TestOmegaCommand:
    def test_single_entry(self, capsys):
        code, out, _ = run_cli(
            capsys, "omega", "--point", "1,1", "--n", "7", "--r", "0", "--k", "3"
        )
        assert code == EXIT_OK
        assert out.strip() == "120"

    def test_falling_factorial_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "omega", "--point", "0,-1", "--n", "7", "--r", "0", "--k", "3"
        )
        assert code == EXIT_OK
        assert out.strip() == "120"

    def test_modular_residue_defaults_to_stable_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "omega", "--point", "1,1", "--n", "6", "--k", "3", "--mod", "5"
        )
        assert code == EXIT_OK
        assert out.strip() == "0"

    @pytest.mark.parametrize(
        "point, n, mod, r, k, want",
        [
            ("1/2,3", "9", "7", "2", "2", "4"),
            ("1/2+1/2*sqrt(5),2", "20", "13", "0", "3", "8+2*sqrt(5)"),
        ],
    )
    def test_modular_entry_at_scaled_point(self, capsys, point, n, mod, r, k, want):
        # the table runs on the point's residues, not on its scaled lift, so
        # the entry matches reduce_mod of the exact entry
        argv = ["omega", "--point", point, "--n", n, "--mod", mod, "--r", r, "--k", k]
        assert run_cli(capsys, *argv)[:2] == (EXIT_OK, want + "\n")
        exact = omega_table(parse_point(point), int(n)).entry(int(r), int(k))
        assert parse_scalar(want) == reduce_mod(exact, int(mod))

    def test_whole_residue_table_at_a_rational_point(self, capsys):
        # SHA-256 of the JSON table, recorded before the residue type changed
        argv = ["omega", "--point", "1/2,3", "--n", "40", "--mod", "7"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "28856d9eead8c7cca948878bdb594b0c574271a10e5253e098e2d3b05fea62ca"
        )

    def test_modulus_sharing_the_scale_is_refused_before_any_entry(self, capsys):
        argv = ["omega", "--point", "1/3,1", "--n", "2", "--mod", "3", "--r", "0", "--k", "0"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: denominator 3 shares a factor with 3\n"

    def test_r_without_k_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "omega", "--point", "1,1", "--n", "6", "--r", "1")
        assert code == EXIT_USAGE

    def test_whole_table_json(self, capsys):
        code, out, _ = run_cli(capsys, "omega", "--point", "1,1", "--n", "5")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["n"] == 5
        assert [0, 1, "-6"] in payload["entries"]

    def test_range_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "omega", "--point", "1,1", "--n", "7", "--r", "4", "--k", "4"
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("extra", [(), ("--r", "0", "--k", "3")])
    def test_large_n_is_refused(self, capsys, extra):
        # the whole triangle is built even for one entry
        argv = ["omega", "--point", "1,1", "--n", "8192", *extra]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: omega would take about ")

    @pytest.mark.parametrize("n, modulus", [(64, "1" + "0" * 100_000), (1024, "7" * 100_000)])
    def test_wide_modulus_is_refused(self, capsys, n, modulus):
        # residues as wide as the modulus: n = 64 with 10^100000 once printed 27 MB in 45 s
        argv = ["omega", "--point", "1,4", "--n", str(n), "--mod", modulus]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: omega would take about ")

    def test_estimate_counts_components_and_inverses(self, capsys, monkeypatch):
        # a quadratic entry is two residues; a point with denominators adds
        # one inverse of its scale mod m for the whole table
        monkeypatch.setattr(cli, "BUDGET_S", 0.0)
        estimates = [
            estimate(capsys, "omega", "--point", point, "--n", "64", "--mod", str(10**300))
            for point in ("1,4", "1/3,1", "1,1*sqrt(2)")
        ]
        assert estimates == sorted(estimates) and len(set(estimates)) == 3
        for n in (64, 1024):
            entries = (n // 2 + 1) * (n // 2 + 2) // 2
            plain, scaled = (
                cli._value_ops(parse_point(point), n, 10**300, entries=entries)[0][0]
                for point in ("1,4", "1/3,1")
            )
            assert scaled - plain == 45


class TestVerifyCommand:
    def test_single_check_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "AU7", "--nmax", "2000", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload[0]["id"] == "AU7"
        assert payload[0]["status"] == "pass"
        assert payload[0]["cases_run"] == 1999
        assert set(payload[0]) == {
            "id", "anchor", "grid", "cases_run", "failures", "elapsed_ms", "status",
        }

    def test_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, "verify", "bogus")
        assert code == EXIT_USAGE
        assert "unknown" in err

    @pytest.mark.parametrize(
        "id, flag, valid", [("gen1", "--nmax", "kmax"), ("U18", "--pmax", "none")]
    )
    def test_bound_flag_must_name_a_bound_of_the_check(self, capsys, id, flag, valid):
        code, out, err = run_cli(capsys, "verify", id, flag, "3")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")
        assert flag[2:] in err and valid in err

    def test_crashing_check_exits_with_violation(self, capsys, monkeypatch):
        def crashing(bounds, rng):
            yield {"n": 1}, lambda: 1 // 0, 0

        monkeypatch.setitem(
            REGISTRY, "G4", dataclasses.replace(REGISTRY["G4"], runner=crashing)
        )
        code, out, _ = run_cli(capsys, "verify", "G4", "--format", "json")
        assert code == EXIT_VIOLATION
        (report,) = json.loads(out)
        assert report["status"] == "error"
        assert report["failures"][0]["actual"].startswith("ZeroDivisionError: ")

    def test_pretty_error_row_shows_the_exception(self, capsys, monkeypatch):
        # a ValueError that is not a refused bound is a defect of the check
        def crashing(bounds, rng):
            raise ValueError("bad grid")
            yield

        monkeypatch.setitem(
            REGISTRY, "G4", dataclasses.replace(REGISTRY["G4"], runner=crashing)
        )
        code, out, err = run_cli(capsys, "verify", "G4")
        assert (code, err) == (EXIT_VIOLATION, "")
        assert out.startswith("ERROR   G4 ")
        assert out.endswith("first: {'stage': 'sweep'}  ValueError: bad grid\n")

    def test_override_past_the_rule_exits_with_usage(self, capsys):
        # one above the sieve cap is 168 times lagarias' full nmax: refused
        # by run_check's override rule before anything runs
        nmax = str(primes.SIEVE_MAX_LIMIT + 1)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "lagarias", "--nmax", nmax)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: lagarias: product of max(1, override / full bound) is 168 > 4\n"

    def test_bound_refused_inside_the_run_exits_with_usage(self, capsys, monkeypatch):
        # a FeasibilityError raised by a case is a usage error too; unpatched,
        # G4 --nmax 13 computes for seconds before it reaches this bound
        monkeypatch.setattr(primes, "FERMAT_MAX_N", 3)
        code, out, err = run_cli(capsys, "verify", "G4", "--nmax", "4")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: exact path is bounded at n <= 3\n"

    @pytest.mark.parametrize(
        "id, flag, value",
        [
            ("AU7", "--nmax", "1"),
            ("k00", "--coord", "0"),
            ("gen2", "--kmax", "1"),
            ("lagarias", "--nmax", "-1"),
        ],
    )
    def test_empty_grid_exits_with_usage(self, capsys, id, flag, value):
        # no case ran, so no violation was found; run_check still says fail
        assert run_check(id, {flag[2:]: int(value)}).status == "fail"
        code, out, err = run_cli(capsys, "verify", id, flag, value)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: {id} runs no case: ")
        assert f"{flag[2:]!r}: {value}" in err

    def test_violation_exit_code(self, capsys):
        # gen1 carries a genuine counterexample at k=2
        code, out, _ = run_cli(capsys, "verify", "gen1", "--format", "json")
        assert code == EXIT_VIOLATION
        payload = json.loads(out)
        assert payload[0]["status"] == "fail"
        assert payload[0]["failures"][0]["params"]["k"] == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "G4", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "id,status,cases_run,failures,elapsed_ms"

    def test_report_files(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "verify", "U18", "--format", "pretty", "--out", str(tmp_path)
        )
        assert code == EXIT_OK
        written = json.loads((tmp_path / "verify_report.json").read_text())
        assert written[0]["id"] == "U18"
        assert (tmp_path / "verify_summary.csv").read_text().startswith("id,status")

    def test_pretty_payload_matches_json(self, capsys):
        code, pretty, _ = run_cli(capsys, "verify", "G4", "--format", "pretty")
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, "verify", "G4", "--format", "json")
        payload = json.loads(out)
        assert f"cases={payload[0]['cases_run']}" in pretty.replace(" ", "")


class TestMersenneCommand:
    def test_prime(self, capsys):
        code, out, _ = run_cli(capsys, "mersenne", "13")
        assert code == EXIT_OK
        assert out.strip() == "prime"

    def test_composite(self, capsys):
        code, out, _ = run_cli(capsys, "mersenne", "11")
        assert code == EXIT_OK
        assert out.strip() == "composite"

    def test_invalid_exponent(self, capsys):
        code, _, _ = run_cli(capsys, "mersenne", "9")
        assert code == EXIT_USAGE

    def test_p_over_budget_is_refused(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "mersenne", "44497")
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: mersenne would take about ")


class TestEmergeCommand:
    def test_exact_line(self, capsys):
        code, out, _ = run_cli(capsys, "emerge", "2", "--point", "1,1")
        assert code == EXIT_OK
        assert out.strip() == "p3=5 divides Omega0=120 : PASS"

    def test_modular_line(self, capsys):
        code, out, _ = run_cli(capsys, "emerge", "15", "--point", "1,1")
        assert code == EXIT_OK
        assert "residue 0" in out
        assert out.strip().endswith("PASS")

    def test_modular_line_at_a_rational_point(self, capsys):
        out = "p61=283 divides Omega0 (residue 0 mod 283) : PASS\n"
        assert run_cli(capsys, "emerge", "60", "--point", "1/2,3") == (EXIT_OK, out, "")

    def test_k_over_budget_is_refused_before_the_sieve(self, capsys):
        limit = primes._CACHE.limit
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "emerge", "1000000", "--point", "2,3")
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: emerge would take about ")
        assert primes._CACHE.limit == limit

    def test_cost_does_not_grow_with_the_point(self, capsys):
        # the top entry runs on the lift reduced mod p_{k+1}, step by step
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "emerge", "2048", "--point", f"{10**60},1")
        assert time.perf_counter() - start < 2
        assert (code, err) == (EXIT_OK, "")
        assert out == "p2049=17881 divides Omega0 (residue 0 mod 17881) : PASS\n"


class TestTableCommand:
    def test_pretty_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--point", "1,1", "--nmax", "12")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 12  # header + n in [2, 12]
        assert lines[0].split() == ["n", "psi", "ratio", "class"]

    def test_json_rows_follow_period(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--point", "1,1", "--nmax", "12", "--format", "json"
        )
        rows = json.loads(out)
        by_n = {row["n"]: row for row in rows}
        assert by_n[7]["psi"] == "1" and by_n[7]["class"] == 1
        assert by_n[9]["psi"] == "-2" and by_n[9]["class"] == 3
        assert all(row["psi"] == row["ratio"] for row in rows)

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--point", "0,-1", "--nmax", "5", "--format", "csv"
        )
        assert out.splitlines()[0] == "n,psi,ratio,class"
        assert all(line.split(",")[1] == "1" for line in out.splitlines()[1:])

    def test_wrong_ratio_is_a_violation(self, capsys, monkeypatch):
        # omega_top one too high at n = 5: the ratio there is not psi
        top = sequences.omega_top

        def mutant(point, n, modulus=None):
            return top(point, n, modulus) + (n == 5)

        for module in (sequences, cli):
            monkeypatch.setattr(module, "omega_top", mutant)
        code, out, err = run_cli(capsys, "table", "--point", "1,4", "--nmax", "8")
        assert (code, out) == (EXIT_VIOLATION, "")
        assert err.startswith("violation: fundamental ratio")

    def test_nmax_over_budget_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "table", "--point", "1,4", "--nmax", "4096")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: table would take about ")

    def test_nmax_below_two_is_refused_in_every_format(self, capsys):
        for fmt in ("pretty", "json", "csv"):
            for nmax in ("1", "0", "-3"):
                argv = ["table", "--point", "1,1", "--format", fmt, "--nmax", nmax]
                code, out, err = run_cli(capsys, *argv)
                assert (code, out) == (EXIT_USAGE, "")
                assert err == f"error: --nmax must be >= 2; got {nmax}\n"


class _Admitted(Exception):
    """Raised by a stubbed engine: the command passed its estimate."""


def _admitted(*args, **kwargs):
    raise _Admitted


class TestBudget:
    @pytest.mark.parametrize(
        "argv",
        [
            "verify k00 --nmax 1000000",
            "verify AU7 --nmax 20000",
            "verify gen2 --kmax 100000",
            "emerge 3 --point 1/2^400000,7",
            "psi --point 1/2^400000,7 --n 4 --mod 9x131000",
            "omega --point 10^1000,1 --n 110",
        ],
    )
    def test_slow_input_is_refused_at_once(self, capsys, argv):
        # each once ran for 10-26 s; 2^400000, 10^1000 and 9x131000 (131,000
        # nines) stand for their decimal digits
        sys.set_int_max_str_digits(0)
        digits = {"2^400000": str(2**400000), "10^1000": str(10**1000), "9x131000": "9" * 131000}
        words = argv.split()
        for short, long in digits.items():
            words = [word.replace(short, long) for word in words]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *words)
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_USAGE, "")
        if words[0] == "verify":
            assert err.startswith(f"error: {words[1]}: product of max(1, override / full bound) is ")
        else:
            assert err.startswith(f"error: {words[0]} would take about ")

    @pytest.mark.parametrize(
        "argv",
        [
            "emerge {big} --point 1,4",
            "table --point 1,4 --nmax {big}",
            "mersenne {big}",
            "omega --point 1,4 --n {big}",
        ],
    )
    def test_huge_input_is_refused(self, capsys, argv):
        # argparse takes any int; the estimate clamps it instead of overflowing a float
        code, out, err = run_cli(capsys, *argv.format(big=10**400).split())
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: {argv.split()[0]} would take about ")

    @pytest.mark.parametrize(
        "argv, module, engine",
        [
            ("psi --point 1,4 --n 131072", cli, "psi_point"),
            ("psi --point 1,4 --n 131071 --mod 1000003", cli, "psi_point"),
            ("psi --point 1,4 --n 16 --mod 31", cli, "psi_point"),
            ("omega --point 1,4 --n 1024 --k 3", cli, "omega_table"),
            ("omega --point 1,1 --n 6 --k 3 --mod 5", cli, "omega_table"),
            (f"emerge 2048 --point {10**60},1", primes, "emergence_check"),
            ("emerge 60000 --point 1,4", primes, "emergence_check"),
            ("emerge 221023 --point 1,1*sqrt(2)", primes, "emergence_check"),
            ("mersenne 13", primes, "mersenne_test"),
            ("mersenne 4423", primes, "mersenne_test"),
            ("mersenne 4447", primes, "mersenne_test"),
            ("mersenne 11213", primes, "mersenne_test"),
        ],
    )
    def test_pinned_input_is_admitted(self, monkeypatch, argv, module, engine):
        # CI runs these; mersenne 11213 stays until the chains reduce by shift-add
        monkeypatch.setattr(module, engine, _admitted)
        with pytest.raises(_Admitted):
            main(argv.split())

    @pytest.mark.parametrize(
        "small, large",
        [
            ("psi --point 1,4 --n 16", "psi --point 1,4 --n 4096"),
            ("psi --point 1/2,3 --n 9 --mod 7", "psi --point 1/2,3 --n 9 --mod 1" + "0" * 40 + "1"),
            ("omega --point 1,1 --k 3 --n 7", "omega --point 1,1 --k 3 --n 8"),
            ("mersenne 13", "mersenne 17"),
            ("emerge 15 --point 1,1", "emerge 16 --point 1,1"),
            ("table --point 1,1 --format csv --nmax 7", "table --point 1,1 --format csv --nmax 8"),
        ],
    )
    def test_budget_admits_below_and_refuses_above(self, capsys, monkeypatch, small, large):
        monkeypatch.setattr(cli, "BUDGET_S", 0.0)
        low, high = estimate(capsys, *small.split()), estimate(capsys, *large.split())
        monkeypatch.setattr(cli, "BUDGET_S", (low * high) ** 0.5)
        assert run_cli(capsys, *small.split())[0] == EXIT_OK
        code, out, err = run_cli(capsys, *large.split())
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith(f" s; the budget is {cli.BUDGET_S:g} s\n")

    def test_budget_is_inclusive(self, monkeypatch):
        # one op on a 0-bit int costs c0 = 1e-6 s, the interpreter's step
        monkeypatch.setattr(cli, "BUDGET_S", 1e-6)
        cli._refuse_over_budget("psi", (1, 0, "product"))
        with pytest.raises(primes.FeasibilityError, match="^psi would take about 2e-06 s; the budget is 1e-06 s$"):
            cli._refuse_over_budget("psi", (2, 0, "reduction"))
