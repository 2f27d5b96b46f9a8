"""CLI surface: parsing, output formats, exit codes."""

import dataclasses
import hashlib
import json
import time
from fractions import Fraction

import pytest

from quanta import cli, primes
from quanta.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main, parse_point
from quanta.scalars import QuadExt, SQRT2, ScalarParseError, parse_scalar, reduce_mod
from quanta.sequences import QPoint, omega_table, psi_point
from quanta.verify import REGISTRY


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize(
        "point, extra, bits",
        [
            ("1000000000,1", (), 2031616),
            ("1000000000,1*sqrt(2)", (), 2097152),
        ],
    )
    def test_value_above_bit_cap_is_refused(self, capsys, point, extra, bits):
        # n is within PSI_MAX_N, but each of the n steps would multiply
        # numbers of about a million bits
        start = time.perf_counter()
        argv = ["psi", "--point", point, "--n", str(cli.PSI_MAX_N), *extra]
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_USAGE, "")
        cap = cli.PSI_MAX_BITS
        assert err == f"error: exact psi would have about {bits} bits; the cap is {cap}\n"

    def test_bit_cap_spares_residues_and_small_points(self, capsys):
        # with --mod, rational and quadratic points run on residues and keep
        # only the --n cap
        argv = ["psi", "--point", "1000000000,1", "--n", str(cli.PSI_MAX_N), "--mod", "1000003"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out.strip().isdigit()
        argv[2] = "1000000000,1*sqrt(2)"
        start = time.perf_counter()
        assert run_cli(capsys, *argv) == (EXIT_OK, "16689\n", "")
        assert time.perf_counter() - start < 1
        assert cli._psi_bits(QPoint(1, 4), cli.PSI_MAX_N) == cli.PSI_MAX_BITS

    def test_quadratic_residue_at_the_cap_is_fast(self, capsys):
        # the exact value has about 327680 bits; its residue needs none of them
        start = time.perf_counter()
        argv = ["psi", "--point", "3,7*sqrt(2)", "--n", str(cli.PSI_MAX_N), "--mod", "1000003"]
        assert run_cli(capsys, *argv) == (EXIT_OK, "799832\n", "")
        assert time.perf_counter() - start < 1

    def test_residue_at_a_huge_point_is_fast(self, capsys):
        # the lift is reduced mod m first, so a 3000-digit alpha costs what a
        # small one does; 746411 was checked by a hand loop over pairs mod m
        start = time.perf_counter()
        argv = ["psi", "--point", f"{10**3000},1*sqrt(2)", "--n", str(cli.PSI_MAX_N)]
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

    @pytest.mark.parametrize("extra", [(), ("--mod", "1000003")])
    def test_n_above_cap_is_refused(self, capsys, extra):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "psi", "--point", "1,4", "--n", "100000000", *extra)
        assert time.perf_counter() - start < 1
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: --n is capped at {cli.PSI_MAX_N}")

    def test_cap_is_inclusive(self, capsys):
        argv = ["psi", "--point", "1,4", "--mod", "1000003", "--n"]
        code, out, _ = run_cli(capsys, *argv, str(cli.PSI_MAX_N))
        assert code == EXIT_OK
        assert out.strip().isdigit()
        assert run_cli(capsys, *argv, str(cli.PSI_MAX_N + 1))[0] == EXIT_USAGE

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
        # the entry carries the point's scale to the power k; its inverse mod m
        # must be applied, so the residue matches reduce_mod of the exact entry
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
    def test_n_above_cap_is_refused(self, capsys, extra):
        argv = ["omega", "--point", "1,1", "--n", "1025", *extra]
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: --n is capped at 1024")

    def test_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "OMEGA_MAX_N", 7)
        argv = ["omega", "--point", "1,1", "--k", "3", "--n"]
        assert run_cli(capsys, *argv, "7")[:2] == (EXIT_OK, "120\n")
        code, _, err = run_cli(capsys, *argv, "8")
        assert code == EXIT_USAGE
        assert "capped at 7" in err


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
        assert flag in err and valid in err

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

    def test_pretty_error_row_shows_the_exception(self, capsys):
        # one above the sieve cap: the check errors before sieving anything
        nmax = str(primes.SIEVE_MAX_LIMIT + 1)
        code, out, err = run_cli(capsys, "verify", "lagarias", "--nmax", nmax)
        assert (code, err) == (EXIT_VIOLATION, "")
        assert out.startswith("ERROR   lagarias ")
        assert out.endswith(
            f"first: {{'stage': 'sweep'}}  FeasibilityError: {nmax} is beyond "
            f"the sieve cap {primes.SIEVE_MAX_LIMIT}\n"
        )

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

    def test_p_above_cap_is_refused(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "mersenne", "44497")
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: p is capped at {cli.MERSENNE_MAX_P}; got 44497\n"

    def test_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MERSENNE_MAX_P", 13)
        assert run_cli(capsys, "mersenne", "13")[:2] == (EXIT_OK, "prime\n")
        assert run_cli(capsys, "mersenne", "17")[0] == EXIT_USAGE


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

    def test_k_above_cap_is_refused(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "emerge", "20000", "--point", "2,3")
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: k is capped at {cli.EMERGE_MAX_K}; got 20000\n"

    def test_cost_does_not_grow_with_the_point(self, capsys):
        # the top entry runs on the lift reduced mod p_{k+1}
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "emerge", "2048", "--point", f"{10**60},1")
        assert time.perf_counter() - start < 5
        assert (code, err) == (EXIT_OK, "")
        assert out == "p2049=17881 divides Omega0 (residue 0 mod 17881) : PASS\n"

    def test_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "EMERGE_MAX_K", 15)
        assert run_cli(capsys, "emerge", "15", "--point", "1,1")[0] == EXIT_OK
        assert run_cli(capsys, "emerge", "16", "--point", "1,1")[0] == EXIT_USAGE


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

    def test_nmax_above_cap_is_refused(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, "table", "--point", "1,4", "--nmax", "1025")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: --nmax is capped at 1024")
        monkeypatch.setattr(cli, "OMEGA_MAX_N", 7)
        argv = ["table", "--point", "1,1", "--format", "csv", "--nmax"]
        code, out, _ = run_cli(capsys, *argv, "7")
        assert code == EXIT_OK and len(out.splitlines()) == 7  # header + n in [2, 7]
        assert run_cli(capsys, *argv, "8")[0] == EXIT_USAGE

    def test_nmax_below_two_is_refused_in_every_format(self, capsys):
        for fmt in ("pretty", "json", "csv"):
            for nmax in ("1", "0", "-3"):
                argv = ["table", "--point", "1,1", "--format", fmt, "--nmax", nmax]
                code, out, err = run_cli(capsys, *argv)
                assert (code, out) == (EXIT_USAGE, "")
                assert err == f"error: --nmax must be >= 2; got {nmax}\n"
