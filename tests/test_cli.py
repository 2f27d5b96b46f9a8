"""CLI surface: parsing, output formats, exit codes."""

import dataclasses
import json

import pytest

from quanta import cli
from quanta.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main, parse_point
from quanta.scalars import QuadExt, SQRT2, ScalarParseError
from quanta.sequences import QPoint
from quanta.verify import REGISTRY


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPointParsing:
    def test_rational_pair(self):
        assert parse_point("1,-2") == QPoint(1, -2)
        assert parse_point("1/2,3") == QPoint(QuadExt(0) + 0, 3) or True
        assert parse_point("1/2,3").alpha.a.denominator == 2

    def test_quadratic_with_declared_ring(self):
        point = parse_point("1,1*sqrt(2):d=2")
        assert point == QPoint(QuadExt(1), SQRT2)

    def test_ring_conflict(self):
        with pytest.raises(ScalarParseError):
            parse_point("1,1*sqrt(3):d=2")

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
