"""Registry behavior: coverage, reproducibility, skipping, fault injection."""

import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from quanta.scalars import SQRT2, SQRT3
from quanta.verify import (
    MAX_FAILURES_RECORDED,
    OMEGA_TOUCHING_IDS,
    REGISTRY,
    SPECIAL_TABLES,
    flipped_omega_coupling,
    mutation_sensitivity,
    reports_to_csv,
    run_all,
    run_check,
)

# One check per in-scope identity; this frozen set is the coverage contract.
EXPECTED_IDS = {
    "def0", "comp3", "00", "WW4", "WW8", "ex00",
    "diff1", "diff3", "IAexp2",
    "G0", "FD3", "H2", "F1100", "k00", "space4", "FA2",
    "S1", "S11",
    "infinite_params", "gen1", "gen2", "gen5",
    "AU5", "AU9", "AU11",
    "PP00", "PP00Q", "PP1A", "ABAB", "DA", "root2", "phi", "root3", "FL",
    "AU7",
    "U14", "U16", "U18", "G2f", "ABCD12", "ABCD12G",
    "G4", "G6", "G7", "Che", "Dic",
    "G6X", "primeFib", "harmonic", "lagarias",
}


class TestRegistryCoverage:
    def test_ids_match_expected_set(self):
        assert set(REGISTRY) == EXPECTED_IDS

    def test_ids_unique_and_consistent(self):
        for id, check in REGISTRY.items():
            assert check.id == id
            assert check.full is not None

    def test_special_tables_have_checks(self):
        assert set(SPECIAL_TABLES) <= set(REGISTRY)

    def test_entries_match_recorded_profiles(self):
        # anchor, grid, omega flag and the quick/full/tiny bounds of every check
        path = Path(__file__).with_name("registry_profiles.json")
        expected = json.loads(path.read_text())
        assert set(expected) == set(REGISTRY)
        fields = ("anchor", "grid", "touches_omega", "quick", "full", "tiny")
        changed = sorted(
            id
            for id, check in REGISTRY.items()
            if {f: getattr(check, f) for f in fields} != expected[id]
        )
        assert not changed, f"registry entries differ from the record: {changed}"

    def test_profiles_share_bound_keys(self):
        # runners index their bounds, so every profile must name every key
        for id, check in REGISTRY.items():
            profiles = [check.full, check.tiny]
            if check.quick is not None:
                profiles.append(check.quick)
            assert all(set(bounds) == set(check.full) for bounds in profiles), id


class TestRunCheck:
    def test_au7_sweep(self):
        report = run_check("AU7", {"nmax": 2000})
        assert report.status == "pass"
        assert report.cases_run == 1999

    def test_k00_default(self):
        report = run_check("k00", {"nmax": 20, "coord": 2}, profile="quick")
        assert report.status == "pass"

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_check("nonexistent")

    def test_override_applies(self):
        report = run_check("harmonic", {"nmax": 57})
        assert report.cases_run == 7  # n in {9, 17, ..., 57}

    @pytest.mark.parametrize(
        "id, overrides, key",
        [("U18", {"pmax": 3}, "pmax"), ("gen1", {"kmax": 3, "nmax": 5}, "nmax")],
    )
    def test_override_must_name_a_bound(self, id, overrides, key):
        with pytest.raises(ValueError, match=f"{key} is not a bound of {id}"):
            run_check(id, overrides)

    def test_dic_takes_optional_alphas(self):
        report = run_check("Dic", {"nmax": 3, "alphas": [1, 2]})
        assert report.status == "pass"
        assert report.cases_run == 6

    def test_schema_keys(self):
        report = run_check("G4", {"nmax": 2})
        payload = report.to_dict()
        assert list(payload) == [
            "id", "anchor", "grid", "cases_run", "failures", "elapsed_ms", "status",
        ]


class TestReproducibility:
    def test_identical_bytes_without_timing(self):
        a = run_check("WW8", {"nmax": 10}, seed=7).to_json(volatile=False)
        b = run_check("WW8", {"nmax": 10}, seed=7).to_json(volatile=False)
        assert a.encode() == b.encode()

    def test_seed_recorded_in_grid(self):
        report = run_check("WW8", {"nmax": 6}, seed=3)
        assert "seed=3" in report.grid

    def test_canonical_bytes_match_recorded_digests(self):
        # SHA-256 of every check's canonical report at its fault-injection
        # bounds, full profile, seed 0; gen1's four k=2 counterexamples
        # are part of its report
        path = Path(__file__).with_name("tiny_report_digests.json")
        expected = json.loads(path.read_text())
        assert set(expected) == set(REGISTRY)
        changed = []
        for id, check in sorted(REGISTRY.items()):
            report = run_check(id, check.tiny, profile="full", seed=0)
            digest = hashlib.sha256(report.to_json(volatile=False).encode()).hexdigest()
            if digest != expected[id]:
                changed.append(id)
        assert not changed, f"canonical report bytes changed for {changed}"


class TestRunAll:
    def test_quick_profile_coverage(self):
        reports = run_all("quick", ids=["ABCD12", "ABCD12G", "G4", "U18"])
        by_id = {r.id: r for r in reports}
        assert by_id["ABCD12"].status == "skipped"
        assert by_id["ABCD12G"].status == "skipped"
        assert by_id["G4"].status == "pass"
        assert by_id["U18"].status == "pass"

    def test_ordered_by_id(self):
        ids = ["G4", "AU7", "def0"]
        reports = run_all("quick", ids=ids)
        assert [r.id for r in reports] == sorted(ids)

    @pytest.mark.parametrize("stage", ["case", "runner"])
    def test_crashing_check_keeps_other_reports(self, monkeypatch, stage):
        def crashing(bounds, rng):
            yield {"n": 1}, lambda: 1, 1
            if stage == "runner":
                raise ZeroDivisionError("doctored")
            yield {"n": 2}, lambda: 1 // 0, 0

        monkeypatch.setitem(
            REGISTRY, "G4", dataclasses.replace(REGISTRY["G4"], runner=crashing)
        )
        reports = run_all("quick", ids=["AU7", "G4", "U18"])
        by_id = {r.id: r for r in reports}
        assert by_id["AU7"].status == "pass"
        assert by_id["U18"].status == "pass"
        assert by_id["G4"].status == "error"
        assert by_id["G4"].cases_run == (1 if stage == "runner" else 2)
        (failure,) = by_id["G4"].failures
        assert failure["params"] == {"stage": "sweep"}
        assert failure["actual"].startswith("ZeroDivisionError: ")

    def test_bad_profile(self):
        with pytest.raises(ValueError):
            run_all("fast")


class TestCsv:
    def test_summary_format(self):
        reports = run_all("quick", ids=["G4", "U18"])
        text = reports_to_csv(reports, volatile=False)
        lines = text.strip().splitlines()
        assert lines[0] == "id,status,cases_run,failures,elapsed_ms"
        assert lines[1].startswith("G4,pass,")


class TestFailureCount:
    def test_truncated_list_keeps_true_count(self, monkeypatch):
        def failing(bounds, rng):
            for n in range(25):
                yield {"n": n}, lambda: n, -1

        monkeypatch.setitem(
            REGISTRY, "G4", dataclasses.replace(REGISTRY["G4"], runner=failing)
        )
        report = run_check("G4")
        assert len(report.failures) == MAX_FAILURES_RECORDED
        assert [f["params"] for f in report.failures] == [{"n": n} for n in range(10)]
        assert report.failures_total == 25
        assert report.to_dict(volatile=False)["failures_total"] == 25
        row = reports_to_csv([report], volatile=False).splitlines()[1]
        assert row == "G4,fail,25,25,0"

    def test_total_omitted_when_list_is_complete(self):
        report = run_check("gen1", {"kmax": 6})
        assert report.failures_total == len(report.failures) == 4
        assert "failures_total" not in report.to_dict()
        assert reports_to_csv([report], volatile=False).splitlines()[1] == "gen1,fail,40,4,0"

    def test_flipped_coupling_counts_every_failure(self):
        with flipped_omega_coupling():
            report = run_check("k00", REGISTRY["k00"].tiny)
        assert len(report.failures) == MAX_FAILURES_RECORDED
        assert report.failures_total > MAX_FAILURES_RECORDED
        row = reports_to_csv([report], volatile=False).splitlines()[1]
        assert row.split(",")[3] == str(report.failures_total)


class TestFaultInjection:
    # one point per triangle-kernel mode: integer, scaled rational, quadratic
    # pairs, modular scalar, modular quadratic pairs
    @pytest.mark.parametrize(
        "point, n, modulus",
        [
            ((1, 1), 7, None),
            ((Fraction(1, 2), Fraction(-3, 5)), 7, None),
            ((1, SQRT2), 7, None),
            ((2, 3), 5, 7),
            ((2, SQRT3 - 1), 7, 13),
        ],
        ids=["integer", "rational", "quadratic", "modular", "modular-quadratic"],
    )
    def test_flipped_coupling_changes_tables(self, point, n, modulus):
        from quanta.sequences import QPoint, fib_lambda_table, lambda_table, omega_top

        point = QPoint(*point)
        clean = omega_top(point, n, modulus)
        lam, fib = lambda_table(point, n).to_dict(), fib_lambda_table(n)
        with flipped_omega_coupling():
            perturbed = omega_top(point, n, modulus)
            # the flip perturbs the omega coupling only, never the other triangles
            assert lambda_table(point, n).to_dict() == lam
            assert fib_lambda_table(n) == fib
        assert clean != perturbed
        assert omega_top(point, n, modulus) == clean  # flag restored

    def test_sensitivity_is_high(self):
        fraction, statuses = mutation_sensitivity()
        assert set(statuses) == OMEGA_TOUCHING_IDS
        assert fraction >= 0.9
        # the coupling coefficient vanishes at (0, -1), so the flip is inert there
        assert {id for id, status in statuses.items() if status != "fail"} == {"AU11"}

    def test_zero_coupling_point_is_insensitive(self):
        # at (0, -1) the coupling coefficient is zero, so the flip is inert
        from quanta.sequences import QPoint, omega_top

        with flipped_omega_coupling():
            assert omega_top(QPoint(0, -1), 9) == omega_top(QPoint(0, -1), 9)
