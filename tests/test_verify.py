"""Registry behavior: coverage, reproducibility, skipping, fault injection."""

import dataclasses
import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from quanta import primes
from quanta.primes import FeasibilityError
from quanta.scalars import SQRT2, SQRT3
from quanta.verify import (
    MAX_FAILURES_RECORDED,
    OMEGA_TOUCHING_IDS,
    REGISTRY,
    SPECIAL_TABLES,
    TheoremCheck,
    _execute,
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


# id -> point, residue period, SHA-256 of the newline-joined str(expected(n))
# for n in [0, 240]: the ratio checks read n <= 200, S1 and S11 n <= 240
_SPECIAL_TABLE_RECORD = {
    "PP00": ("QPoint(1, 1)", 6, "632f3ef794c9398ed43f201b9c1d2a3d19996528ab6eb25345d800e72a637fa0"),
    "PP00Q": ("QPoint(1, 0)", 8, "c9bd60e55f98fbf44410f3ca003e3f38177606b691f799dd51390045a0f60c9c"),
    "PP1A": ("QPoint(1, -1)", 12, "d739fc0caa25b782145425126ff94b5a8c1eebc8394991ccf31e890f07cb2b96"),
    "ABAB": ("QPoint(1, -2)", 2, "f87841c4aec12bb2aa989a602795039455dd29f88db12f7963ad2a2440928f7c"),
    "DA": ("QPoint(1, 2)", 4, "48fe58edaa9f3bb0047768e8743fd700a24698a2225174cc3b4715baf9fb2e46"),
    "root2": ("QPoint(1, 1*sqrt(2))", 16, "aab6b9949f62354c76aa58fa82d002134631d9b644103fdcf8340c72cfb58615"),
    "phi": ("QPoint(1, -1/2+1/2*sqrt(5))", 20, "f27be479c129466bc684fd7dcb4d99e2f6bdc1c6970b0d53ccce48b8ddb2cc61"),
    "root3": ("QPoint(1, 1*sqrt(3))", 24, "c90b926890f682324a3b7b590606f37665492d3dea4808ab839bb84d6d82735a"),
    "FL": ("QPoint(1, 1*sqrt(5))", 4, "83f158ed491330725032459e93caec91aad6cbff9bd09edfc8ea4ac61f8b7a37"),
}


class TestSpecialTables:
    def test_ids_match_record(self):
        assert list(SPECIAL_TABLES) == list(_SPECIAL_TABLE_RECORD)

    @pytest.mark.parametrize("id", sorted(_SPECIAL_TABLE_RECORD))
    def test_table_matches_record(self, id):
        point, period, expected = SPECIAL_TABLES[id]
        values = "\n".join(str(expected(n)) for n in range(241))
        digest = hashlib.sha256(values.encode()).hexdigest()
        assert (repr(point), period, digest) == _SPECIAL_TABLE_RECORD[id]


class TestRunCheck:
    def test_au7_sweep(self):
        report = run_check("AU7", {"nmax": 2000})
        assert report.status == "pass"
        assert report.cases_run == 1999

    def test_k00_default(self):
        report = run_check("k00", {"nmax": 20, "coord": 2}, profile="quick")
        assert report.status == "pass"

    def test_u14_knows_the_mersenne_exponents_its_overrides_admit(self):
        # 61, 89 and 107 are Mersenne prime exponents within 4 x 31; 67 is not
        report = run_check("U14", {"pset": [61, 89, 107, 67]})
        assert (report.status, report.cases_run) == ("pass", 8)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_check("nonexistent")

    def test_bad_profile(self):
        with pytest.raises(ValueError, match="profile must be 'quick' or 'full'"):
            run_check("k00", profile="quik")

    def test_override_applies(self):
        report = run_check("harmonic", {"nmax": 57})
        assert report.cases_run == 7  # n in {9, 17, ..., 57}

    @pytest.mark.parametrize(
        "id, overrides, key",
        [
            ("U18", {"pmax": 3}, "pmax"),
            ("gen1", {"kmax": 3, "nmax": 5}, "nmax"),
            ("Dic", {"alphas": [1]}, "alphas"),
        ],
    )
    def test_override_must_name_a_bound(self, id, overrides, key):
        with pytest.raises(ValueError, match=f"{key} is not a bound of {id}"):
            run_check(id, overrides)

    @pytest.mark.parametrize(
        "id, overrides, admitted",
        [
            ("k00", {"nmax": 800}, True),  # 4x
            ("k00", {"nmax": 400, "coord": 6}, True),  # 2x 2x
            ("k00", {"nmax": 100, "coord": 12}, True),  # below full counts 1x
            ("k00", {"nmax": 801}, False),
            ("k00", {"nmax": 800, "coord": 4}, False),  # 4x 1.33x
            ("gen2", {"kmax": 60}, True),  # perfbench's prime-sweep
            ("ABCD12", {"pset": [5, 47]}, True),  # a list compares its largest, 47 / 13
            ("ABCD12", {"pset": [53]}, False),
        ],
    )
    def test_overrides_scale_the_full_bounds_at_most_4_fold(self, monkeypatch, id, overrides, admitted):
        def no_cases(bounds, rng):
            return iter(())

        monkeypatch.setitem(REGISTRY, id, dataclasses.replace(REGISTRY[id], runner=no_cases))
        if admitted:
            assert run_check(id, overrides).cases_run == 0
        else:
            with pytest.raises(FeasibilityError, match="product of max.1, override / full bound. is .* > 4$"):
                run_check(id, overrides)

    @pytest.mark.parametrize("id", ["ABCD12", "U16"])
    def test_bound_refused_by_a_case_reports_an_error_at_once(self, id):
        # p = 17 is within the rule, but beyond the exact Mersenne path
        start = time.perf_counter()
        report = run_check(id, {"pset": [17]})
        assert time.perf_counter() - start < 1
        assert report.status == "error"
        assert report.failures[0]["actual"].startswith("FeasibilityError: exact path is bounded")

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

    @pytest.mark.parametrize("seed", [0, 12345])
    def test_quick_sweep_bytes_match_recorded_digest(self, seed):
        # SHA-256 of the newline-joined canonical reports of run_all("quick")
        path = Path(__file__).with_name("quick_report_digests.json")
        expected = json.loads(path.read_text())[str(seed)]
        blob = "\n".join(r.to_json(volatile=False) for r in run_all("quick", seed=seed))
        assert hashlib.sha256(blob.encode()).hexdigest() == expected

    def test_full_sweep_bytes_match_recorded_digests(self):
        # SHA-256 of each check's canonical report in run_all("full"): every
        # check at seed 0, and at seed 12345 the checks that draw from rng
        # (the _pairs users, G0 and infinite_params)
        path = Path(__file__).with_name("full_report_digests.json")
        expected = json.loads(path.read_text())
        assert set(expected["0"]) == set(REGISTRY)
        changed = []
        for seed, digests in expected.items():
            for report in run_all("full", seed=int(seed), ids=digests):
                digest = hashlib.sha256(report.to_json(volatile=False).encode()).hexdigest()
                if digest != digests[report.id]:
                    changed.append(f"{report.id} (seed {seed})")
        assert not changed, f"canonical full-profile report bytes changed for {changed}"

    def test_rng_draws_match_recorded_digests(self, monkeypatch):
        # a passing report records only cases_run, so the reports above show
        # what a check drew from rng only when it fails; this pins the params
        # of every case of the checks that draw, in the full profile, as the
        # SHA-256 of their JSON list
        path = Path(__file__).with_name("rng_draw_digests.json")
        expected = json.loads(path.read_text())
        changed = []
        for seed, digests in expected.items():
            for id, want in digests.items():
                check, drawn = REGISTRY[id], []

                def collecting(bounds, rng, runner=check.runner):
                    for case in runner(bounds, rng):
                        drawn.append(case[0])
                        yield case

                with monkeypatch.context() as patch:
                    patch.setitem(REGISTRY, id, dataclasses.replace(check, runner=collecting))
                    assert run_check(id, profile="full", seed=int(seed)).status == "pass"
                if hashlib.sha256(json.dumps(drawn).encode()).hexdigest() != want:
                    changed.append(f"{id} (seed {seed})")
        assert not changed, f"params drawn from rng changed for {changed}"


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

    def test_lagarias_keeps_the_first_offenders_in_n_order(self, monkeypatch):
        # twelve offenders, reported out of order: the first ten by n are kept
        offenders = list(range(190, 0, -16))
        monkeypatch.setattr(primes, "lagarias_sweep", lambda nmax: offenders)
        report = run_check("lagarias", {"nmax": 200})
        assert (report.status, report.cases_run, report.failures_total) == ("fail", 200, 12)
        assert [f["params"] for f in report.failures] == [{"n": n} for n in sorted(offenders)[:10]]
        assert {(f["expected"], f["actual"]) for f in report.failures} == {
            ("holds", "undecided or violated")
        }

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


def _segment_report(segments, as_blocks):
    """_execute's report of (is_block, actual, expected) segments, case i with
    params {"i": i}; as_blocks=False yields every case singly."""

    def runner(bounds, rng):
        start = 0
        for block, actual, expected in segments:
            if block and as_blocks:
                yield (lambda i, start=start: {"i": start + i}), actual, expected
            else:
                for i, (a, e) in enumerate(zip(actual, expected), start):
                    yield {"i": i}, (lambda a=a: a), e
            start += len(actual)

    check = TheoremCheck("block", "anchor", "grid", runner, False, None, {}, {})
    return _execute(check, {}, 0)


class TestBlocks:
    # a block gives the report of the same cases yielded one by one
    @pytest.mark.parametrize(
        "segments, failing",
        [
            ([(True, [1, 2, 3], [1, 2, 3])], 0),
            (
                [
                    (True, [1, 5, 3], [1, 2, 3]),
                    (False, ["a", "b"], ["a", "c"]),
                    (True, [True, False], [True, True]),
                ],
                3,
            ),
            # two single mismatches leave room for eight of the block's ten
            ([(False, [0, 1], [9, 9]), (True, list(range(10)), [-1] * 10), (True, [0], [0])], 12),
            ([(False, [1], [1]), (True, [], []), (False, [2], [3])], 1),
        ],
        ids=["no-mismatch", "three-around-singles", "twelve", "empty-block"],
    )
    def test_block_matches_single_cases(self, segments, failing):
        block, single = _segment_report(segments, True), _segment_report(segments, False)
        assert block.to_json(volatile=False) == single.to_json(volatile=False)
        assert (block.failures_total, single.failures_total) == (failing, failing)
        assert block.cases_run == sum(len(actual) for _, actual, _ in segments)
        assert len(block.failures) == min(failing, MAX_FAILURES_RECORDED)

    def test_unequal_lists_are_an_error(self):
        report = _segment_report([(False, [1], [1]), (True, [1, 2], [1])], True)
        assert report.status == "error"
        (failure,) = report.failures
        assert failure["params"] == {"stage": "sweep"}
        assert failure["actual"].startswith("ValueError: ")


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

    def test_f1100_bridge_path_sees_a_wrong_omega_table(self):
        # the bridge compares omega-built coefficients with the lambda
        # triangle, which the flip leaves intact
        with flipped_omega_coupling():
            report = run_check("F1100", REGISTRY["F1100"].tiny)
        assert report.status == "fail"
        assert any(f["params"].get("path") == "bridge" for f in report.failures)

    def test_wrong_lift_fails_the_quadratic_tables(self, monkeypatch):
        # psi and the omega kernel share the lift, so a wrong one cancels in
        # the fundamental ratio; the hand tables of psi still see it
        from quanta import sequences

        lift = sequences._lift

        def conjugated_beta(point):
            s, z, (xu, xv), d = lift(point)
            return s, z, (xu, -xv), d

        monkeypatch.setattr(sequences, "_lift", conjugated_beta)
        for id in ("phi", "root2", "root3", "FL"):
            assert run_check(id, REGISTRY[id].tiny).status == "fail", id

    def test_zero_coupling_point_is_insensitive(self):
        # at (0, -1) the coupling coefficient is zero, so the flip is inert
        from quanta.sequences import QPoint, omega_top

        with flipped_omega_coupling():
            assert omega_top(QPoint(0, -1), 9) == omega_top(QPoint(0, -1), 9)

    @pytest.mark.parametrize("id", ["Che", "Dic"])
    def test_raise_at_one_n_fails_only_that_case(self, monkeypatch, id):
        # each Che/Dic verdict runs inside its case, so a raise at n = 5
        # fails those cases and the sweep goes on
        from quanta import polynomials
        from quanta.sequences import KernelPointError

        omega_top = polynomials.omega_top

        def raising_at_n5(point, n, modulus=None):
            if n == 5:
                raise KernelPointError("psi vanishes")
            return omega_top(point, n, modulus)

        monkeypatch.setattr(polynomials, "omega_top", raising_at_n5)
        report = run_check(id, REGISTRY[id].tiny)
        assert report.status == "fail"
        assert report.cases_run == (10 if id == "Che" else 50)
        assert {f["params"]["n"] for f in report.failures} == {5}
        assert report.failures_total == (1 if id == "Che" else 5)
