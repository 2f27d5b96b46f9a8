"""Fast self-test of the benchmark driver, kept out of the Tier-1 suite.

    python3 -m pytest -q perfbench/test_selftest.py

Runs every workload at the registry's `tiny` bounds, checks that each metric
declared in BENCHMARK.json is emitted with its unit, and shows that the
correctness gate trips on doctored reports.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run.run(workload, seed=0, seconds=1, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _doctored(workload, edit):
    """`workload` with its report list passed through `edit`."""
    original = run.WORKLOADS[workload]

    def doctored(q, seed, tiny, dumps):
        code, text = original(q, seed, tiny, dumps)
        reports = json.loads(text)
        edit(reports)
        return code, json.dumps(reports)

    return doctored


def _report(reports, id):
    return next(r for r in reports if r["id"] == id)


def _raise(reports):
    raise ZeroDivisionError("doctored")


@pytest.mark.parametrize(
    "edit, wrong",
    [
        (lambda reports: _report(reports, "U14").update(status="fail"), ["U14"]),
        (lambda reports: _report(reports, "gen1").update(status="pass"), ["gen1"]),
        (lambda reports: _report(reports, "AU7").update(cases_run=_report(reports, "AU7")["cases_run"] - 1), ["AU7"]),
        (lambda reports: _report(reports, "gen1")["failures"].pop(), ["gen1"]),
        (lambda reports: reports.remove(_report(reports, "G4")), ["G4"]),
        (_raise, sorted(run.load_reference("tiny", "prime-sweep"))),
    ],
    ids=["flipped-pass", "flipped-fail", "fewer-cases", "lost-counterexample", "missing", "raised"],
)
def test_gate_trips_on_doctored_reports(monkeypatch, edit, wrong):
    q = run.load_quanta()
    reference = run.load_reference("tiny", "prime-sweep")
    monkeypatch.setitem(run.WORKLOADS, "prime-sweep", _doctored("prime-sweep", edit))
    with run.tiny_bounds(q):
        sweep = run.run_sweep(q, "prime-sweep", 0, True, reference)
    assert sweep.wrong == wrong


def test_gate_checks_the_cli_exit_code(monkeypatch):
    q = run.load_quanta()
    reference = run.load_reference("tiny", "quick-sweep")
    original = run.WORKLOADS["quick-sweep"]
    monkeypatch.setitem(run.WORKLOADS, "quick-sweep", lambda *a: (0, original(*a)[1]))
    with run.tiny_bounds(q):
        sweep = run.run_sweep(q, "quick-sweep", 0, True, reference)
    assert sweep.wrong == ["exit code 0"]


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exit:
        run.main(["--workload", "prime-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert exit.value.code not in (0, None)
    assert capsys.readouterr().out == ""
