#!/usr/bin/env python3
"""Benchmark for the quanta verification harness.

    python3 perfbench/run.py --workload quick-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; quanta is imported from `src/`.
Each workload is one closed-loop client that runs whole sweeps back to back
in this process until the next one would overrun `--seconds`.  Every sweep's
reports are checked against `reference.json`.  `--trace 0` reports the
end-to-end metrics (medians over the sweeps); `--trace 1` runs a traced sweep
between two untraced ones and reports the per-layer metrics of `layers.py`.
`--workload all` runs the three workloads one after another.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import probe  # noqa: E402  (this directory is first on sys.path)
from layers import Tracer  # noqa: E402

SETUP_SAMPLES = 7
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import quanta
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
import probe
probe.kernel()  # warm up
print(elapsed, elapsed * probe.scale([probe.sample() for _ in range(20)]))
"""

EXACT_IDS = [
    "k00", "space4", "root2", "phi", "root3", "FL", "PP00", "PP00Q", "PP1A", "ABAB",
    "DA", "ABCD12", "ABCD12G", "U16", "AU5", "AU9", "AU11", "G6", "G7",
]
PRIME_CHECKS = [
    (id, None)
    for id in (
        "lagarias", "AU7", "harmonic", "primeFib", "U14", "U18", "G2f", "G4",
        "gen1", "gen5", "infinite_params",
    )
] + [("gen2", {"kmax": 60})]

E2E_UNITS = {"sweep_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def load_quanta() -> SimpleNamespace:
    """The quanta modules, imported from this checkout's `src/`."""
    if not (SRC / "quanta" / "__init__.py").is_file():
        raise SystemExit(f"error: quanta sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import quanta
    from quanta import cli, polynomials, primes, scalars, sequences, verify

    return SimpleNamespace(
        quanta=quanta, scalars=scalars, sequences=sequences,
        polynomials=polynomials, primes=primes, verify=verify, cli=cli,
    )


# -- workloads: each returns (exit code or None, JSON text of the reports) ------


def quick_sweep(q, seed, tiny, dumps):
    """The CLI's quick sweep over all checks, as a user or CI job runs it."""
    out = io.StringIO()
    argv = ["verify", "all", "--profile", "quick", "--format", "json", "--seed", str(seed)]
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = q.cli.main(argv)
    return code, out.getvalue()


def exact_tables(q, seed, tiny, dumps):
    """Full-profile checks dominated by big-integer and quadratic triangles."""
    reports = q.verify.run_all("full", seed=seed, ids=EXACT_IDS)
    return None, dumps([r.to_dict() for r in reports])


def prime_sweep(q, seed, tiny, dumps):
    """Divisor sums, interval escalation and the modular triangle kernel."""
    reports = [
        q.verify.run_check(id, None if tiny else overrides, profile="full", seed=seed)
        for id, overrides in PRIME_CHECKS
    ]
    return None, dumps([r.to_dict() for r in reports])


WORKLOADS = {"quick-sweep": quick_sweep, "exact-tables": exact_tables, "prime-sweep": prime_sweep}


@contextmanager
def tiny_bounds(q):
    """Run every registered check at its `tiny` bounds."""
    registry = q.verify.REGISTRY
    saved = dict(registry)
    for id, check in saved.items():
        quick = None if check.quick is None else check.tiny
        registry[id] = dataclasses.replace(check, quick=quick, full=check.tiny)
    try:
        yield
    finally:
        registry.update(saved)


# -- correctness gate -------------------------------------------------------------


def load_reference(size: str, workload: str) -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as f:
        return json.load(f)[size][workload]


def outcome(report: dict) -> dict:
    """What the gate compares: status, case count and counterexample params."""
    params = sorted(json.dumps(f["params"], sort_keys=True) for f in report["failures"])
    return {"status": report["status"], "cases_run": report["cases_run"], "failures": params}


def wrong_checks(reports: list[dict], reference: dict) -> list[str]:
    """Ids of checks whose outcome differs from the reference, missing or extra."""
    got: dict[str, dict] = {}
    wrong = []
    for report in reports:
        if report["id"] in got or report["id"] not in reference:
            wrong.append(report["id"])
        got[report["id"]] = report
    for id, expected in reference.items():
        if id not in got or outcome(got[id]) != expected:
            wrong.append(id)
    return wrong


# -- measurement --------------------------------------------------------------------


@dataclasses.dataclass
class Sweep:
    wall_s: float
    cpu_s: float
    scale: float  # brings wall_s and cpu_s to the probe's reference speed
    reports: list[dict]
    wrong: list[str]


def run_sweep(q, workload, seed, tiny, reference, dumps=json.dumps, probed=False) -> Sweep:
    """Time one sweep (wall, and CPU of this process and its children), then gate it.

    With `probed`, a SpeedProbe samples the machine's speed during the sweep;
    its handler's time is taken out of wall_s and cpu_s.
    """
    gc.collect()  # every sweep starts from the same heap state
    speed = probe.SpeedProbe() if probed else None
    with speed or nullcontext():
        cpu0, start = os.times(), time.perf_counter()
        try:
            code, text = WORKLOADS[workload](q, seed, tiny, dumps)
        except Exception:
            traceback.print_exc()
            code, text = None, None
        wall = time.perf_counter() - start
        cpu = sum(os.times()[:4]) - sum(cpu0[:4])
    if speed is not None:
        wall, cpu, scale = wall - speed.overhead_s, cpu - speed.overhead_s, probe.scale(speed.samples)
    else:
        scale = 1.0
    if text is None:
        return Sweep(wall, cpu, scale, [], sorted(reference))
    reports = json.loads(text)
    wrong = wrong_checks(reports, reference)
    expected_code = 1 if any(r["status"] == "fail" for r in reference.values()) else 0
    if code is not None and code != expected_code:
        wrong.append(f"exit code {code}")
    return Sweep(wall, cpu, scale, reports, wrong)


def setup_samples(count: int) -> list[tuple[float, float]]:
    """Seconds to import quanta in `count` fresh interpreters: (raw, scaled)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(HERE)],
            env=env, cwd=SRC.parent, capture_output=True, text=True, check=True, timeout=60,
        )
        raw, scaled = map(float, done.stdout.split())
        samples.append((raw, scaled))
    return samples


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    kib = sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


def timed_run(q, workload, seed, seconds, tiny, reference) -> tuple[dict, list[Sweep]]:
    sweeps = []
    start = time.perf_counter()
    while True:
        sweeps.append(run_sweep(q, workload, seed, tiny, reference, probed=True))
        typical = statistics.median(s.wall_s for s in sweeps)
        if time.perf_counter() - start + typical > seconds:
            break
    values = {
        "sweep_s": statistics.median(s.wall_s * s.scale for s in sweeps),
        "cpu_s": statistics.median(s.cpu_s * s.scale for s in sweeps),
        "peak_rss_mb": peak_rss_mib(),  # read before the set-up children run
    }
    setups = setup_samples(SETUP_SAMPLES)
    values["setup_s"] = statistics.median(scaled for _, scaled in setups)
    show = lambda xs: " ".join(f"{x:.4f}" for x in xs)
    print(f"{len(sweeps)} sweeps, wall s: {show(s.wall_s for s in sweeps)}")
    print(f"  scaled to reference speed: {show(s.wall_s * s.scale for s in sweeps)}")
    print(f"{len(setups)} imports, s: {show(raw for raw, _ in setups)}")
    print(f"  scaled to reference speed: {show(scaled for _, scaled in setups)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    return metrics, sweeps


def traced_run(q, workload, seed, tiny, reference) -> tuple[dict, list[Sweep]]:
    """One traced sweep between two untraced ones, which cancels slow drift."""
    before = run_sweep(q, workload, seed, tiny, reference)
    tracer = Tracer()
    tracer.install(q)
    try:
        traced = run_sweep(q, workload, seed, tiny, reference, dumps=tracer.dumps)
    finally:
        tracer.uninstall()
    after = run_sweep(q, workload, seed, tiny, reference)
    spans = HERE / "out" / f"spans-{workload}.json"
    tracer.write_spans(spans)
    print(f"{sum(s is not None for s in tracer.spans)} spans written to {spans.relative_to(HERE.parent)}")
    metrics = tracer.layer_metrics(
        wall_s=traced.wall_s,
        cases=sum(r["cases_run"] for r in traced.reports),
        slowest_s=max((r["elapsed_ms"] for r in before.reports), default=0) / 1000,
        overhead_s=traced.wall_s - (before.wall_s + after.wall_s) / 2,
    )
    return metrics, [before, traced, after]


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; prints a human summary and returns the result object."""
    q = load_quanta()
    reference = load_reference("tiny" if tiny else "full", workload)
    with tiny_bounds(q) if tiny else nullcontext():
        if trace:
            metrics, sweeps = traced_run(q, workload, seed, tiny, reference)
        else:
            metrics, sweeps = timed_run(q, workload, seed, seconds, tiny, reference)
    attempted = len(reference) * len(sweeps)
    failed = sum(len(s.wrong) for s in sweeps)
    for s in sweeps:
        if s.wrong:
            print(f"wrong: {', '.join(s.wrong)}")
    print(f"workload {workload} seed {seed}")
    for name, metric in metrics.items():
        print(f"  {name:32} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'wrong_share':32} {failed / attempted:.6g} ({failed} of {attempted} checks)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def machine_facts(workers: str | None) -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (
        f"python {platform.python_version()}; cpu {cpu}; nproc {len(os.sched_getaffinity(0))}; "
        f"QUANTA_WORKERS {'unset' if workers is None else repr(workers) + ' (unset for the run)'}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    load_quanta()  # fail before printing anything when the sources are missing
    # The workloads run at the default worker setting.
    print(machine_facts(os.environ.pop("QUANTA_WORKERS", None)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
