"""Layer tracing for the quanta benchmark, installed from outside the package.

`Tracer.install` replaces the public functions of each quanta module (and
the arithmetic methods of its scalar and polynomial classes) with wrappers
that time every call.  Each layer is a module: scalars, sequences,
polynomials, primes, verify, cli.  A call's self time is its duration minus
the part its traced callees cover, so the self times of one sweep, plus the
time outside any traced call, add up to the sweep's wall time.

Scalar and polynomial arithmetic runs millions of times per sweep, so those
calls are only counted and timed in aggregate; every other call is also
kept as a span (id, parent, check, name, start, end) in memory and written
out by `write_spans` when the run ends.  Work done in other processes is not
seen.
"""

from __future__ import annotations

import inspect
import json
import time
import types
from collections import Counter, defaultdict

LAYERS = ("scalars", "sequences", "polynomials", "primes", "verify", "cli")

# Class methods traced as arithmetic; aggregated, never kept as spans.
ARITHMETIC = {
    ("scalars", "QuadExt"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__neg__", "__pow__", "__truediv__", "__rtruediv__", "inverse",
        "conjugate", "norm",
    ),
    ("scalars", "ModInt"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__neg__", "__pow__",
    ),
    ("polynomials", "UniPoly"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__neg__", "__pow__", "__truediv__", "shifted", "deriv", "evaluate",
    ),
    ("polynomials", "BiPoly"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__neg__", "__pow__", "__truediv__", "deriv_a", "deriv_b", "evaluate",
    ),
    ("verify", "TheoremReport"): ("to_dict", "to_json"),
}

OMEGA = ("sequences.omega_table", "sequences.omega_top")
EXPAND = (
    "sequences.psi_k_expand", "sequences.lambda_from_omega",
    "sequences.second_fundamental", "sequences.second_fundamental_v2",
    "sequences.psi_expansion_identity_check",
)
PSI = ("sequences.psi_rec", "sequences.psi_point", "sequences.psi_closed", "sequences.psi_pow2")
LAMBDA = ("sequences.lambda_table", "sequences.fib_lambda_table")
POLY_MULS = (
    "polynomials.UniPoly.__mul__", "polynomials.UniPoly.__rmul__",
    "polynomials.BiPoly.__mul__", "polynomials.BiPoly.__rmul__",
)
LAGARIAS = ("primes.lagarias_sweep", "primes.lagarias_check")
SERIALIZE = (
    "verify.TheoremReport.to_dict", "verify.TheoremReport.to_json",
    "verify.reports_to_csv", "verify.json.dumps",
)
OMEGA_KINDS = ("int", "rational", "quadratic", "modular")

# Per-layer metrics of a traced sweep, with their units.  README.md maps each
# to the end-to-end metric and workload it should move.
LAYER_METRICS = {
    "scalars.quadext_ops": "count",
    "scalars.quadext_s": "s",
    "scalars.modint_ops": "count",
    "scalars.modint_s": "s",
    **{f"sequences.omega_builds.{kind}": "count" for kind in OMEGA_KINDS},
    **{f"sequences.omega_s.{kind}": "s" for kind in OMEGA_KINDS},
    "sequences.omega_cells": "count",
    "sequences.expand_calls": "count",
    "sequences.expand_s": "s",
    "sequences.psi_calls": "count",
    "sequences.psi_s": "s",
    "sequences.lambda_s": "s",
    "polynomials.poly_muls": "count",
    "polynomials.s": "s",
    "primes.sigma_calls": "count",
    "primes.sigma_s": "s",
    "primes.lagarias_s": "s",
    "primes.lagarias_escalations": "count",
    "verify.cases": "count",
    "verify.harness_s": "s",
    "verify.slowest_check_s": "s",
    "verify.serialize_s": "s",
    "cli.s": "s",
    "trace_overhead_s": "s",
}


class Tracer:
    """Times traced calls; `calls` and `self_s` are keyed by span name."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.omega_cells = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # open calls: [start, covered_s, span id]
        self._check: str | None = None
        self.dumps = json.dumps  # the traced `json.dumps` once installed
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, keep: bool = True, key=None):
        """`fn` timed under `name`, or under `key(*args, **kwargs)` if given."""
        stack, calls, self_s, spans = self._stack, self.calls, self.self_s, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name if key is None else key(*args, **kwargs)
            parent = stack[-1] if stack else None
            parent_id = parent[2] if parent else None
            span_id = len(spans) if keep else parent_id
            if keep:
                spans.append(None)  # reserve the id; filled in on return
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[0]
                calls[label] += 1
                self_s[label] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if keep:
                    spans[span_id] = (span_id, parent_id, self._check, label, frame[0], end)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, q) -> None:
        """Wrap the layers of `q`, a namespace holding the quanta modules."""
        modules = [q.quanta] + [getattr(q, layer) for layer in LAYERS]
        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = getattr(q, layer)
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                key = self._omega_key(q, name) if name in OMEGA else None
                replace[id(fn)] = self.wrap(name, fn, key=key)
        # Spans inside one registered check carry its id.
        run_check = q.verify.run_check
        replace[id(run_check)] = self._with_check(replace[id(run_check)], lambda id, *a, **k: id)
        execute = getattr(q.verify, "_execute", None)
        if execute is not None:
            self._set(q.verify, "_execute", self._with_check(execute, lambda check, *a, **k: check.id))
        # Re-exported names (verify's `run_all` inside cli, the package
        # namespace) must point at the wrappers too.
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    self._set(module, attr, replace[id(value)])
        for (layer, cls_name), methods in ARITHMETIC.items():
            cls = getattr(getattr(q, layer), cls_name)
            for method in methods:
                if method in vars(cls):
                    fn = vars(cls)[method]
                    self._set(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", fn, keep=False))
        self.dumps = self.wrap("verify.json.dumps", json.dumps)
        self._set(q.cli, "json", types.SimpleNamespace(dumps=self.dumps))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _with_check(self, fn, check_of):
        def with_check(*args, **kwargs):
            saved, self._check = self._check, check_of(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._check = saved

        return with_check

    def _omega_key(self, q, name: str):
        as_point = q.sequences.as_point

        def key(point, n, modulus=None):
            point = as_point(point)
            if modulus is not None:
                kind = "modular"
            elif point.is_integral:
                kind = "int"
            elif point.is_rational:
                kind = "rational"
            else:
                kind = "quadratic"
            K = n // 2
            self.omega_cells += (K + 1) * (K + 2) // 2
            return f"{name}:{kind}"

        return key

    def _sum(self, table, names) -> float:
        return sum(table.get(name, 0) for name in names)

    def layer_metrics(self, wall_s: float, cases: int, slowest_s: float, overhead_s: float) -> dict:
        """Per-layer metrics of one traced sweep of `wall_s` seconds."""
        calls, self_s = self.calls, self.self_s
        by_prefix = lambda table, prefix: sum(v for k, v in table.items() if k.startswith(prefix))
        omega = lambda table, kind: self._sum(table, [f"{n}:{kind}" for n in OMEGA])
        harness = [
            k for k in self_s if k.startswith("verify.") and k not in SERIALIZE
        ]
        values = {
            "scalars.quadext_ops": by_prefix(calls, "scalars.QuadExt."),
            "scalars.quadext_s": by_prefix(self_s, "scalars.QuadExt."),
            "scalars.modint_ops": by_prefix(calls, "scalars.ModInt."),
            "scalars.modint_s": by_prefix(self_s, "scalars.ModInt."),
            **{f"sequences.omega_builds.{k}": omega(calls, k) for k in OMEGA_KINDS},
            **{f"sequences.omega_s.{k}": omega(self_s, k) for k in OMEGA_KINDS},
            "sequences.omega_cells": self.omega_cells,
            "sequences.expand_calls": self._sum(calls, EXPAND),
            "sequences.expand_s": self._sum(self_s, EXPAND),
            "sequences.psi_calls": self._sum(calls, PSI),
            "sequences.psi_s": self._sum(self_s, PSI),
            "sequences.lambda_s": self._sum(self_s, LAMBDA),
            "polynomials.poly_muls": self._sum(calls, POLY_MULS),
            "polynomials.s": by_prefix(self_s, "polynomials."),
            "primes.sigma_calls": calls.get("primes.sigma", 0),
            "primes.sigma_s": self_s.get("primes.sigma", 0.0),
            "primes.lagarias_s": self._sum(self_s, LAGARIAS),
            "primes.lagarias_escalations": calls.get("primes.lagarias_check", 0),
            "verify.cases": cases,
            # Sweep wall minus the self time of every other traced call: the
            # registry's own work plus anything outside a traced call.
            "verify.harness_s": wall_s - sum(v for k, v in self_s.items() if k not in harness),
            "verify.slowest_check_s": slowest_s,
            "verify.serialize_s": self._sum(self_s, SERIALIZE),
            "cli.s": by_prefix(self_s, "cli."),
            "trace_overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}

    def write_spans(self, path) -> None:
        """Write the kept spans as one JSON object: field names, then rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [span for span in self.spans if span is not None]
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": ["id", "parent", "check", "name", "start", "end"], "spans": rows}, out)
