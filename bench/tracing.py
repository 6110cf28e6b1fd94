"""Spans around calls into each layer, recorded from outside the program.

``Tracer.install`` replaces public functions at their module attributes, so
calls between modules (``sim`` -> ``matops.matrix_exp``) and calls inside one
module through its globals (``care_solve`` -> ``matrix_sign``) both pass
through a wrapper.  Spans live in memory until ``write``; ``restore`` puts
every original function back.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field


def _steps(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    steps = max(1, int(round(config.t_final / config.dt)))
    samples = len(result.times) if result.mode == "leaderless" else 0
    return {"steps": steps, "agent_steps": result.n * steps, "leaderless_samples": samples}


def _dim(args, kwargs, result):
    matrix = args[0] if args else kwargs["m"]
    return {"dim": len(matrix)}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, extra-data hook) for every wrapped function.
TRACED = (
    ("graph", "is_connected", None),
    ("graph", "is_leader_reachable", None),
    ("matops", "sym_eig", _dim),
    ("matops", "matrix_exp", None),
    ("matops", "matrix_sign", None),
    ("matops", "care_solve", None),
    ("synthesis", "design_leaderless", None),
    ("synthesis", "design_leader_follower", None),
    ("synthesis", "regulate_gain", None),
    ("synthesis", "verify_riccati_certificate", None),
    ("sim", "run", _steps),
    ("sim", "leaderless_rhs", None),
    ("sim", "leader_follower_rhs", None),
    ("verify", "analyze", None),
    ("cli", "parse_config_text", None),
    ("cli", "write_trace_csv", _csv_bytes),
    ("cli", "read_trace_csv", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: str
    data: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []
        self._originals: list = []

    def install(self, ck) -> None:
        for module_name, attr, hook in TRACED:
            module = getattr(ck, module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original, hook))

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, name, function, hook):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                span.data = hook(args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        return [span.end - span.start - c for span, c in zip(self.spans, covered)]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(
                    {"name": span.name, "start": span.start, "end": span.end,
                     "parent": span.parent, "op": span.op, **span.data}
                ) + "\n")


PROBE = "probe:"  # op label prefix of the per-case step probes


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from the spans of the workload's set-up and
    operations; the spans of a step probe (op ``PROBE<case>``) only give that
    case's cost per RK4 step."""
    selfs = tracer.self_times()
    total: dict = {}
    self_total: dict = {}
    calls: dict = {}
    data: dict = {}
    step_us = {}
    for span, own in zip(tracer.spans, selfs):
        if span.op.startswith(PROBE):
            if span.name == "sim.run":
                step_us[span.op[len(PROBE):]] = own * 1e6 / span.data["steps"]
            continue
        total[span.name] = total.get(span.name, 0.0) + span.end - span.start
        self_total[span.name] = self_total.get(span.name, 0.0) + own
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.data.items():
            data.setdefault(span.name, {}).setdefault(key, []).append(value)

    def ms(name):
        return total.get(name, 0.0) * 1e3

    def mean_us(*names):
        n = sum(calls.get(name, 0) for name in names)
        return sum(total.get(name, 0.0) for name in names) * 1e6 / n if n else 0.0

    def summed(name, key):
        return sum(data.get(name, {}).get(key, []))

    samples = summed("sim.run", "leaderless_samples")
    attempts = calls.get("matops.care_solve", 0)
    kept = sum(calls.get(f"synthesis.{name}", 0)
               for name in ("regulate_gain", "design_leaderless", "design_leader_follower"))
    metrics = {f"sim.step_us.{case}": value for case, value in step_us.items()}
    metrics.update({
        "sim.steps": summed("sim.run", "steps"),
        "sim.agent_steps": summed("sim.run", "agent_steps"),
        "sim.run_self_ms": self_total.get("sim.run", 0.0) * 1e3,
        "sim.rhs_call_us": mean_us("sim.leaderless_rhs", "sim.leader_follower_rhs"),
        "matops.sym_eig_calls": calls.get("matops.sym_eig", 0),
        "matops.sym_eig_ms": ms("matops.sym_eig"),
        "matops.sym_eig_max_dim": max(data.get("matops.sym_eig", {}).get("dim", [0])),
        "matops.matrix_exp_calls": calls.get("matops.matrix_exp", 0),
        "matops.matrix_exp_ms": ms("matops.matrix_exp"),
        "matops.matrix_exp_per_sample": calls.get("matops.matrix_exp", 0) / samples if samples else 0.0,
        "matops.care_solve_calls": attempts,
        "matops.care_solve_ms": ms("matops.care_solve"),
        "matops.matrix_sign_ms": ms("matops.matrix_sign"),
        "synthesis.regulate_gain_ms": ms("synthesis.regulate_gain"),
        "synthesis.regulate_useful_ratio": kept / attempts if attempts else 0.0,
        "synthesis.certificate_checks": calls.get("synthesis.verify_riccati_certificate", 0),
        "synthesis.design_ms": ms("synthesis.design_leaderless") + ms("synthesis.design_leader_follower"),
        "cli.parse_config_ms": ms("cli.parse_config_text"),
        "graph.reachability_us": mean_us("graph.is_connected", "graph.is_leader_reachable"),
        "cli.write_trace_csv_ms": ms("cli.write_trace_csv"),
        "cli.read_trace_csv_self_ms": self_total.get("cli.read_trace_csv", 0.0) * 1e3,
        "cli.csv_bytes": summed("cli.write_trace_csv", "bytes"),
        "verify.analyze_self_ms": self_total.get("verify.analyze", 0.0) * 1e3,
    })
    return metrics
