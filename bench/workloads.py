"""Seeded inputs, set-up, operations and output checks for each workload.

Every workload is a closed loop of operations over a fixed list of input
draws.  Draw ``i`` of seed ``s`` uses the generator seed ``base + i + 1000*s``,
so seed 0 reproduces the acceptance seeds (200+i for the leaderless batch,
300+i for the leader-follower batch) and any other seed redraws every
initial state.  Operation ``j`` uses draw ``j % draws``; a repeated draw must
give bit-identical outputs.

The benchmark calls the program only through module attributes
(``ck.sim.run``, never the names re-exported by ``consensuskit/__init__``),
so the wrappers installed by ``tracing.Tracer`` see every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

SEED_STRIDE = 1000
DT = 1e-3
# Relative agreement required with the values record.py stored in expected/.
RECORDED_RTOL = 1e-8

PLANT_1 = {  # two-state oscillator of the leaderless example
    "d": 2,
    "p": 1,
    "a": [0.0, 1.0, -100.0, 0.0],
    "b": [0.0, 1.0],
    "q": [1.0, 0.0, 0.0, 2.0],
}
PLANT_2 = {  # four-state plant of the leader-follower example
    "d": 4,
    "p": 1,
    "a": [1.0, 1.0, 0.0, 0.0, -30.0, -12.5, 30.0, 0.0, 0.0, 0.5, 0.0, 1.0, 16.0, 0.0, -16.0, 0.0],
    "b": [1.0, 19.0, 0.0, 0.0],
    "q": [0.30, 0.30, 0.20, 0.10, 0.30, 0.50, 0.10, 0.10,
          0.20, 0.10, 0.50, 0.15, 0.10, 0.10, 0.15, 0.10],
}

# Plant and translation factor of each mode's shared gains.
_DESIGN = {"leaderless": (PLANT_1, 2.0), "leader-follower": (PLANT_2, 1.0)}


def _rng(base: int, draw: int, seed: int) -> np.random.Generator:
    return np.random.default_rng(base + draw + SEED_STRIDE * seed)


def _cycle(n):
    return [[i, i + 1] for i in range(1, n)] + [[1, n]]


def _complete(n):
    return [[i, k] for i in range(1, n + 1) for k in range(i + 1, n + 1)]


def _star(n):
    return [[1, k] for k in range(2, n + 1)]


def _topology(n, edges, weight=None, leader=None):
    doc = {"n": n, "edges": edges}
    if weight is not None:
        doc["weights"] = [[i, k, weight] for i, k in edges]
    if leader is not None:
        doc["leader"] = leader
    return doc


def _star_complete(n, leader_weight, follower_weight):
    followers = [[i, k] for i in range(2, n + 1) for k in range(i + 1, n + 1)]
    doc = _topology(n, _star(n) + followers, leader=1)
    doc["weights"] = [[i, k, leader_weight] for i, k in _star(n)] + [[i, k, follower_weight] for i, k in followers]
    return doc


def _config_doc(mode, plant, topology, t_final, sample_stride, x0=None, gamma=None, delta=None, init=None):
    doc = {
        "mode": mode,
        "plant": plant,
        "topology": topology,
        "initial_states": {"values": [float(v) for v in x0.ravel()]} if x0 is not None else init,
        "dt": DT,
        "t_final": t_final,
        "sample_stride": sample_stride,
    }
    if gamma is not None:
        doc["gamma"] = gamma
    if delta is not None:
        doc["delta"] = delta
    return json.dumps(doc)


class CheckFailed(Exception):
    """An operation's output failed a check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_report(report, consensus: bool, acceptance: bool = False) -> None:
    _require(report.bound_holds, f"bound violated: {report.realized_cost!r} > {report.bound!r}")
    _require(report.weights_monotone, f"weights decreased by {report.min_weight_delta!r}")
    _require(report.certificate_ok, f"certificate margin {report.certificate_margin!r}")
    if consensus:
        _require(report.consensus_achieved, f"no consensus: final disagreement {report.final_disagreement!r}")
    if acceptance:  # the criterion 5-7 limits of the acceptance gate
        _require(report.tracking_error < 1e-2, f"tracking error {report.tracking_error!r}")
        _require(report.final_weight_rate < 1e-8, f"final weight rate {report.final_weight_rate!r}")


@dataclass
class OpResult:
    """What one operation produced: the values compared against records and
    across repeats, and the agent-steps it integrated."""

    values: tuple
    agent_steps: int
    digest: str = ""


class Workload:
    """Base class: ``draws`` distinct inputs, ``op(j)`` runs operation j."""

    name = ""
    draws = 1
    # Nominal seconds per operation when the benchmark was defined; sizes the
    # traced pass, which runs at least ``trace_min_ops`` operations to cover
    # every case.
    nominal_op_s = 1.0
    trace_min_ops = 1

    def __init__(self, ck, seed: int, workdir: str):
        self.ck = ck

    def op(self, j: int) -> OpResult:
        raise NotImplementedError

    def lap(self) -> None:
        """Called between an operation's phases and after its end; the
        benchmark's clock replaces it to time the phases separately."""

    def _sim_op(self, cfg, gains, consensus, acceptance=False):
        ck = self.ck
        sim_config = ck.sim.SimConfig(
            x0=cfg.initial_values, t_final=cfg.t_final, dt=cfg.dt, sample_stride=cfg.sample_stride
        )
        trace = ck.sim.run(sim_config, gains, cfg.topology)
        report = ck.verify.analyze(trace, gains, cfg.topology)
        _check_report(report, consensus, acceptance)
        steps = max(1, int(round(cfg.t_final / cfg.dt)))
        return (report.realized_cost, report.bound), cfg.topology.n * steps


_LEADERLESS_CASES = (  # criterion 4: (kind, n, initial weight)
    ("complete", 3, 4.0),
    ("complete", 4, 3.0),
    ("complete", 5, 2.4),
    ("complete", 6, 2.0),
    ("cycle", 4, 3.5),
    ("cycle", 5, 3.8),
)


def _leader_follower_topology(case):  # criterion 5
    if case < 3:
        return _topology(case + 4, _star(case + 4), 3.0, leader=1)
    return _star_complete(case + 2, 2.0, 1.0)


class Ensemble(Workload):
    """Criterion-4 and criterion-5 batches: each operation is one leaderless
    run (t_final 3) and one leader-follower run (t_final 12), each followed by
    ``analyze``."""

    name = "ensemble"
    draws = 20
    nominal_op_s = 2.0
    trace_min_ops = len(_LEADERLESS_CASES)

    def __init__(self, ck, seed, workdir):
        super().__init__(ck, seed, workdir)
        self.leaderless = []
        self.leader_follower = []
        for i in range(self.draws):
            kind, n, weight = _LEADERLESS_CASES[i % len(_LEADERLESS_CASES)]
            edges = _complete(n) if kind == "complete" else _cycle(n)
            x0 = _rng(200, i, seed).uniform(-0.25, 0.25, size=(n, 2))
            doc = _config_doc("leaderless", PLANT_1, _topology(n, edges, weight), 3.0, 10, x0, gamma=2.0)
            self.leaderless.append(ck.cli.parse_config_text(doc))
            topology = _leader_follower_topology(i % 5)
            x0 = _rng(300, i, seed).uniform(-0.25, 0.25, size=(topology["n"], 4))
            doc = _config_doc("leader-follower", PLANT_2, topology, 12.0, 10, x0, gamma=1.0)
            self.leader_follower.append(ck.cli.parse_config_text(doc))
        for cfg in self.leaderless:
            _require(ck.graph.is_connected(cfg.topology), "leaderless topology is not connected")
        for cfg in self.leader_follower:
            _require(ck.graph.is_leader_reachable(cfg.topology), "a follower cannot reach the leader")
        first_ll, first_lf = self.leaderless[0], self.leader_follower[0]
        self.gains_ll = ck.synthesis.design_leaderless(first_ll.a, first_ll.b, first_ll.q, first_ll.gamma)
        self.gains_lf = ck.synthesis.design_leader_follower(first_lf.a, first_lf.b, first_lf.q, first_lf.gamma)

    def op(self, j):
        i = j % self.draws
        ll, steps_ll = self._sim_op(self.leaderless[i], self.gains_ll, True, True)
        self.lap()
        lf, steps_lf = self._sim_op(self.leader_follower[i], self.gains_lf, True, True)
        return OpResult(ll + lf, steps_ll + steps_lf)


# Gain-factor target for cli-certify.  On the example-1 plant, delta 300
# regulates to gamma ~0.447 (K_u ~ [0.01, 7.7]): the fixed dt = 1e-3 step stays
# stable and every seed tried reaches consensus by t = 3 (worst final
# disagreement 0.19 of its tolerance over 40 seeds).  delta 200 on the
# example-2 plant regulates to gamma ~0.001, whose gains are so stiff that
# simulate exits 4 (the divergence guard), so that plant is not used here.
CERTIFY_DELTA = 300.0
_CERTIFY_N = 6


class CliCertify(Workload):
    """``cli.main`` in-process: synthesize (regulated by delta), simulate
    --out (stride 1, one matrix_exp per sample), then verify of that CSV."""

    name = "cli-certify"
    draws = 24
    nominal_op_s = 1.2

    def __init__(self, ck, seed, workdir):
        super().__init__(ck, seed, workdir)
        os.makedirs(workdir, exist_ok=True)
        self.paths = []
        for i in range(self.draws):
            init = {"seed": 500 + i + SEED_STRIDE * seed, "box": 0.25}
            doc = _config_doc(
                "leaderless", PLANT_1, _topology(_CERTIFY_N, _cycle(_CERTIFY_N)), 3.0, 1,
                delta=CERTIFY_DELTA, init=init,
            )
            path = os.path.join(workdir, f"certify-{i}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(doc)
            self.paths.append(path)
        self.csv_path = os.path.join(workdir, "certify-trace.csv")

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        code = self.ck.cli.main(argv, out=out, err=err)
        _require(code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue().splitlines()

    def op(self, j):
        path = self.paths[j % self.draws]
        gains = self._main(["synthesize", path])
        _require("regulated = true" in gains, "synthesize did not regulate")
        _require("certificate_ok = true" in gains, "synthesized certificate rejected")
        self.lap()
        simulated = self._main(["simulate", path, "--out", self.csv_path])
        self.lap()
        marker = f"trace_csv = {self.csv_path}"
        _require(marker in simulated, "simulate wrote no trace")
        report = simulated[simulated.index(marker) + 1 :]
        verified = self._main(["verify", path, self.csv_path])
        _require(verified == report, "verify does not reproduce the simulate report")
        fields = dict(line.split(" = ", 1) for line in report)
        for flag in ("bound_holds", "weights_monotone", "certificate_ok", "consensus_achieved"):
            _require(fields.get(flag) == "true", f"{flag} = {fields.get(flag)}")
        with open(self.csv_path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        values = (float(fields["realized_cost"]), float(fields["bound"]))
        return OpResult(values, _CERTIFY_N * int(round(3.0 / DT)), digest)


WORKLOADS = {cls.name: cls for cls in (Ensemble, CliCertify)}


# Cases timed per RK4 step in the traced run: (name, mode, topology, t_final).
STEP_CASES = (
    ("ll-n6", "leaderless", _topology(6, _cycle(6)), 1.0),
    ("lf-n6", "leader-follower", _topology(6, _star(6), leader=1), 1.0),
    ("ll-cycle200", "leaderless", _topology(200, _cycle(200)), 0.05),
    ("ll-complete50", "leaderless", _topology(50, _complete(50)), 0.2),
    ("lf-cycle100", "leader-follower", _topology(100, _cycle(100), leader=1), 0.1),
)


def _designer(ck, mode):
    return ck.synthesis.design_leaderless if mode == "leaderless" else ck.synthesis.design_leader_follower


def step_probes(ck, seed):
    """(case name, thunk running sim.run on that case) for each STEP_CASES entry."""
    probes = []
    for idx, (name, mode, topology, t_final) in enumerate(STEP_CASES):
        plant, gamma = _DESIGN[mode]
        x0 = _rng(600, idx, seed).uniform(-0.25, 0.25, size=(topology["n"], plant["d"]))
        cfg = ck.cli.parse_config_text(_config_doc(mode, plant, topology, t_final, 10, x0, gamma))
        gains = _designer(ck, mode)(cfg.a, cfg.b, cfg.q, cfg.gamma)
        sim_config = ck.sim.SimConfig(x0=cfg.initial_values, t_final=t_final, dt=DT, sample_stride=10)
        probes.append((name, lambda c=sim_config, g=gains, t=cfg.topology: ck.sim.run(c, g, t)))
    return probes


def check_recorded(expected, values, rtol=RECORDED_RTOL):
    """Compare values with a recorded row; returns the failure message or ''."""
    if len(values) != len(expected):
        return f"{len(values)} values, recorded {len(expected)}"
    for got, want in zip(values, expected):
        if not math.isfinite(got) or abs(got - want) > rtol * abs(want):
            return f"value {got!r} differs from recorded {want!r}"
    return ""
