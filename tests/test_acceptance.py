"""End-to-end acceptance gate.

Each criterion below is a single test; the conftest reporter prints one
``CRITERION n: PASS/FAIL`` line per test at the end of the run.  All
expected values are frozen literals; simulation batches are cached so the
weight-behavior and tracking criteria reuse the bound-domination runs.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from consensuskit import (
    RegulationError,
    RegulationRequest,
    SimConfig,
    Topology,
    analyze,
    care_solve,
    complete_topology,
    cycle_topology,
    design_leader_follower,
    design_leaderless,
    matrix_exp,
    path_topology,
    regulate_gain,
    run,
    star_topology,
    verify_lmi_corollary,
    verify_reference_gains,
)
from consensuskit import cli

A1 = np.array([[0.0, 1.0], [-100.0, 0.0]])
B1 = np.array([[0.0], [1.0]])
Q1 = np.array([[1.0, 0.0], [0.0, 2.0]])

A2 = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [-30.0, -12.5, 30.0, 0.0],
        [0.0, 0.5, 0.0, 1.0],
        [16.0, 0.0, -16.0, 0.0],
    ]
)
B2 = np.array([[1.0], [19.0], [0.0], [0.0]])
Q2 = np.array(
    [
        [0.30, 0.30, 0.20, 0.10],
        [0.30, 0.50, 0.10, 0.10],
        [0.20, 0.10, 0.50, 0.15],
        [0.10, 0.10, 0.15, 0.10],
    ]
)

K_U_1 = np.array([3.9324, 2.1307])
K_W_1 = np.array([[15.4638, 8.3788], [8.3788, 4.5399]])
K_U_2 = np.array([5.3100, 0.6396, -2.9033, 0.9116])
K_W_2_11 = 28.1961

GOLDEN_RATIO = 1.618033988749895  # (1 + sqrt(5)) / 2

_LEADERLESS_CASES = (
    ("complete", 3, 4.0),
    ("complete", 4, 3.0),
    ("complete", 5, 2.4),
    ("complete", 6, 2.0),
    ("cycle", 4, 3.5),
    ("cycle", 5, 3.8),
)


def _star_complete(n: int, leader_weight: float, follower_weight: float) -> Topology:
    edges = [(1, j) for j in range(2, n + 1)]
    weights = {(1, j): leader_weight for j in range(2, n + 1)}
    for i in range(2, n + 1):
        for k in range(i + 1, n + 1):
            edges.append((i, k))
            weights[(i, k)] = follower_weight
    return Topology(n=n, edges=tuple(edges), weights=weights, leader=1)


def _leader_follower_cases():
    return (
        star_topology(4, weight=3.0, leader=1),
        star_topology(5, weight=3.0, leader=1),
        star_topology(6, weight=3.0, leader=1),
        _star_complete(5, 2.0, 1.0),
        _star_complete(6, 2.0, 1.0),
    )


def _timed_best_of(func, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


@lru_cache(maxsize=1)
def _leaderless_batch():
    gains = design_leaderless(A1, B1, Q1, gamma=2.0)
    results = []
    start = time.perf_counter()
    for index in range(20):
        kind, n, weight = _LEADERLESS_CASES[index % len(_LEADERLESS_CASES)]
        if kind == "complete":
            topology = complete_topology(n, weight=weight)
        else:
            topology = cycle_topology(n, weight=weight)
        rng = np.random.default_rng(200 + index)
        x0 = rng.uniform(-0.25, 0.25, size=(n, 2))
        trace = run(SimConfig(x0=x0, t_final=3.0, dt=1e-3, sample_stride=10), gains, topology)
        results.append((trace, analyze(trace, gains, topology)))
    return tuple(results), time.perf_counter() - start


@lru_cache(maxsize=1)
def _leader_follower_batch():
    gains = design_leader_follower(A2, B2, Q2, gamma_l=1.0)
    cases = _leader_follower_cases()
    results = []
    start = time.perf_counter()
    for index in range(20):
        topology = cases[index % len(cases)]
        rng = np.random.default_rng(300 + index)
        x0 = rng.uniform(-0.25, 0.25, size=(topology.n, 4))
        trace = run(SimConfig(x0=x0, t_final=12.0, dt=1e-3, sample_stride=10), gains, topology)
        results.append((trace, analyze(trace, gains, topology)))
    return tuple(results), time.perf_counter() - start


def test_criterion_01():
    """Reference gain algebra, two-state plant: K_u and K_w match within 1e-3, under 1 ms."""
    result = verify_reference_gains("example-1")
    assert result["passed"] is True
    assert np.abs(result["k_u"] - K_U_1).max() <= 1e-3
    assert np.abs(result["k_w"] - K_W_1).max() <= 1e-3
    elapsed = _timed_best_of(lambda: verify_reference_gains("example-1"))
    assert elapsed < 1e-3


def test_criterion_02():
    """Reference gain algebra, four-state plant: K_u row and K_w(1,1) match within 1e-3, under 1 ms."""
    result = verify_reference_gains("example-2")
    assert result["passed"] is True
    assert np.abs(result["k_u"] - K_U_2).max() <= 1e-3
    assert abs(float(result["k_w"][0, 0]) - K_W_2_11) <= 1e-3
    elapsed = _timed_best_of(lambda: verify_reference_gains("example-2"))
    assert elapsed < 1e-3


def test_criterion_03():
    """Riccati solver: scalar closed form at 1e-9 and 50 seeded random systems, under 5 s."""
    start = time.perf_counter()
    scalar = care_solve([[1.0]], [[1.0]], [[2.0]], 2.0)
    assert abs(float(scalar[0, 0]) - GOLDEN_RATIO) <= 1e-9

    rng = np.random.default_rng(20260815)
    for _ in range(50):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(1, 3))
        a = rng.normal(size=(d, d))
        b = rng.normal(size=(d, m))
        factor = rng.normal(size=(d, d))
        q_hat = factor.T @ factor + 0.1 * np.eye(d)
        gamma = float(rng.uniform(0.5, 4.0))
        p = care_solve(a, b, q_hat, gamma)
        residual = p @ a + a.T @ p - gamma * (p @ b) @ (b.T @ p) + q_hat
        p_norm = float(np.linalg.norm(p, 2))
        assert float(np.linalg.norm(residual, 2)) <= 1e-7 * (1.0 + p_norm**2)
        eigenvalues = np.linalg.eigvalsh(p)
        assert eigenvalues.min() > 0.0
    assert time.perf_counter() - start < 5.0


def test_criterion_04():
    """Leaderless bound domination: 20 seeded runs, realized cost within bound and consensus reached, under 30 s."""
    results, elapsed = _leaderless_batch()
    assert len(results) == 20
    for trace, report in results:
        assert report.realized_cost <= report.bound
        assert report.bound_holds is True
        assert report.final_disagreement < 1e-2 * (report.initial_disagreement + 1.0)
        assert report.consensus_achieved is True
    assert elapsed < 30.0


def test_criterion_05():
    """Leader-follower bound domination: 20 seeded runs, bound holds and followers track the leader, under 60 s."""
    results, elapsed = _leader_follower_batch()
    assert len(results) == 20
    for trace, report in results:
        assert report.realized_cost <= report.bound
        assert report.bound_holds is True
        assert report.tracking_error < 1e-2
        assert report.consensus_achieved is True
    assert elapsed < 60.0


def test_criterion_06():
    """Adaptive weights are nondecreasing and settled on every run from the two batches."""
    leaderless, _ = _leaderless_batch()
    leader_follower, _ = _leader_follower_batch()
    all_reports = [report for _, report in leaderless + leader_follower]
    assert len(all_reports) == 40
    for report in all_reports:
        assert report.weights_monotone is True
        assert report.min_weight_delta >= -1e-12
        assert report.final_weight_rate < 1e-8


def test_criterion_07():
    """Leaderless runs track e^{At} times the initial average; matrix exponential half-period check at 1e-9."""
    results, _ = _leaderless_batch()
    for trace, report in results:
        assert report.tracking_error < 1e-2
    half_period = matrix_exp(A1 * (math.pi / 10.0))
    assert np.abs(half_period + np.eye(2)).max() <= 1e-9


def test_criterion_08():
    """Halving dt from 1e-3 to 5e-4 shrinks terminal error against a dt=1e-5 reference by at least 12x, under 5 s."""
    start = time.perf_counter()

    # Two agents on one unit-weight edge with a = 0, b = 1, q = 1, gamma = 0.5
    # give k_u = 2, k_w = 4.  The error e = x2 - x1 and weight w close on
    # themselves: de/dt = -4 w e, dw/dt = 4 e^2, and the state average stays
    # at zero, so x = (-e/2, +e/2).  The reference integrates that pair with
    # the same fourth-order scheme at dt = 1e-5.
    def deriv(e, w):
        return -4.0 * w * e, 4.0 * e * e

    e, w = 2.0, 1.0
    dt_ref = 1e-5
    for _ in range(100000):
        k1e, k1w = deriv(e, w)
        k2e, k2w = deriv(e + 0.5 * dt_ref * k1e, w + 0.5 * dt_ref * k1w)
        k3e, k3w = deriv(e + 0.5 * dt_ref * k2e, w + 0.5 * dt_ref * k2w)
        k4e, k4w = deriv(e + dt_ref * k3e, w + dt_ref * k3w)
        e += dt_ref * (k1e + 2.0 * k2e + 2.0 * k3e + k4e) / 6.0
        w += dt_ref * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) / 6.0
    reference = np.array([-e / 2.0, e / 2.0])

    gains = design_leaderless([[0.0]], [[1.0]], [[1.0]], gamma=0.5)
    topology = path_topology(2)
    x0 = np.array([[-1.0], [1.0]])
    errors = {}
    for dt in (1e-3, 5e-4):
        trace = run(SimConfig(x0=x0, t_final=1.0, dt=dt, sample_stride=100), gains, topology)
        errors[dt] = float(np.abs(trace.states[-1] - reference).max())

    assert errors[1e-3] / errors[5e-4] >= 12.0
    assert time.perf_counter() - start < 5.0


def test_criterion_09():
    """Strict input-scaling precondition: lambda_max(B B^T) = 362 is reported and rejected."""
    report = verify_lmi_corollary(np.eye(4), 0.2, A2, B2, Q2, multiplier=3, delta=200.0, strict=True)
    assert abs(report.bbt_max_eigenvalue - 362.0) <= 1e-9
    assert report.bbt_precondition_ok is False
    assert report.feasible is False
    assert report.strict is True
    with pytest.raises(RegulationError):
        regulate_gain(A2, B2, Q2, RegulationRequest(delta=200.0), mode="leader-follower", strict=True)


def test_criterion_10(tmp_path):
    """Running the first demo twice produces byte-identical CSV traces."""
    import io

    outputs = []
    for name in ("first.csv", "second.csv"):
        stream = io.StringIO()
        code = cli.main(["demo", "example-1", "--out", str(tmp_path / name)], out=stream, err=stream)
        assert code == 0
        outputs.append((tmp_path / name).read_bytes())
    assert len(outputs[0]) > 1000
    assert outputs[0] == outputs[1]
