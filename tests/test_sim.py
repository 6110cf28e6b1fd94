import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from consensuskit import graph, matops, sim, synthesis, verify
from consensuskit.graph import Topology
from consensuskit.sim import SimConfig
from consensuskit.synthesis import LEADERLESS, LEADER_FOLLOWER, GainSet

A1 = np.array([[0.0, 1.0], [-100.0, 0.0]])
B1 = np.array([[0.0], [1.0]])
Q1 = np.diag([1.0, 2.0])


def leaderless_gains(gamma=2.0):
    return synthesis.design_leaderless(A1, B1, Q1, gamma)


def gains_and_rhs(mode):
    """The A1 plant's gains for the mode and the mode's public rhs."""
    if mode == LEADERLESS:
        return leaderless_gains(), sim.leaderless_rhs
    return synthesis.design_leader_follower(A1, B1, Q1, 1.0), sim.leader_follower_rhs


def scalar_gains(gamma=2.0):
    # a = 0, b = 1, q = 1: certificate p = sqrt(2 / gamma)
    return synthesis.design_leaderless([[0.0]], [[1.0]], [[1.0]], gamma)


def disagreement_norm(x, n, d):
    """Norm of the projection of the stacked state onto the disagreement subspace."""
    arr = np.asarray(x, dtype=float).reshape(n, d)
    dev = arr - arr.mean(axis=0)
    return math.sqrt(float((dev * dev).sum()))


# ---------------------------------------------------------------- SimConfig


def test_sim_config_validation():
    with pytest.raises(sim.ConfigurationError):
        SimConfig(x0=np.zeros((2, 1)), t_final=1.0, dt=0.0)
    with pytest.raises(sim.ConfigurationError):
        SimConfig(x0=np.zeros((2, 1)), t_final=1e-4, dt=1e-3)
    with pytest.raises(sim.ConfigurationError):
        SimConfig(x0=np.zeros((2, 1)), t_final=1.0, sample_stride=0)


@pytest.mark.parametrize("stride", [2.5, float("nan"), True, 0])
def test_sim_config_rejects_a_sample_stride_that_is_not_a_positive_integer(stride):
    # 2.5 would sample every 5 steps and NaN would keep only the end samples
    with pytest.raises(sim.ConfigurationError, match="sample_stride"):
        SimConfig(x0=np.zeros((2, 1)), t_final=1.0, sample_stride=stride)


def test_sim_config_rejects_horizon_off_the_dt_grid():
    with pytest.raises(sim.ConfigurationError, match="t_final"):
        SimConfig(x0=np.zeros((2, 1)), t_final=1.0005, dt=1e-3)
    # 3.0 / 1e-3 = 2999.9999999999995 is a whole multiple up to rounding
    assert sim.horizon_steps(3.0, 1e-3) == 3000
    assert sim.horizon_steps(0.055, 1e-3) == 55


# -------------------------------------------------------------- leaderless


def test_leaderless_rhs_zero_disagreement():
    gains = leaderless_gains()
    topology = graph.complete_topology(3)
    x = np.tile([0.3, -0.7], (3, 1))
    dx, dw, dj, djb = sim.leaderless_rhs(x.ravel(), np.ones(3), gains, topology)
    assert np.abs(dw).max() == 0.0
    assert dj == 0.0
    assert djb == 0.0
    assert np.abs(dx.reshape(3, 2) - x @ A1.T).max() == 0.0


def test_leaderless_rhs_rejects_leader_follower_gains():
    gains = synthesis.design_leader_follower([[0.0]], [[1.0]], [[1.0]], 1.0)
    topology = graph.complete_topology(3)
    with pytest.raises(sim.ConfigurationError):
        sim.leaderless_rhs(np.zeros(3), np.ones(3), gains, topology)


# ----------------------------------------------------------- leader-follower


def lf_topology():
    return Topology(n=4, edges=((1, 2), (1, 3), (2, 3), (3, 4)), leader=1)


def test_leader_follower_requires_leader_one():
    gains = synthesis.design_leader_follower([[0.0]], [[1.0]], [[1.0]], 1.0)
    topology = Topology(n=3, edges=((1, 2), (2, 3)), leader=2)
    with pytest.raises(sim.ConfigurationError):
        sim.leader_follower_rhs(np.zeros(3), np.ones(1), gains, topology)


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
@pytest.mark.parametrize("extra_x, extra_w", [(0, -1), (0, 1), (-1, 0)], ids=["short-w", "long-w", "short-x"])
def test_rhs_rejects_a_state_or_weight_vector_of_the_wrong_size(mode, extra_x, extra_w):
    # a short w is not filled up with the initial weights, and a long one is
    # not cut: x holds n*d values and w one per adaptive edge
    gains, rhs = gains_and_rhs(mode)
    topology = Topology(n=4, edges=lf_topology().edges, leader=1 if mode == LEADER_FOLLOWER else None)
    adaptive = len(sim.adaptive_edges(topology, mode))
    with pytest.raises(sim.ConfigurationError, match="expected n\\*d = 8 and one per adaptive edge"):
        rhs(np.ones(8 + extra_x), np.full(adaptive + extra_w, 5.0), gains, topology)
    dx, dw, _, _ = rhs(np.ones(8), np.full(adaptive, 5.0), gains, topology)
    assert (dx.shape, dw.shape) == ((8,), (adaptive,))


# ------------------------------------------------------------ the RK4 step


def rk4_step(f, y, dt):
    """One textbook Runge-Kutta step of dy/dt = f(y): the oracle for run()."""
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_rk4_step_fifth_order_local_error():
    # at consensus every edge difference is zero, so the coupling and dw
    # vanish exactly and each agent follows dx/dt = A x: one run() step is
    # the Taylor polynomial of e^{hA} through fourth order
    gains, topology = leaderless_gains(), graph.complete_topology(3)
    x0 = np.array([0.3, -0.7])
    dt = 1e-2
    trace = sim.run(SimConfig(x0=np.tile(x0, (3, 1)), t_final=dt, dt=dt), gains, topology)
    ha = dt * A1
    taylor = (np.eye(2) + ha + ha @ ha / 2 + ha @ ha @ ha / 6 + ha @ ha @ ha @ ha / 24) @ x0
    exact = matops.matrix_exp(ha) @ x0
    # the remainder sum_{k >= 5} (hA)^k x0 / k! bounds RK4's local error
    h_norm = np.linalg.norm(ha, 2)
    local_error = math.exp(h_norm) * h_norm**5 / 120 * np.linalg.norm(x0)
    for agent in trace.states[1].reshape(3, 2):
        assert np.abs(agent - taylor).max() <= 1e-15
        assert 0.0 < np.linalg.norm(agent - exact) <= local_error
    assert np.array_equal(trace.weights[1], trace.weights[0])
    assert trace.j_realized[1] == 0.0 and trace.j_bound_integral[1] == 0.0


def augmented_rhs(rhs, gains, topology):
    """dy/dt over y = [x, w, J, J_bound] from the public rhs, J and J_bound as ODE coordinates."""
    nd = topology.n * gains.state_dim

    def f(y):
        dx, dw, dj, djb = rhs(y[:nd], y[nd:-2], gains, topology)
        return np.concatenate((dx, dw, (dj, djb)))

    return f


def rk4_loop(rhs, gains, topology, y0, dt, nsteps, stride):
    """Augmented y = [x, w, J, J_bound] at the steps run() samples, by the textbook RK4 loop."""
    f = augmented_rhs(rhs, gains, topology)
    y = np.concatenate((y0, (0.0, 0.0)))
    samples = [y]
    for step in range(1, nsteps + 1):
        y = rk4_step(f, y, dt)
        if step % stride == 0 or step == nsteps:
            samples.append(y)
    return np.array(samples)


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
def test_run_step_is_rk4_step_over_public_rhs(mode):
    # run() and analyze() share one derivative: a one-step run equals one
    # rk4_step over the public rhs, bit for bit
    gains, rhs = gains_and_rhs(mode)
    if mode == LEADERLESS:
        topology = Topology(n=4, edges=((1, 2), (2, 3), (3, 4), (1, 4), (1, 3)))
    else:
        topology = lf_topology()
    x0 = np.random.default_rng(41).uniform(-0.25, 0.25, size=(4, 2))
    dt = 1e-3
    trace = sim.run(SimConfig(x0=x0, t_final=dt, dt=dt), gains, topology)
    w0 = trace.weights[0]
    stepped = rk4_step(augmented_rhs(rhs, gains, topology), np.concatenate((x0.ravel(), w0, (0.0, 0.0))), dt)
    assert np.array_equal(trace.states[1], stepped[:8])
    assert np.array_equal(trace.weights[1], stepped[8:-2])
    assert trace.j_realized[1] == stepped[-2]
    assert trace.j_bound_integral[1] == stepped[-1]


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
def test_run_cost_columns_equal_the_augmented_rk4_loop(mode):
    # run() integrates [x, w] and adds the cost and bound rates of buffered
    # stage states per block of steps; the oracle steps J and J_bound inside
    # the RK4 state.  537 steps span three blocks, and stride 7 divides
    # neither the block nor the horizon, so the final sample is off-stride.
    # One batched rate pass covers each block's stage states, and the oracle
    # evaluates the same rates one state at a time.
    edges = ((1, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 6), (5, 6))
    gains, rhs = gains_and_rhs(mode)
    topology = Topology(n=6, edges=edges, leader=1 if mode == LEADER_FOLLOWER else None)
    x0 = np.random.default_rng(43).uniform(-0.25, 0.25, size=(6, 2))
    dt, stride, nsteps = 1e-3, 7, 537
    trace = sim.run(SimConfig(x0=x0, t_final=nsteps * dt, dt=dt, sample_stride=stride), gains, topology)

    expected = rk4_loop(rhs, gains, topology, np.concatenate((x0.ravel(), trace.weights[0])), dt, nsteps, stride)
    assert len(expected) == 1 + nsteps // stride + 1
    assert np.array_equal(trace.states, expected[:, :12])
    assert np.array_equal(trace.weights, expected[:, 12:-2])
    assert np.array_equal(trace.j_realized, expected[:, -2])
    assert np.array_equal(trace.j_bound_integral, expected[:, -1])


# ---------------------------------------------------------------------- run


def test_run_two_agent_conservation_and_weight_limit():
    # a = 0, b = 1, q = 1, gamma = 2 gives k_u = k_w = 1; with e = x2 - x1:
    # d/dt e^2 = -4 w e^2 and dw/dt = e^2, so e^2 + 2 w^2 is conserved and
    # w(inf) = sqrt(w0^2 + e0^2 / 2) = sqrt(3) for e0 = 2, w0 = 1
    gains = scalar_gains(2.0)
    topology = Topology(n=2, edges=((1, 2),))
    config = SimConfig(x0=np.array([[-1.0], [1.0]]), t_final=10.0, dt=1e-3, sample_stride=100)
    trace = sim.run(config, gains, topology)
    e = trace.states[:, 1] - trace.states[:, 0]
    invariant = e**2 + 2.0 * trace.weights[:, 0] ** 2
    assert np.abs(invariant - invariant[0]).max() < 1e-8
    assert abs(trace.weights[-1, 0] - math.sqrt(3.0)) < 1e-6
    assert abs(e[-1]) < 1e-6
    # the agent mean is exactly conserved for a = 0
    mean = 0.5 * (trace.states[:, 0] + trace.states[:, 1])
    assert np.abs(mean).max() < 1e-12


def test_run_records_initial_and_final_samples():
    gains = scalar_gains()
    topology = Topology(n=2, edges=((1, 2),))
    config = SimConfig(x0=np.array([[0.0], [1.0]]), t_final=0.055, dt=1e-3, sample_stride=10)
    trace = sim.run(config, gains, topology)
    assert np.allclose(trace.times, [0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.055])
    assert trace.states.shape == (7, 2)
    assert trace.weights.shape == (7, 1)
    # x(0) is the first sample; analyze reads it from there
    assert np.array_equal(trace.states[0], config.x0.ravel())


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
def test_run_eta_norm_equals_the_per_sample_loop(mode):
    # the vectorized eta_norm keeps the arithmetic of a per-sample loop
    if mode == LEADERLESS:
        gains, topology = leaderless_gains(), graph.cycle_topology(5)
    else:
        gains = synthesis.design_leader_follower(A1, B1, Q1, 1.0)
        topology = graph.star_topology(5, weight=3.0, leader=1)
    x0 = np.random.default_rng(12).uniform(-0.25, 0.25, size=(5, 2))
    trace = sim.run(SimConfig(x0=x0, t_final=0.5, dt=1e-3, sample_stride=7), gains, topology)
    for eta, state in zip(trace.eta_norm, trace.states):
        if mode == LEADERLESS:
            expected = disagreement_norm(state, 5, 2)
        else:
            x = state.reshape(5, 2)
            expected = math.sqrt(float(((x[1:] - x[0]) ** 2).sum()))
        assert eta == expected


def test_run_mode_mismatch_and_shape_errors():
    gains = scalar_gains()
    topology = Topology(n=2, edges=((1, 2),))
    config = SimConfig(x0=np.zeros((2, 1)), t_final=1.0)
    # leader-follower gains need a topology with a leader
    lf_gains = synthesis.design_leader_follower([[0.0]], [[1.0]], [[1.0]], 1.0)
    with pytest.raises(sim.ConfigurationError):
        sim.run(config, lf_gains, topology)
    bad = SimConfig(x0=np.zeros((3, 1)), t_final=1.0)
    with pytest.raises(sim.ConfigurationError):
        sim.run(bad, gains, topology)


def test_run_rejects_disconnected_leaderless_topology():
    gains = scalar_gains()
    topology = Topology(n=4, edges=((1, 2), (3, 4)))
    config = SimConfig(x0=np.zeros((4, 1)), t_final=1.0)
    with pytest.raises(sim.ConfigurationError):
        sim.run(config, gains, topology)


def test_run_rejects_unreachable_followers():
    gains = synthesis.design_leader_follower([[0.0]], [[1.0]], [[1.0]], 1.0)
    topology = Topology(n=4, edges=((1, 2), (3, 4)), leader=1)
    config = SimConfig(x0=np.zeros((4, 1)), t_final=1.0)
    with pytest.raises(sim.ConfigurationError):
        sim.run(config, gains, topology)


def first_divergence(rhs, gains, topology, y0, dt):
    """(time, magnitude) at the first textbook RK4 step whose |x| or |w| passes the guard."""
    f = augmented_rhs(rhs, gains, topology)
    y, step = np.concatenate((y0, (0.0, 0.0))), 0
    while step < 10**5:
        y, step = rk4_step(f, y, dt), step + 1
        magnitude = float(np.abs(y[:-2]).max())
        if not magnitude <= sim.DIVERGENCE_LIMIT:
            return step * dt, magnitude
    raise AssertionError("the textbook loop never diverged")


def test_run_divergence_guard():
    # flipping the sign of k_u turns the coupling into repulsion; on an
    # unstable scalar plant the states blow past the guard
    plant = synthesis.design_leaderless([[3.0]], [[1.0]], [[1.0]], 2.0)
    wrong = GainSet(
        mode=LEADERLESS,
        a=plant.a,
        b=plant.b,
        q=plant.q,
        gamma=plant.gamma,
        certificate=plant.certificate,
        k_u=-plant.k_u,
        k_w=plant.k_w,
    )
    topology = Topology(n=2, edges=((1, 2),))
    config = SimConfig(x0=np.array([[-1.0], [1.0]]), t_final=30.0, dt=1e-3)
    with pytest.raises(sim.DivergenceError) as excinfo:
        sim.run(config, wrong, topology)
    assert excinfo.value.time > 0.0
    assert excinfo.value.magnitude > sim.DIVERGENCE_LIMIT
    y0 = np.concatenate((config.x0.ravel(), topology.initial_weight_vector(topology.edges)))
    assert (excinfo.value.time, excinfo.value.magnitude) == first_divergence(sim.leaderless_rhs, wrong, topology, y0, 1e-3)


def test_run_divergence_guard_covers_adaptive_weights():
    # k_u = 0 leaves x on the bounded oscillator flow e^{A t} x0 while a huge
    # k_w drives the weights past the guard within a few steps
    plant = leaderless_gains()

    def override(k_w):
        return GainSet(
            mode=LEADERLESS,
            a=plant.a,
            b=plant.b,
            q=plant.q,
            gamma=plant.gamma,
            certificate=plant.certificate,
            k_u=np.zeros((1, 2)),
            k_w=k_w,
        )

    topology = graph.cycle_topology(4)
    x0 = np.random.default_rng(5).uniform(-0.25, 0.25, size=(4, 2))
    config = SimConfig(x0=x0, t_final=1.0, dt=1e-3, sample_stride=100)
    calm = sim.run(config, override(np.zeros((2, 2))), topology)
    assert np.abs(calm.states).max() < 10.0
    with pytest.raises(sim.DivergenceError) as excinfo:
        sim.run(config, override(1e12 * np.eye(2)), topology)
    assert excinfo.value.magnitude > sim.DIVERGENCE_LIMIT
    y0 = np.concatenate((x0.ravel(), topology.initial_weight_vector(topology.edges)))
    first = first_divergence(sim.leaderless_rhs, override(1e12 * np.eye(2)), topology, y0, 1e-3)
    assert (excinfo.value.time, excinfo.value.magnitude) == first


@pytest.mark.filterwarnings("error")
def test_run_divergence_scan_reports_the_first_step_of_a_block_that_overflows():
    # repulsive coupling with adaptive weights blows up in finite time: with
    # e = x2 - x1, de/dt = 2 w e and dw/dt = e^2, so w = tan(2 t + pi / 4)
    # escapes at t = pi / 8.  Step 394, in the second block of 200, first
    # passes the guard; the state overflows to inf on the next step, and NaN
    # follows, before the block ends and is scanned
    plant = scalar_gains(2.0)
    wrong = dataclasses.replace(plant, k_u=-plant.k_u)
    topology = Topology(n=2, edges=((1, 2),))
    config = SimConfig(x0=np.array([[-1.0], [1.0]]), t_final=1.0, dt=1e-3)
    with pytest.raises(sim.DivergenceError) as excinfo:
        sim.run(config, wrong, topology)
    y0 = np.concatenate((config.x0.ravel(), np.ones(1)))
    time, magnitude = first_divergence(sim.leaderless_rhs, wrong, topology, y0, 1e-3)
    assert (excinfo.value.time, excinfo.value.magnitude) == (time, magnitude)
    assert round(time / 1e-3) == 394
    # the textbook loop, carried one step past the guard, overflows
    f = augmented_rhs(sim.leaderless_rhs, wrong, topology)
    y = np.concatenate((y0, (0.0, 0.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(395):
            y = rk4_step(f, y, 1e-3)
    assert not np.isfinite(y[:3]).all()


def test_run_keeps_fixed_follower_weights_bit_constant(monkeypatch):
    # follower-follower weights ride in the state with a zero slope: every
    # derivative evaluation sees exactly the configured weights
    gains = synthesis.design_leader_follower(A1, B1, Q1, 1.0)
    weights = {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 0.1 + 0.2, (3, 4): 1.7}
    topology = Topology(n=4, edges=tuple(weights), leader=1, weights=weights)
    seen = []
    deriv = sim._Protocol.deriv

    def recording(self, x, w, dx, dw):
        seen.append(w[2:, 0].copy())
        deriv(self, x, w, dx, dw)

    monkeypatch.setattr(sim._Protocol, "deriv", recording)
    x0 = np.random.default_rng(29).uniform(-0.25, 0.25, size=(4, 2))
    trace = sim.run(SimConfig(x0=x0, t_final=0.25, dt=1e-3, sample_stride=10), gains, topology)
    assert len(seen) == 4 * 250
    assert all(np.array_equal(w, [0.1 + 0.2, 1.7]) for w in seen)
    # Trace.weights holds only the adaptive (leader) edges' columns
    assert trace.adaptive_edges == ((1, 2), (1, 3))
    assert trace.weights.shape == (len(trace.times), 2)
    assert np.array_equal(trace.weights[0], [1.0, 1.0])
    assert np.diff(trace.weights, axis=0).min() >= 0.0 and trace.weights[-1].min() > 1.0


def test_run_leader_follower_smoke():
    gains = synthesis.design_leader_follower(A1, B1, Q1, 1.0)
    # the star plus one follower-follower edge, which keeps a fixed weight
    edges = ((1, 2), (1, 3), (1, 4), (2, 3))
    topology = Topology(n=4, edges=edges, weights=dict.fromkeys(edges, 3.0), leader=1)
    rng = np.random.default_rng(9)
    config = SimConfig(x0=rng.uniform(-0.25, 0.25, size=(4, 2)), t_final=3.0, dt=1e-3, sample_stride=10)
    trace = sim.run(config, gains, topology)
    assert trace.mode == LEADER_FOLLOWER
    assert trace.adaptive_edges == ((1, 2), (1, 3), (1, 4))
    # followers converge to the leader trajectory
    assert trace.eta_norm[-1] < 1e-2 * (trace.eta_norm[0] + 1.0)
    # follower-follower edges keep no adaptive state: 3 columns of 4 edges
    assert trace.weights.shape[1] == 3


def test_run_leader_follower_needs_no_eigendecomposition(monkeypatch):
    # leader reachability already makes the follower coupling positive
    # definite, so no eigenvalue check runs
    def forbidden(*args, **kwargs):
        raise AssertionError("sym_eig called")

    gains = synthesis.design_leader_follower(A1, B1, Q1, 1.0)
    monkeypatch.setattr(matops, "sym_eig", forbidden)
    topology = graph.star_topology(4, weight=3.0, leader=1)
    x0 = np.random.default_rng(9).uniform(-0.25, 0.25, size=(4, 2))
    trace = sim.run(SimConfig(x0=x0, t_final=0.1, dt=1e-3, sample_stride=10), gains, topology)
    assert trace.mode == LEADER_FOLLOWER


def test_only_leaderless_analyze_evaluates_matrix_exp(monkeypatch):
    # the integrator never needs e^{At}; analyze evaluates the consensus
    # function once, at t_final
    calls = []
    original = matops.matrix_exp

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(matops, "matrix_exp", counting)
    gains, topology = leaderless_gains(), graph.complete_topology(3)
    x0 = np.random.default_rng(3).uniform(-0.25, 0.25, size=(3, 2))
    trace = sim.run(SimConfig(x0=x0, t_final=1.0, dt=1e-3), gains, topology)
    assert len(calls) == 0
    verify.analyze(trace, gains, topology)
    assert len(calls) == 1
    lf_gains = synthesis.design_leader_follower(A1, B1, Q1, 1.0)
    lf_topology = graph.star_topology(3, weight=3.0, leader=1)
    verify.analyze(sim.run(SimConfig(x0=x0, t_final=0.1, dt=1e-3), lf_gains, lf_topology), lf_gains, lf_topology)
    assert len(calls) == 1


# ------------------------------------------------------- support functions


def test_consensus_function_oscillator_half_period():
    x0 = np.array([[1.0, 0.2], [0.5, -0.4]])
    value = sim.consensus_function(A1, x0, math.pi / 10.0)
    assert np.abs(value + x0.mean(axis=0)).max() < 1e-9


def test_disagreement_norm_matches_projector():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 3))
    proj = np.eye(5) - np.ones((5, 5)) / 5
    stacked = proj @ x
    expected = math.sqrt(float((stacked * stacked).sum()))
    assert abs(disagreement_norm(x.ravel(), 5, 3) - expected) < 1e-12


def test_guaranteed_cost_bound_zero_disagreement():
    gains = leaderless_gains()
    topology = graph.complete_topology(3)
    x0 = np.tile([0.4, -0.1], (3, 1))
    config = SimConfig(x0=x0, t_final=0.5, dt=1e-3, sample_stride=10)
    trace = sim.run(config, gains, topology)
    bound = sim.guaranteed_cost_bound(trace, gains)
    assert bound == 0.0
    assert trace.j_realized[-1] == 0.0
    assert verify.analyze(trace, gains, topology).warnings == ()


def short_horizon_report(scale):
    gains = leaderless_gains()
    topology = graph.complete_topology(3, weight=4.0)
    x0 = scale * np.random.default_rng(8).uniform(-0.25, 0.25, size=(3, 2))
    trace = sim.run(SimConfig(x0=x0, t_final=0.05, dt=1e-3), gains, topology)
    return trace, verify.analyze(trace, gains, topology)


def test_guaranteed_cost_bound_flags_short_horizon():
    trace, report = short_horizon_report(1.0)
    assert report.bound > trace.j_realized[-1]
    assert [w for w in report.warnings if "horizon too short" in w] == [report.warnings[0]]


def test_horizon_warning_is_relative_to_the_bound():
    # the same run scaled by 1e-6: the integrand is ~1e-13 per unit time in
    # absolute terms, but still 0.35 of the bound per unit time
    trace, report = short_horizon_report(1e-6)
    assert report.bound < 1e-10
    assert any(w.startswith("horizon too short") for w in report.warnings)


def test_guaranteed_cost_bound_leader_follower_quadratic_form():
    gains = synthesis.design_leader_follower(A1, B1, Q1, 1.0)
    topology = graph.star_topology(3, weight=3.0, leader=1)
    x0 = np.array([[0.1, 0.0], [0.2, -0.1], [-0.3, 0.2]])
    config = SimConfig(x0=x0, t_final=0.01, dt=1e-3)
    trace = sim.run(config, gains, topology)
    bound = sim.guaranteed_cost_bound(trace, gains)
    xi0 = x0[1:] - x0[0]
    quad = sum(xi0[i] @ gains.certificate @ xi0[i] for i in range(2))
    assert abs(bound - quad - trace.j_bound_integral[-1]) < 1e-12


# ---------------------------------------------------------------- properties


def draw_connected_graph(data):
    """A random connected graph on 3-6 agents: (n, edges, weights)."""
    n = data.draw(st.integers(3, 6), label="n")
    # a random spanning tree keeps the graph connected; extra edges go on top
    edges = [(data.draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)]
    others = [(i, k) for i in range(1, n + 1) for k in range(i + 1, n + 1) if (i, k) not in edges]
    edges += data.draw(st.lists(st.sampled_from(others), unique=True), label="extra edges")
    weights = {edge: data.draw(st.floats(0.5, 4.0)) for edge in edges}
    return n, edges, weights


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_relabeling_agents_permutes_the_run_and_keeps_the_report(data):
    n, edges, weights = draw_connected_graph(data)
    perm = data.draw(st.permutations(range(1, n + 1)), label="agent i becomes perm[i - 1]")
    x0 = np.random.default_rng(data.draw(st.integers(0, 2**16))).uniform(-0.5, 0.5, size=(n, 2))

    def relabel(edge):
        return graph.canonical_edge(perm[edge[0] - 1], perm[edge[1] - 1])

    topology = Topology(n=n, edges=tuple(edges), weights=weights)
    relabeled = Topology(n=n, edges=tuple(map(relabel, edges)), weights={relabel(e): w for e, w in weights.items()})
    x0_relabeled = np.empty_like(x0)
    x0_relabeled[np.array(perm) - 1] = x0
    gains = leaderless_gains()
    traces, reports = [], []
    for x, top in ((x0, topology), (x0_relabeled, relabeled)):
        traces.append(sim.run(SimConfig(x0=x, t_final=0.5, dt=1e-3, sample_stride=50), gains, top))
        reports.append(verify.analyze(traces[-1], gains, top))
    trace, other = traces
    report, other_report = reports

    def close(a, b, rel):
        return abs(a - b) <= rel * abs(b)

    assert close(report.realized_cost, other_report.realized_cost, 1e-12)
    assert close(report.bound, other_report.bound, 1e-12)
    assert close(report.final_disagreement, other_report.final_disagreement, 1e-9)
    assert close(report.tracking_error, other_report.tracking_error, 1e-9)
    # states and weights move with their agents and edges
    states = trace.states.reshape(len(trace.times), n, 2)
    other_states = other.states.reshape(len(other.times), n, 2)
    assert np.abs(other_states[:, np.array(perm) - 1] - states).max() <= 1e-9 * np.abs(states).max()
    columns = [other.adaptive_edges.index(relabel(edge)) for edge in trace.adaptive_edges]
    assert np.abs(other.weights[:, columns] - trace.weights).max() <= 1e-9 * np.abs(trace.weights).max()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_leaderless_agent_mean_is_conserved_when_a_is_zero(data):
    # every edge couples its two agents with opposite signs, so with A = 0
    # the agent mean stays at its initial value
    n, edges, weights = draw_connected_graph(data)
    x0 = np.random.default_rng(data.draw(st.integers(0, 2**16))).uniform(-0.5, 0.5, size=(n, 2))
    gains = synthesis.design_leaderless(np.zeros((2, 2)), [[1.0, 0.5], [0.0, 1.0]], np.diag([1.0, 2.0]), 2.0)
    topology = Topology(n=n, edges=tuple(edges), weights=weights)
    trace = sim.run(SimConfig(x0=x0, t_final=0.5, dt=1e-3, sample_stride=50), gains, topology)
    means = trace.states.reshape(len(trace.times), n, 2).mean(axis=1)
    assert np.abs(means - x0.mean(axis=0)).max() <= 1e-12 * np.abs(x0).max()


def draw_plant(seed):
    """A random plant as criterion 3 draws them: (a, b, q, gamma)."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    m = int(rng.integers(1, 3))
    a = rng.normal(size=(d, d))
    b = rng.normal(size=(d, m))
    factor = rng.normal(size=(d, d))
    return a, b, factor.T @ factor + 0.1 * np.eye(d), float(rng.uniform(0.5, 4.0))


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cost_stays_under_the_bound_and_weights_never_decrease(mode, data):
    a, b, q, gamma = draw_plant(data.draw(st.integers(0, 2**16), label="plant seed"))
    design = synthesis.design_leaderless if mode == LEADERLESS else synthesis.design_leader_follower
    try:
        gains = design(a, b, q, gamma)
    except matops.NotStabilizableError:
        reject()
    n, edges, weights = draw_connected_graph(data)
    topology = Topology(n=n, edges=tuple(edges), weights=weights, leader=1 if mode == LEADER_FOLLOWER else None)
    x0 = np.random.default_rng(data.draw(st.integers(0, 2**16))).uniform(-0.5, 0.5, size=(n, len(a)))
    # keep the fixed RK4 step inside its stability region: at the initial
    # weights the closed loop's spectral radius is at most
    # |A| + 2 * max weighted degree * |B K_u|
    degree = max(sum(w for edge, w in weights.items() if i in edge) for i in range(1, n + 1))
    dt = min(1e-3, 0.5 / (np.linalg.norm(a, 2) + 2.0 * degree * np.linalg.norm(b @ gains.k_u, 2)))
    trace = sim.run(SimConfig(x0=x0, t_final=300 * dt, dt=dt, sample_stride=50), gains, topology)
    report = verify.analyze(trace, gains, topology)
    assert report.realized_cost <= report.bound
    assert np.diff(trace.weights, axis=0).min() >= 0.0


def ordered_pair_sum(x, m):
    """Sum of (x_i - x_k)^T m (x_i - x_k) over ordered agent pairs, from every pair difference."""
    pairs = (x[None, :, :] - x[:, None, :]).reshape(-1, x.shape[1])
    return float(((pairs @ m) * pairs).sum())


def pair_sum_tolerance(x, m):
    """(n + 1)-scaled rounding bound of the shifted-data pair sum against the ordered-pair form."""
    n, d = x.shape
    return 4.0 * (n + 1) * (d + 1) * np.finfo(float).eps * np.linalg.norm(m) * ordered_pair_sum(x, np.eye(d))


def draw_states(data, n, d):
    """Agent states spread around a common offset up to 1e6 times larger than the spread."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="state seed"))
    spread = 10.0 ** data.draw(st.integers(-8, 2), label="log10 spread")
    offset = 10.0 ** data.draw(st.integers(-3, 6), label="log10 offset") * rng.normal(size=d)
    return offset + spread * rng.normal(size=(n, d))


def one_sample_trace(mode, x):
    """A Trace holding only x(0) = x, with a zero bound integral."""
    n, d = x.shape
    zero = np.zeros(1)
    return sim.Trace(mode, n, d, (), zero, x.reshape(1, -1), np.ones((1, n - 1)), zero, zero, zero)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pair_sums_match_the_ordered_pair_form(data):
    n, d = data.draw(st.integers(2, 8), label="n"), data.draw(st.integers(1, 4), label="d")
    stack = np.array([draw_states(data, n, d) for _ in range(data.draw(st.integers(1, 3), label="stack"))])
    factor = np.random.default_rng(data.draw(st.integers(0, 2**16))).normal(size=(d, d))
    m = factor.T @ factor * 10.0 ** data.draw(st.integers(-3, 3), label="log10 scale")
    for got, x in zip(sim._pair_sums(stack, m), stack):
        assert abs(got - ordered_pair_sum(x, m)) <= pair_sum_tolerance(x, m)


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cost_rates_and_bound_match_the_ordered_pair_form(mode, data):
    # the rhs rates and the x(0) form of the bound against the ordered-pair
    # sums they replace
    n = data.draw(st.integers(2, 8), label="n")
    x = draw_states(data, n, 2)
    edges = tuple((1, k) for k in range(2, n + 1))
    if mode == LEADERLESS:
        gains = leaderless_gains()
        _, _, got_dj, got_djb = sim.leaderless_rhs(x.ravel(), np.ones(n - 1), gains, Topology(n=n, edges=edges))
        dj, dj_tol = ordered_pair_sum(x, Q1) / n, pair_sum_tolerance(x, Q1) / n
        quad = ordered_pair_sum(x, gains.certificate) / (2.0 * n)
        quad_tol = pair_sum_tolerance(x, gains.certificate) / (2.0 * n)
        djb = gains.gamma * ordered_pair_sum(x, gains.k_w) / (2.0 * n)
        djb_tol = gains.gamma * pair_sum_tolerance(x, gains.k_w) / (2.0 * n)
    else:
        gains = synthesis.design_leader_follower(A1, B1, Q1, 1.0)
        topology = Topology(n=n, edges=edges, leader=1)
        _, _, got_dj, got_djb = sim.leader_follower_rhs(x.ravel(), np.ones(n - 1), gains, topology)
        xi = x[1:] - x[0]
        pinned = float(((xi @ Q1) * xi).sum())
        dj = pinned + ordered_pair_sum(x[1:], Q1) / (n - 1)
        dj_tol = 8.0 * np.finfo(float).eps * pinned + pair_sum_tolerance(x[1:], Q1) / (n - 1)
        quad, quad_tol = float(((xi @ gains.certificate) * xi).sum()), 0.0
        djb = gains.gamma * float(((xi @ gains.k_w) * xi).sum())
        djb_tol = 8.0 * np.finfo(float).eps * djb
    assert abs(got_dj - dj) <= dj_tol
    assert abs(got_djb - djb) <= djb_tol
    # the bound of a one-sample trace is the x(0) quadratic form
    assert abs(sim.guaranteed_cost_bound(one_sample_trace(mode, x), gains) - quad) <= quad_tol


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cost_rates_and_bound_are_exactly_zero_at_common_states(mode, data):
    n, d = data.draw(st.integers(2, 8), label="n"), data.draw(st.integers(1, 4), label="d")
    common = draw_states(data, 1, d)[0]
    x = np.tile(common, (n, 1))
    a, b, q = np.ones((d, d)), np.eye(d), np.eye(d)
    design = synthesis.design_leaderless if mode == LEADERLESS else synthesis.design_leader_follower
    gains = design(a, b, q, 1.0)
    edges = tuple((1, k) for k in range(2, n + 1))
    topology = Topology(n=n, edges=edges, leader=1 if mode == LEADER_FOLLOWER else None)
    rhs = sim.leaderless_rhs if mode == LEADERLESS else sim.leader_follower_rhs
    _, dw, dj, djb = rhs(x.ravel(), np.ones(n - 1), gains, topology)
    assert dj == 0.0 and djb == 0.0
    assert np.abs(dw).max() == 0.0
    assert sim.guaranteed_cost_bound(one_sample_trace(mode, x), gains) == 0.0
    # followers in consensus among themselves, away from the leader
    x[0] += 1.0
    assert sim._pair_sums(x[None, 1:], gains.q)[0] == 0.0


def per_agent_rhs(mode, gains, topology, x, w):
    """(dx, dw, dJ, dJ_bound) from the paper's per-agent equations, one neighbour at a time.

    u_i = K_u sum_k w_ik (x_k - x_i) over the neighbours k of agent i, and
    the leader (agent 1) of leader-follower mode takes no input; each
    adaptive edge gets w_ik' = (x_i - x_k)^T K_w (x_i - x_k).  Leaderless:
    J' = (1/n) sum over ordered pairs of (x_i - x_k)^T Q (x_i - x_k), and
    J_bound' = gamma sum_i (x_i - avg x)^T K_w (x_i - avg x).  Leader-follower:
    J' sums the leader errors of the followers on a leader edge plus the
    follower pairs at 1/(n - 1), and J_bound' = gamma sum_i over followers of
    (x_i - x_1)^T K_w (x_i - x_1).
    """
    n = topology.n
    adaptive = sim.adaptive_edges(topology, mode)
    weight = {**topology.weights, **dict(zip(adaptive, w))}
    dx = np.empty_like(x)
    for i in range(1, n + 1):
        u_i = np.zeros(gains.k_u.shape[0])
        if not (mode == LEADER_FOLLOWER and i == 1):
            for edge in topology.edges:
                if i in edge:
                    k = edge[1] if edge[0] == i else edge[0]
                    u_i = u_i + weight[edge] * (gains.k_u @ (x[k - 1] - x[i - 1]))
        dx[i - 1] = gains.a @ x[i - 1] + gains.b @ u_i
    dw = np.array([(x[i - 1] - x[k - 1]) @ gains.k_w @ (x[i - 1] - x[k - 1]) for i, k in adaptive])
    if mode == LEADERLESS:
        dj = sum((x[i] - x[k]) @ gains.q @ (x[i] - x[k]) for i in range(n) for k in range(n)) / n
        dev = x - x.mean(axis=0)
        djb = gains.gamma * sum(dev[i] @ gains.k_w @ dev[i] for i in range(n))
    else:
        dj = sum((x[0] - x[k - 1]) @ gains.q @ (x[0] - x[k - 1]) for _, k in adaptive)
        dj += sum((x[i] - x[k]) @ gains.q @ (x[i] - x[k]) for i in range(1, n) for k in range(1, n)) / (n - 1)
        djb = gains.gamma * sum((x[i] - x[0]) @ gains.k_w @ (x[i] - x[0]) for i in range(1, n))
    return dx.ravel(), dw, dj, djb


def assert_rhs_matches_the_per_agent_equations(mode, gains, data):
    """The mode's public rhs against per_agent_rhs on a drawn graph, initial weights and adaptive weights."""
    rhs = sim.leaderless_rhs if mode == LEADERLESS else sim.leader_follower_rhs
    n, edges, weights = draw_connected_graph(data)
    topology = Topology(n=n, edges=tuple(edges), weights=weights, leader=1 if mode == LEADER_FOLLOWER else None)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    x = rng.normal(size=(n, gains.state_dim))
    w = rng.uniform(0.5, 4.0, size=len(sim.adaptive_edges(topology, mode)))
    dx, dw, dj, djb = rhs(x.ravel(), w, gains, topology)
    want_dx, want_dw, want_dj, want_djb = per_agent_rhs(mode, gains, topology, x, w)
    # Both forms round each term to about 1e-16 relative, so they agree to
    # 1e-12 of the largest sum each can hold.  With every |x_i| and
    # |x_i - x_k| below r and every weight at most 4, that is
    # (|A| + 4 n |B K_u|) r for dx, r^2 |K_w| for dw, and n^2 r^2 |M| for
    # the rates over quadratic forms in M (Frobenius norms).
    r = 2.0 * np.linalg.norm(x, axis=1).max()
    norm = np.linalg.norm
    assert np.abs(dx - want_dx).max() <= 1e-12 * (norm(gains.a) + 4.0 * n * norm(gains.b @ gains.k_u)) * r
    assert np.abs(dw - want_dw).max() <= 1e-12 * r * r * norm(gains.k_w)
    assert abs(dj - want_dj) <= 1e-12 * n * n * r * r * norm(gains.q)
    assert abs(djb - want_djb) <= 1e-12 * n * n * r * r * gains.gamma * norm(gains.k_w)
    if mode == LEADER_FOLLOWER:
        # the leader takes no input: its row of dx is its drift, bit for bit
        assert np.array_equal(dx[: gains.state_dim], (x @ gains.a.T)[0])


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rhs_matches_the_per_agent_equations(mode, data):
    # the vectorized coupling against the paper's per-agent sums on random
    # graphs, initial weights and adaptive weights; with run() equal to the
    # textbook RK4 over the public rhs bit for bit, this checks what run()
    # integrates
    gains, _ = gains_and_rhs(mode)
    assert_rhs_matches_the_per_agent_equations(mode, gains, data)


# d = 4, p = 2: two inputs on a chain of two coupled oscillators
A4 = np.array([[0.0, 1.0, 0.0, 0.0], [-2.0, -0.5, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, -3.0, 0.2]])
B4 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.3, 1.0]])


def plant_gains_and_rhs(mode, d):
    """Gains for the mode on the d = 1 (a = 0, b = 1), A1 (d = 2) or A4 (d = 4) plant, and the mode's public rhs."""
    if d == 2:
        return gains_and_rhs(mode)
    a, b = ([[0.0]], [[1.0]]) if d == 1 else (A4, B4)
    if mode == LEADERLESS:
        return synthesis.design_leaderless(a, b, np.eye(d), 1.0), sim.leaderless_rhs
    return synthesis.design_leader_follower(a, b, np.eye(d), 1.0), sim.leader_follower_rhs


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rhs_matches_the_per_agent_equations_for_an_override_k_w(mode, data):
    # a config gains override may set any k_w, so the weight rates may not
    # lean on k_w = K_u^T K_u: draw a non-symmetric one on a d = 4, p = 2 plant
    designed, _ = plant_gains_and_rhs(mode, 4)
    k_w = np.random.default_rng(data.draw(st.integers(0, 2**16), label="k_w seed")).normal(size=(4, 4))
    assert_rhs_matches_the_per_agent_equations(mode, dataclasses.replace(designed, k_w=k_w), data)


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_run_equals_the_textbook_rk4_loop_over_the_public_rhs(mode, data):
    # 201-260 steps cross one block boundary, where the step's result is
    # carried to the block's first row; leader-follower graphs keep their
    # follower-follower edges at fixed weights.  Each plant size gives the
    # weight block and the (d, d) products their own shapes.
    n, edges, weights = draw_connected_graph(data)
    topology = Topology(n=n, edges=tuple(edges), weights=weights, leader=1 if mode == LEADER_FOLLOWER else None)
    seed = data.draw(st.integers(0, 2**16))
    nsteps = data.draw(st.integers(201, 260), label="steps")
    stride = data.draw(st.integers(1, 60), label="stride")
    dt = 1e-3
    steps = [0] + [k for k in range(1, nsteps + 1) if k % stride == 0 or k == nsteps]
    for d in (1, 2, 4):
        gains, rhs = plant_gains_and_rhs(mode, d)
        x0 = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, d))
        trace = sim.run(SimConfig(x0=x0, t_final=nsteps * dt, dt=dt, sample_stride=stride), gains, topology)
        y0 = np.concatenate((x0.ravel(), trace.weights[0]))
        expected = rk4_loop(rhs, gains, topology, y0, dt, nsteps, stride)
        assert np.array_equal(trace.times, np.array(steps) * dt)
        assert np.array_equal(trace.states, expected[:, : n * d])
        assert np.array_equal(trace.weights, expected[:, n * d : -2])
        assert np.array_equal(np.stack((trace.j_realized, trace.j_bound_integral), axis=1), expected[:, -2:])


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
@pytest.mark.parametrize("d", [1, 2, 4])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_weight_replicas_stay_bit_identical_and_the_doubled_slope_is_exact(mode, d, data):
    # run() holds each weight once per state component: every stage state of
    # a run that crosses a block boundary carries d equal replicas, each the
    # weight the trace records, and the stage derivative that returns twice
    # the slope is exactly twice it
    n, edges, weights = draw_connected_graph(data)
    topology = Topology(n=n, edges=tuple(edges), weights=weights, leader=1 if mode == LEADER_FOLLOWER else None)
    gains, _ = plant_gains_and_rhs(mode, d)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    x0 = rng.uniform(-0.5, 0.5, size=(n, d))
    nsteps = data.draw(st.integers(201, 230), label="steps")
    seen = []
    deriv = sim._Protocol.deriv

    def recording(self, x, w, dx, dw):
        seen.append(w.copy())
        deriv(self, x, w, dx, dw)

    with mock.patch.object(sim._Protocol, "deriv", recording):
        trace = sim.run(SimConfig(x0=x0, t_final=nsteps * 1e-3, dt=1e-3), gains, topology)
    assert len(seen) == 4 * nsteps
    assert all(np.array_equal(w, w[:, :1].repeat(d, axis=1)) for w in seen)
    adaptive = len(trace.adaptive_edges)
    # the first stage of step k reads the state after step k - 1
    assert np.array_equal(np.array(seen[::4])[:, :adaptive, 0], trace.weights[:-1])

    protocol = sim._Protocol(gains, topology, mode)
    y = np.concatenate((x0.ravel(), rng.uniform(0.5, 4.0, size=len(edges)).repeat(d)))
    x, w, _ = protocol.views(y)
    slopes = np.zeros((2, protocol.size))
    (dx, _, dw), (dx2, _, dw2) = map(protocol.views, slopes)
    protocol.deriv(x, w, dx, dw)
    protocol.doubled().deriv(x, w, dx2, dw2)
    assert np.array_equal(slopes[1], 2.0 * slopes[0])
    assert np.abs(slopes[0]).max() > 0.0


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_deriv_operands_are_contiguous_and_of_their_final_shape(mode, d):
    # a strided or broadcast operand costs an elementwise product 2.5-3
    # times a contiguous one on these small arrays
    gains, _ = plant_gains_and_rhs(mode, d)
    # five agents, five edges: in leader-follower mode two adaptive and three fixed
    edges = ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5))
    topology = Topology(n=5, edges=edges, leader=1 if mode == LEADER_FOLLOWER else None)
    n, m, a = 5, 5, 5 if mode == LEADERLESS else 2
    protocol = sim._Protocol(gains, topology, mode)
    x, w, dw = protocol.views(np.zeros((2, protocol.size))[1])  # a row of run()'s state and slope blocks
    for twin in (protocol, protocol.doubled()):
        shapes = {
            "x": (x, (n, d)),
            "w": (w, (m, d)),
            "dw": (dw, (a, d)),
            "incidence": (twin.incidence, (m, n)),
            "diffs": (twin.diffs, (m, d)),
            "bku_t": (twin.bku_t, (d, d)),
            "coupling": (twin.coupling, (m, d)),
            "a_t": (twin.a_t, (d, d)),
            "drift": (twin.drift, (n, d)),
            "stacked": (twin.stacked, (n + m, d)),
            "assembly": (twin.assembly, (n, n + m)),
            "adaptive_diffs": (twin.adaptive_diffs, (a, d)),
            "k_w": (twin.k_w, (d, d)),
            "quad": (twin.quad, (a, d)),
            "ones": (twin.ones, (d, d)),
        }
        for name, (array, shape) in shapes.items():
            assert array.flags.c_contiguous and array.shape == shape, name
        for name, value in vars(twin).items():
            assert not isinstance(value, np.ndarray) or value.flags.c_contiguous, name
