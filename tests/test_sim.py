import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from consensuskit import graph, matops, sim, synthesis
from consensuskit.graph import Topology
from consensuskit.sim import SimConfig, SimState
from consensuskit.synthesis import LEADERLESS, LEADER_FOLLOWER, GainSet

A1 = np.array([[0.0, 1.0], [-100.0, 0.0]])
B1 = np.array([[0.0], [1.0]])
Q1 = np.diag([1.0, 2.0])


def leaderless_gains(gamma=2.0):
    return synthesis.design_leaderless(A1, B1, Q1, gamma)


def scalar_gains(gamma=2.0):
    # a = 0, b = 1, q = 1: certificate p = sqrt(2 / gamma)
    return synthesis.design_leaderless([[0.0]], [[1.0]], [[1.0]], gamma)


# ---------------------------------------------------------------- SimConfig


def test_sim_config_validation():
    with pytest.raises(sim.ConfigurationError):
        SimConfig(x0=np.zeros((2, 1)), t_final=1.0, dt=0.0)
    with pytest.raises(sim.ConfigurationError):
        SimConfig(x0=np.zeros((2, 1)), t_final=1e-4, dt=1e-3)
    with pytest.raises(sim.ConfigurationError):
        SimConfig(x0=np.zeros((2, 1)), t_final=1.0, sample_stride=0)


def test_sim_config_rejects_horizon_off_the_dt_grid():
    with pytest.raises(sim.ConfigurationError, match="t_final"):
        SimConfig(x0=np.zeros((2, 1)), t_final=1.0005, dt=1e-3)
    # 3.0 / 1e-3 = 2999.9999999999995 is a whole multiple up to rounding
    assert sim.horizon_steps(3.0, 1e-3) == 3000
    assert sim.horizon_steps(0.055, 1e-3) == 55


# -------------------------------------------------------------- leaderless


def test_leaderless_rhs_matches_explicit_neighbor_sums():
    gains = leaderless_gains()
    topology = Topology(n=4, edges=((1, 2), (2, 3), (3, 4), (1, 4), (1, 3)))
    rng = np.random.default_rng(17)
    x = rng.normal(size=(4, 2))
    w = rng.uniform(0.5, 2.0, size=len(topology.edges))
    state = SimState(t=0.0, x=x.ravel(), w=w.copy(), j_realized=0.0, j_bound_integral=0.0)
    deriv = sim.leaderless_rhs(state, gains, topology)

    weight_of = dict(zip(topology.edges, w))
    k_u = gains.k_u
    b = gains.b
    dx_expected = np.zeros_like(x)
    for i in range(1, 5):
        u_i = np.zeros(1)
        for k in topology.neighbors(i):
            w_ik = weight_of[graph.canonical_edge(i, k)]
            u_i = u_i + w_ik * (k_u @ (x[k - 1] - x[i - 1]))
        dx_expected[i - 1] = A1 @ x[i - 1] + (b @ u_i)
    assert np.abs(deriv.x.reshape(4, 2) - dx_expected).max() < 1e-12

    for row, (i, k) in enumerate(topology.edges):
        diff = x[k - 1] - x[i - 1]
        assert abs(deriv.w[row] - diff @ gains.k_w @ diff) < 1e-12

    # realized-cost rate: ordered pairs over all agents with 1/N prefactor
    dj_expected = 0.0
    for i in range(4):
        for k in range(4):
            diff = x[k] - x[i]
            dj_expected += diff @ Q1 @ diff
    dj_expected /= 4.0
    assert abs(deriv.j_realized - dj_expected) < 1e-12

    # bound-integrand rate: gamma times the disagreement quadratic form
    dev = x - x.mean(axis=0)
    djb_expected = gains.gamma * sum(dev[i] @ gains.k_w @ dev[i] for i in range(4))
    assert abs(deriv.j_bound_integral - djb_expected) < 1e-12


def test_leaderless_rhs_zero_disagreement():
    gains = leaderless_gains()
    topology = graph.complete_topology(3)
    x = np.tile([0.3, -0.7], (3, 1))
    state = SimState(t=0.0, x=x.ravel(), w=np.ones(3), j_realized=0.0, j_bound_integral=0.0)
    deriv = sim.leaderless_rhs(state, gains, topology)
    assert np.abs(deriv.w).max() == 0.0
    assert deriv.j_realized == 0.0
    assert deriv.j_bound_integral == 0.0
    assert np.abs(deriv.x.reshape(3, 2) - x @ A1.T).max() == 0.0


def test_leaderless_rhs_rejects_leader_follower_gains():
    gains = synthesis.design_leader_follower([[0.0]], [[1.0]], [[1.0]], 1.0)
    topology = graph.complete_topology(3)
    state = SimState(t=0.0, x=np.zeros(3), w=np.ones(3), j_realized=0.0, j_bound_integral=0.0)
    with pytest.raises(sim.ConfigurationError):
        sim.leaderless_rhs(state, gains, topology)


# ----------------------------------------------------------- leader-follower


def lf_topology():
    return Topology(n=4, edges=((1, 2), (1, 3), (2, 3), (3, 4)), leader=1)


def test_leader_follower_rhs_matches_explicit_form():
    gains = synthesis.design_leader_follower(A1, B1, Q1, 1.0)
    topology = lf_topology()
    rng = np.random.default_rng(23)
    x = rng.normal(size=(4, 2))
    w = rng.uniform(0.5, 2.0, size=2)  # leader edges (1,2), (1,3)
    state = SimState(t=0.0, x=x.ravel(), w=w.copy(), j_realized=0.0, j_bound_integral=0.0)
    deriv = sim.leader_follower_rhs(state, gains, topology)
    dx = deriv.x.reshape(4, 2)

    # the leader is autonomous
    assert np.abs(dx[0] - A1 @ x[0]).max() < 1e-12

    k_u = gains.k_u
    b = gains.b
    pinned = {2: w[0], 3: w[1]}
    ff_weights = topology.weights
    for i in (2, 3, 4):
        u_i = np.zeros(1)
        if i in pinned:
            u_i = u_i + pinned[i] * (k_u @ (x[0] - x[i - 1]))
        for k in topology.neighbors(i):
            if k == 1:
                continue
            w_ik = ff_weights[graph.canonical_edge(i, k)]
            u_i = u_i + w_ik * (k_u @ (x[k - 1] - x[i - 1]))
        expected = A1 @ x[i - 1] + (b @ u_i)
        assert np.abs(dx[i - 1] - expected).max() < 1e-12

    # only pinned-edge weights adapt, driven by the leader error
    for row, follower in enumerate((2, 3)):
        xi = x[follower - 1] - x[0]
        assert abs(deriv.w[row] - xi @ gains.k_w @ xi) < 1e-12

    # cost rate: pinned leader errors plus follower pairs at 1/(N-1)
    dj_expected = 0.0
    for follower in (2, 3):
        xi = x[0] - x[follower - 1]
        dj_expected += xi @ Q1 @ xi
    for i in range(1, 4):
        for k in range(1, 4):
            diff = x[k] - x[i]
            dj_expected += (diff @ Q1 @ diff) / 3.0
    assert abs(deriv.j_realized - dj_expected) < 1e-12

    # bound integrand runs over every follower error
    djb_expected = gains.gamma * sum(
        (x[i] - x[0]) @ gains.k_w @ (x[i] - x[0]) for i in range(1, 4)
    )
    assert abs(deriv.j_bound_integral - djb_expected) < 1e-12


def test_leader_follower_requires_leader_one():
    gains = synthesis.design_leader_follower([[0.0]], [[1.0]], [[1.0]], 1.0)
    topology = Topology(n=3, edges=((1, 2), (2, 3)), leader=2)
    state = SimState(t=0.0, x=np.zeros(3), w=np.ones(1), j_realized=0.0, j_bound_integral=0.0)
    with pytest.raises(sim.ConfigurationError):
        sim.leader_follower_rhs(state, gains, topology)


# ----------------------------------------------------------------- rk4_step


def test_rk4_step_fifth_order_local_error():
    # dy/dt = y has exact solution e^t; one RK4 step reproduces the Taylor
    # polynomial through fourth order.  Component 0 is the clock t.
    def rhs(y):
        return np.concatenate(([1.0], y[1:]))

    dt = 0.1
    stepped = sim.rk4_step(rhs, np.array([0.0, 1.0, 1.0, 1.0, 1.0]), dt)
    taylor = 1.0 + dt + dt**2 / 2 + dt**3 / 6 + dt**4 / 24
    assert stepped[0] == pytest.approx(dt)
    assert stepped[1] == pytest.approx(taylor, abs=1e-15)
    assert abs(stepped[1] - math.exp(dt)) < 1e-7
    assert stepped[2] == pytest.approx(taylor, abs=1e-15)
    assert stepped[3] == pytest.approx(taylor, abs=1e-15)


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
def test_run_step_is_rk4_step_over_public_rhs(mode):
    # run() and analyze() share one derivative: a one-step run equals one
    # rk4_step over the public rhs, bit for bit
    if mode == LEADERLESS:
        gains, rhs = leaderless_gains(), sim.leaderless_rhs
        topology = Topology(n=4, edges=((1, 2), (2, 3), (3, 4), (1, 4), (1, 3)))
    else:
        gains, rhs = synthesis.design_leader_follower(A1, B1, Q1, 1.0), sim.leader_follower_rhs
        topology = lf_topology()
    x0 = np.random.default_rng(41).uniform(-0.25, 0.25, size=(4, 2))
    dt = 1e-3
    trace = sim.run(SimConfig(x0=x0, t_final=dt, dt=dt), gains, topology)
    w0 = trace.weights[0]

    def f(y):
        state = SimState(t=0.0, x=y[:8], w=y[8:-2], j_realized=y[-2], j_bound_integral=y[-1])
        dy = rhs(state, gains, topology)
        return np.concatenate((dy.x, dy.w, (dy.j_realized, dy.j_bound_integral)))

    stepped = sim.rk4_step(f, np.concatenate((x0.ravel(), w0, (0.0, 0.0))), dt)
    assert np.array_equal(trace.states[1], stepped[:8])
    assert np.array_equal(trace.weights[1], stepped[8:-2])
    assert trace.j_realized[1] == stepped[-2]
    assert trace.j_bound_integral[1] == stepped[-1]


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
    assert trace.x0.shape == (2, 1)


def test_run_mode_mismatch_and_shape_errors():
    gains = scalar_gains()
    topology = Topology(n=2, edges=((1, 2),))
    config = SimConfig(x0=np.zeros((2, 1)), t_final=1.0)
    with pytest.raises(sim.ConfigurationError):
        sim.run(config, gains, topology, mode=LEADER_FOLLOWER)
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


def test_run_leader_follower_smoke():
    gains = synthesis.design_leader_follower(A1, B1, Q1, 1.0)
    topology = graph.star_topology(4, weight=3.0, leader=1)
    rng = np.random.default_rng(9)
    config = SimConfig(x0=rng.uniform(-0.25, 0.25, size=(4, 2)), t_final=3.0, dt=1e-3, sample_stride=10)
    trace = sim.run(config, gains, topology)
    assert trace.mode == LEADER_FOLLOWER
    assert trace.adaptive_edges == ((1, 2), (1, 3), (1, 4))
    # followers converge to the leader trajectory
    assert trace.eta_norm[-1] < 1e-2 * (trace.eta_norm[0] + 1.0)
    # the reference column tracks the leader state
    assert np.abs(trace.reference - trace.states[:, :2]).max() == 0.0
    # follower-follower edges keep no adaptive state
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


def test_run_leaderless_reference_is_consensus_function():
    gains = leaderless_gains()
    topology = graph.complete_topology(3, weight=4.0)
    rng = np.random.default_rng(31)
    x0 = rng.uniform(-0.25, 0.25, size=(3, 2))
    config = SimConfig(x0=x0, t_final=1.0, dt=1e-3, sample_stride=100)
    trace = sim.run(config, gains, topology)
    for idx, t in enumerate(trace.times):
        expected = sim.consensus_function(A1, x0, float(t))
        assert np.abs(trace.reference[idx] - expected).max() < 1e-9


PLANTS = {"example-1": A1, "example-2": np.array(
    [[1.0, 1.0, 0.0, 0.0], [-30.0, -12.5, 30.0, 0.0], [0.0, 0.5, 0.0, 1.0], [16.0, 0.0, -16.0, 0.0]]
)}


@settings(max_examples=40, deadline=None)
@given(
    plant=st.sampled_from(sorted(PLANTS)),
    dt=st.sampled_from([1e-3, 2.5e-3, 1e-2]),
    nsteps=st.integers(0, 1500),
    stride=st.integers(1, 400),
    seed=st.integers(0, 2**16),
)
@example(plant="example-1", dt=1e-3, nsteps=1000, stride=1, seed=0)
@example(plant="example-2", dt=1e-3, nsteps=1003, stride=10, seed=1)  # off-stride final sample
@example(plant="example-2", dt=1e-3, nsteps=0, stride=1, seed=2)  # 1-sample trace
def test_reference_trajectory_matches_consensus_function(plant, dt, nsteps, stride, seed):
    # sample times exactly as run() records them
    a = PLANTS[plant]
    d = len(a)
    steps = [s for s in range(nsteps + 1) if s % stride == 0 or s == nsteps]
    times = np.array([s * dt for s in steps])
    states = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(len(times), 3 * d))
    reference = sim.reference_trajectory(LEADERLESS, a, times, states)
    x0 = states[0].reshape(3, d)
    assert reference.shape == (len(times), d)
    for idx, t in enumerate(times):
        expected = sim.consensus_function(a, x0, float(t))
        assert np.linalg.norm(reference[idx] - expected) <= 1e-9 * np.linalg.norm(expected)


def test_run_leaderless_reference_needs_one_matrix_exp_per_spacing(monkeypatch):
    calls = []
    original = matops.matrix_exp

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(matops, "matrix_exp", counting)
    x0 = np.random.default_rng(3).uniform(-0.25, 0.25, size=(3, 2))
    trace = sim.run(SimConfig(x0=x0, t_final=1.0, dt=1e-3), leaderless_gains(), graph.complete_topology(3))
    assert len(trace.times) == 1001
    assert len(calls) <= len(set(np.diff(trace.times).tolist())) + 1


# ------------------------------------------------------- support functions


def test_consensus_function_oscillator_half_period():
    x0 = np.array([[1.0, 0.2], [0.5, -0.4]])
    value = sim.consensus_function(A1, x0, math.pi / 10.0)
    assert np.abs(value + x0.mean(axis=0)).max() < 1e-9


def test_disagreement_norm_matches_projector():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 3))
    proj = graph.disagreement_projector(5)
    stacked = proj @ x
    expected = math.sqrt(float((stacked * stacked).sum()))
    assert abs(sim.disagreement_norm(x.ravel(), 5, 3) - expected) < 1e-12


def test_guaranteed_cost_bound_zero_disagreement():
    gains = leaderless_gains()
    topology = graph.complete_topology(3)
    x0 = np.tile([0.4, -0.1], (3, 1))
    config = SimConfig(x0=x0, t_final=0.5, dt=1e-3, sample_stride=10)
    trace = sim.run(config, gains, topology)
    warnings = []
    bound = sim.guaranteed_cost_bound(trace, gains, warnings_out=warnings)
    assert bound == 0.0
    assert trace.j_realized[-1] == 0.0
    assert warnings == []


def test_guaranteed_cost_bound_flags_short_horizon():
    gains = leaderless_gains()
    topology = graph.complete_topology(3, weight=4.0)
    rng = np.random.default_rng(8)
    config = SimConfig(x0=rng.uniform(-0.25, 0.25, size=(3, 2)), t_final=0.05, dt=1e-3)
    trace = sim.run(config, gains, topology)
    warnings = []
    bound = sim.guaranteed_cost_bound(trace, gains, warnings_out=warnings)
    assert bound > trace.j_realized[-1]
    assert len(warnings) == 1 and "horizon too short" in warnings[0]


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
