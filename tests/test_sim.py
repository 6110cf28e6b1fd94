import math

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from consensuskit import graph, matops, sim, synthesis, verify
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


def augmented_rhs(rhs, gains, topology):
    """dy/dt over y = [x, w, J, J_bound] from the public rhs, J and J_bound as ODE coordinates."""
    nd = topology.n * gains.state_dim

    def f(y):
        state = SimState(t=0.0, x=y[:nd], w=y[nd:-2], j_realized=y[-2], j_bound_integral=y[-1])
        dy = rhs(state, gains, topology)
        return np.concatenate((dy.x, dy.w, (dy.j_realized, dy.j_bound_integral)))

    return f


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
    stepped = sim.rk4_step(augmented_rhs(rhs, gains, topology), np.concatenate((x0.ravel(), w0, (0.0, 0.0))), dt)
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
    # With six agents one block's rate pass is split into several slices.
    edges = ((1, 2), (1, 3), (1, 4), (2, 3), (3, 5), (4, 6), (5, 6))
    if mode == LEADERLESS:
        gains, rhs, topology = leaderless_gains(), sim.leaderless_rhs, Topology(n=6, edges=edges)
    else:
        gains = synthesis.design_leader_follower(A1, B1, Q1, 1.0)
        rhs, topology = sim.leader_follower_rhs, Topology(n=6, edges=edges, leader=1)
    x0 = np.random.default_rng(43).uniform(-0.25, 0.25, size=(6, 2))
    dt, stride, nsteps = 1e-3, 7, 537
    trace = sim.run(SimConfig(x0=x0, t_final=nsteps * dt, dt=dt, sample_stride=stride), gains, topology)

    f = augmented_rhs(rhs, gains, topology)
    y = np.concatenate((x0.ravel(), trace.weights[0], (0.0, 0.0)))
    expected = [y]
    for step in range(1, nsteps + 1):
        y = sim.rk4_step(f, y, dt)
        if step % stride == 0 or step == nsteps:
            expected.append(y)
    expected = np.array(expected)
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
    proj = graph.disagreement_projector(5)
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
