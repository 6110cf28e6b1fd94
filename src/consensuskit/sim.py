"""Simulation of the adaptive consensus protocols.

Integrates the coupled agent-state and adaptive-weight dynamics with a
fixed-step fourth-order Runge-Kutta scheme over one flat state vector
``[x.ravel(), w]``.  ``run`` is the only RK4; it writes the stage states in
place into a preallocated block of rows.  The realized cost J and the
integral term J_bound of the guaranteed-cost bound never feed back into x or
w: once per block of steps, one batched pass evaluates both rates at every
stored stage state.  Each step adds (dt/6)(r1 + 2 r2 + 2 r3 + r4), summed in
step order, which is the arithmetic of RK4 over J and J_bound as augmented
coordinates, so both keep the integrator's accuracy order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import graph, matops
from .graph import Topology
from .synthesis import GainSet, LEADERLESS, LEADER_FOLLOWER

__all__ = [
    "SimulationError",
    "ConfigurationError",
    "DivergenceError",
    "DIVERGENCE_LIMIT",
    "SimConfig",
    "SimState",
    "Trace",
    "horizon_steps",
    "adaptive_edges",
    "check_connected",
    "leaderless_rhs",
    "leader_follower_rhs",
    "run",
    "consensus_function",
    "guaranteed_cost_bound",
]

DIVERGENCE_LIMIT = 1e9
# RK4 steps per batched rate pass, and the most elements of one rate temporary
_BLOCK_STEPS = 200
_RATE_CHUNK = 1 << 15


class SimulationError(Exception):
    """Base class for simulation failures."""


class ConfigurationError(SimulationError):
    """Run setup is inconsistent (mode, topology, or dimensions)."""


class DivergenceError(SimulationError):
    """State magnitude exceeded the divergence guard during integration."""

    def __init__(self, time: float, magnitude: float):
        self.time = time
        self.magnitude = magnitude
        super().__init__(f"state magnitude {magnitude:.3e} exceeded {DIVERGENCE_LIMIT:.0e} at t={time:.6f}")


def horizon_steps(t_final: float, dt: float) -> int:
    """Number of dt steps spanning [0, t_final].

    Raises ConfigurationError unless t_final is a positive whole multiple of
    dt to 1e-9 relative, so a horizon is never silently rounded.
    """
    ratio = t_final / dt
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < 1 or abs(ratio - steps) > 1e-9 * ratio:
        raise ConfigurationError(f"t_final {t_final!r} is not a positive whole multiple of dt {dt!r}")
    return steps


@dataclass(frozen=True)
class SimConfig:
    """Integration settings and initial conditions.

    ``x0`` holds one row of length d per agent.  ``sample_stride`` decimates
    the recorded trace; the final step is always recorded.
    """

    x0: np.ndarray
    t_final: float
    dt: float = 1e-3
    sample_stride: int = 1

    def __post_init__(self):
        x0 = matops.as_matrix(self.x0, "x0")
        object.__setattr__(self, "x0", x0)
        if not self.dt > 0.0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        horizon_steps(self.t_final, self.dt)
        stride = self.sample_stride
        if isinstance(stride, bool) or not hasattr(type(stride), "__index__") or operator.index(stride) < 1:
            raise ConfigurationError(f"sample_stride must be an integer >= 1, got {stride!r}")
        object.__setattr__(self, "sample_stride", operator.index(stride))


@dataclass(frozen=True)
class SimState:
    """Instantaneous simulation state (also used for state derivatives).

    ``x`` is the stacked agent state of length n*d with agent i occupying
    block i; ``w`` holds the adaptive weights in canonical edge order.
    """

    t: float
    x: np.ndarray
    w: np.ndarray
    j_realized: float
    j_bound_integral: float


@dataclass(frozen=True)
class Trace:
    """Sampled simulation history: what the integrator produced.

    ``states[0]`` is x(0).  ``eta_norm`` is the disagreement norm
    (leaderless) or the norm of the stacked follower-to-leader errors
    (leader-follower).
    """

    mode: str
    n: int
    d: int
    adaptive_edges: tuple[tuple[int, int], ...]
    times: np.ndarray
    states: np.ndarray
    weights: np.ndarray
    j_realized: np.ndarray
    j_bound_integral: np.ndarray
    eta_norm: np.ndarray

    def final_state(self) -> SimState:
        return SimState(
            t=float(self.times[-1]),
            x=self.states[-1].copy(),
            w=self.weights[-1].copy(),
            j_realized=float(self.j_realized[-1]),
            j_bound_integral=float(self.j_bound_integral[-1]),
        )


def adaptive_edges(topology: Topology, mode: str) -> tuple[tuple[int, int], ...]:
    """Edges whose weights adapt: every edge (leaderless) or the leader's edges."""
    if mode == LEADERLESS:
        return topology.edges
    if topology.leader is None:
        raise ConfigurationError("leader-follower mode requires a designated leader")
    if topology.leader != 1:
        raise ConfigurationError("the leader must be agent 1")
    return topology.leader_edges()


def check_connected(topology: Topology, mode: str) -> None:
    """Raise ConfigurationError unless the graph links every agent as the mode needs."""
    if mode == LEADERLESS and not graph.is_connected(topology):
        raise ConfigurationError("leaderless mode requires a connected topology")
    if mode == LEADER_FOLLOWER and not graph.is_leader_reachable(topology):
        raise ConfigurationError("every follower needs an undirected path to the leader")


def _quad_sums(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Sum of the quadratic forms v_i^T m v_i over the rows of each stacked v."""
    return ((v @ m) * v).sum(axis=(1, 2))


class _Protocol:
    """Adaptive coupling over the flat state ``y = [x.ravel(), w]``.

    Every edge (i, k) couples its agents with weight w_ik through B K_u:
    dx = x A^T - E^T ((w_all * (E x)) (B K_u)^T), with E the signed incidence
    (-1 at i, +1 at k).  Leader-follower mode is the same coupling with the
    leader's row of E^T zeroed, so the leader propagates autonomously, and
    with only the leader edges adaptive; follower edges keep their fixed
    weights in ``w_all``.  The leader is agent 1, so its edges lead the
    canonical edge order.  ``deriv`` writes dx and dw into a caller's buffer
    through preallocated scratch, with ``ndarray.dot`` on 2-D operands, which
    costs a third of ``@`` on such small arrays.  ``rates`` gives the cost and
    bound rates of a stack of agent states; only they depend on the mode.
    """

    def __init__(self, gains: GainSet, topology: Topology, mode: str):
        if gains.mode != mode:
            raise ConfigurationError(f"gains are for mode {gains.mode!r}, expected {mode!r}")
        self.mode = mode
        self.n = topology.n
        self.d = gains.state_dim
        self.nd = self.n * self.d
        self.adaptive_edges = adaptive_edges(topology, mode)
        self.adaptive = slice(0, len(self.adaptive_edges))
        self.incidence = np.zeros((len(topology.edges), self.n))
        for row, (i, k) in enumerate(topology.edges):
            self.incidence[row, i - 1] = -1.0
            self.incidence[row, k - 1] = 1.0
        self.incidence_t = self.incidence.T.copy()
        if mode == LEADER_FOLLOWER:
            self.incidence_t[0] = 0.0
            # follower rows (agent k - 2) of the leader edges (1, k), in edge order
            self.pinned = np.array([k - 2 for _, k in self.adaptive_edges], dtype=int)
        self.w_all = topology.initial_weight_vector(topology.edges)
        self.w_col = self.w_all[:, None]
        self.w0 = self.w_all[self.adaptive].copy()
        self.size = self.nd + len(self.w0)
        self.a_t = gains.a.T.copy()
        self.bku_t = (gains.b @ gains.k_u).T.copy()
        self.k_w = gains.k_w
        self.q = gains.q
        self.gamma = gains.gamma
        self.diffs, self.weighted, self.coupling = np.empty((3, len(topology.edges), self.d))
        self.pull = np.empty((self.n, self.d))
        self.quad = np.empty((len(self.w0), self.d))

    def deriv(self, y: np.ndarray, out: np.ndarray) -> None:
        """Write dy/dt = [dx.ravel(), dw] at y into out, a C-contiguous vector."""
        x = y[: self.nd].reshape(self.n, self.d)
        self.w_all[self.adaptive] = y[self.nd :]
        diffs = self.incidence.dot(x, self.diffs)
        np.multiply(self.w_col, diffs, self.weighted)
        self.weighted.dot(self.bku_t, self.coupling)
        self.incidence_t.dot(self.coupling, self.pull)
        dx = x.dot(self.a_t, out[: self.nd].reshape(self.n, self.d))
        np.subtract(dx, self.pull, dx)
        adaptive = diffs[self.adaptive]
        quad = adaptive.dot(self.k_w, self.quad)
        np.multiply(quad, adaptive, quad)
        np.add.reduce(quad, 1, None, out[self.nd :])

    def rates(self, x: np.ndarray) -> np.ndarray:
        """Rows (dJ, dJ_bound) for each agent state of the stack x, shape (m, n, d)."""
        per = max(1, _RATE_CHUNK // (self.n * self.n * self.d))
        if len(x) > per:  # bound the all-pairs temporaries of wide networks
            return np.concatenate([self.rates(x[lo : lo + per]) for lo in range(0, len(x), per)])
        # ordered-pair differences keep the cost rates exactly zero at
        # consensus (mean-deviation forms leave rounding residue)
        if self.mode == LEADERLESS:
            pairs = (x[:, None] - x[:, :, None]).reshape(len(x), -1, self.d)
            dj = _quad_sums(pairs, self.q) / self.n
            djb = self.gamma * _quad_sums(pairs, self.k_w) / (2.0 * self.n)
        else:
            xf = x[:, 1:]
            pairs = (xf[:, None] - xf[:, :, None]).reshape(len(x), -1, self.d)
            xi = xf - x[:, :1]
            dj = _quad_sums(xi[:, self.pinned], self.q) + _quad_sums(pairs, self.q) / (self.n - 1)
            djb = self.gamma * _quad_sums(xi, self.k_w)
        return np.stack((dj, djb), axis=1)

    def rhs(self, state: SimState) -> SimState:
        dy = np.empty(self.size)
        self.deriv(np.concatenate((np.ravel(state.x), state.w)), dy)
        dj, djb = self.rates(np.reshape(state.x, (1, self.n, self.d)))[0]
        return SimState(t=1.0, x=dy[: self.nd], w=dy[self.nd :], j_realized=float(dj), j_bound_integral=float(djb))


def leaderless_rhs(state: SimState, gains: GainSet, topology: Topology) -> SimState:
    """Time derivative of the leaderless protocol state.

    Agent blocks receive A x_i + B K_u sum_k w_ik (x_k - x_i); each edge
    weight receives its error quadratic form; the cost coordinate receives
    the all-pairs quadratic cost rate and the bound coordinate receives the
    translated disagreement quadratic form.
    """
    return _Protocol(gains, topology, LEADERLESS).rhs(state)


def leader_follower_rhs(state: SimState, gains: GainSet, topology: Topology) -> SimState:
    """Time derivative of the leader-follower protocol state.

    The leaderless coupling with the leader's input removed: the leader
    propagates autonomously, followers combine the adaptively weighted leader
    coupling with fixed-weight follower coupling, and only leader-incident
    edge weights adapt.
    """
    return _Protocol(gains, topology, LEADER_FOLLOWER).rhs(state)


def run(config: SimConfig, gains: GainSet, topology: Topology) -> Trace:
    """Integrate a full run and return the sampled Trace.

    Aborts with DivergenceError when any agent state or adaptive weight
    exceeds the divergence guard in magnitude.  The trace always contains the
    initial and final samples.
    """
    protocol = _Protocol(gains, topology, gains.mode)
    check_connected(topology, gains.mode)
    n, d, nd = protocol.n, protocol.d, protocol.nd
    x0 = config.x0
    if x0.shape != (n, d):
        raise ConfigurationError(f"x0 has shape {x0.shape}, expected ({n}, {d})")
    nsteps = horizon_steps(config.t_final, config.dt)
    dt, stride = config.dt, config.sample_stride

    # rows 4k .. 4k + 3: the stage states of the block's step k; row 4k + 4: its result
    block = np.empty((4 * _BLOCK_STEPS + 1, protocol.size))
    rows = list(block)
    k1, k2, k3, k4 = slopes = np.empty((4, protocol.size))
    chain = tuple(zip(slopes[:3], (0.5 * dt, 0.5 * dt, dt), slopes[1:]))  # stage s + 1 is y + h_s k_s
    history = np.empty((nsteps // stride + 1 + (nsteps % stride > 0), protocol.size))
    history[0] = block[0] = np.concatenate((x0.ravel(), protocol.w0))
    sample_steps = [0]
    costs = [np.zeros((1, 2))]  # (J, J_bound) at the samples, one array per block
    totals = np.zeros((1, 2))  # totals[-1] holds (J, J_bound) after step `base`
    sampled = []  # rows of the next block's totals that are samples
    base = top = 0  # the current step starts from row `top`
    for step in range(1, nsteps + 1):
        y, y_next = rows[top], rows[top + 4]
        protocol.deriv(y, k1)
        for stage, (k, h, k_next) in zip(rows[top + 1 : top + 4], chain):
            np.multiply(k, h, stage)
            stage += y
            protocol.deriv(stage, k_next)
        # y + (dt/6)(k1 + 2 k2 + 2 k3 + k4) in the textbook's order of operations, which fixes the bits
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= dt / 6.0
        np.add(y, k2, y_next)
        magnitude = float(np.abs(y_next).max())
        if not math.isfinite(magnitude) or magnitude > DIVERGENCE_LIMIT:
            raise DivergenceError(time=step * dt, magnitude=magnitude)
        if step % stride == 0 or step == nsteps:
            history[len(sample_steps)] = y_next
            sample_steps.append(step)
            sampled.append(step - base)
        top += 4
        if top == 4 * _BLOCK_STEPS or step == nsteps:
            r = protocol.rates(block[:top, :nd].reshape(-1, n, d)).reshape(-1, 4, 2)
            increments = (dt / 6.0) * (r[:, 0] + 2.0 * r[:, 1] + 2.0 * r[:, 2] + r[:, 3])
            # row k: (J, J_bound) after step base + k, summed in step order
            totals = np.cumsum(np.concatenate((totals[-1:], increments)), axis=0)
            costs.append(totals[sampled])
            block[0] = y_next
            base, sampled, top = step, [], 0

    costs = np.concatenate(costs)
    states = history[:, :nd].copy()
    x = states.reshape(-1, n, d)
    # per-sample disagreement (leaderless) or follower-to-leader errors
    dev = x - x.mean(axis=1, keepdims=True) if gains.mode == LEADERLESS else x[:, 1:] - x[:, :1]
    return Trace(
        mode=gains.mode,
        n=n,
        d=d,
        adaptive_edges=protocol.adaptive_edges,
        times=np.array(sample_steps) * dt,
        states=states,
        weights=history[:, nd:].copy(),
        j_realized=costs[:, 0].copy(),
        j_bound_integral=costs[:, 1].copy(),
        eta_norm=np.sqrt((dev * dev).reshape(len(dev), -1).sum(axis=1)),
    )


def consensus_function(a, initial_states, t: float) -> np.ndarray:
    """Consensus trajectory e^{A t} applied to the average initial state."""
    a = matops.as_matrix(a, "a")
    x0 = matops.as_matrix(initial_states, "initial_states")
    return matops.matrix_exp(a * t) @ x0.mean(axis=0)


def guaranteed_cost_bound(trace: Trace, gains: GainSet) -> float:
    """Guaranteed cost bound: initial quadratic form plus the bound integral.

    Leaderless runs use the disagreement-projector quadratic form of the
    certificate at x(0) = ``states[0]``; leader-follower runs use the
    star-coupling quadratic form, which equals the sum of follower-error
    quadratic forms.
    """
    x0 = trace.states[0].reshape(trace.n, trace.d)
    if gains.mode == LEADERLESS:
        pairs = (x0[None, :, :] - x0[:, None, :]).reshape(-1, trace.d)
        quad = float(((pairs @ gains.certificate) * pairs).sum()) / (2.0 * trace.n)
    else:
        xi0 = x0[1:] - x0[0]
        quad = float(((xi0 @ gains.certificate) * xi0).sum())
    return quad + float(trace.j_bound_integral[-1])
