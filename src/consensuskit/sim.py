"""Simulation of the adaptive consensus protocols.

Integrates the coupled agent-state and adaptive-weight dynamics with a
fixed-step fourth-order Runge-Kutta scheme over one flat state vector
``[x.ravel(), w, J, J_bound]``.  The realized quadratic cost and the
trajectory-dependent integral term of the guaranteed-cost bound ride inside
the ODE state as augmented coordinates, so both inherit the integrator's
accuracy order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    "leaderless_rhs",
    "leader_follower_rhs",
    "rk4_step",
    "run",
    "consensus_function",
    "disagreement_norm",
    "guaranteed_cost_bound",
]

DIVERGENCE_LIMIT = 1e9


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
        if self.sample_stride < 1:
            raise ConfigurationError(f"sample_stride must be >= 1, got {self.sample_stride}")


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


class _Protocol:
    """Adaptive coupling over the flat state ``y = [x.ravel(), w, J, J_bound]``.

    Every edge (i, k) couples its agents with weight w_ik through B K_u:
    dx = x A^T - E^T ((w_all * (E x)) (B K_u)^T), with E the signed incidence
    (-1 at i, +1 at k).  Leader-follower mode is the same coupling with the
    leader's row of E^T zeroed, so the leader propagates autonomously, and
    with only the leader edges adaptive; follower edges keep their fixed
    weights in ``w_all``.  The leader is agent 1, so its edges lead the
    canonical edge order.  Only the cost and bound rates depend on the mode.
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
        self.w_all = topology.initial_weight_vector(topology.edges)
        self.w0 = self.w_all[self.adaptive].copy()
        self.a_t = gains.a.T.copy()
        self.bku_t = (gains.b @ gains.k_u).T.copy()
        self.k_w = gains.k_w
        self.q = gains.q
        self.gamma = gains.gamma

    def deriv(self, y: np.ndarray) -> np.ndarray:
        x = y[: self.nd].reshape(self.n, self.d)
        self.w_all[self.adaptive] = y[self.nd : -2]
        diffs = self.incidence @ x
        dx = x @ self.a_t - self.incidence_t @ ((self.w_all[:, None] * diffs) @ self.bku_t)
        adaptive = diffs[self.adaptive]
        dw = ((adaptive @ self.k_w) * adaptive).sum(axis=1)
        # ordered-pair differences keep the cost rates exactly zero at
        # consensus (mean-deviation forms leave rounding residue)
        if self.mode == LEADERLESS:
            pairs = (x[None, :, :] - x[:, None, :]).reshape(-1, self.d)
            dj = float(((pairs @ self.q) * pairs).sum()) / self.n
            djb = self.gamma * float(((pairs @ self.k_w) * pairs).sum()) / (2.0 * self.n)
        else:
            xf = x[1:]
            pairs = (xf[None, :, :] - xf[:, None, :]).reshape(-1, self.d)
            dj = float(((adaptive @ self.q) * adaptive).sum())
            dj += float(((pairs @ self.q) * pairs).sum()) / (self.n - 1)
            xi = xf - x[0]
            djb = self.gamma * float(((xi @ self.k_w) * xi).sum())
        return np.concatenate((dx.ravel(), dw, (dj, djb)))

    def rhs(self, state: SimState) -> SimState:
        y = np.concatenate((np.ravel(state.x), state.w, (state.j_realized, state.j_bound_integral)))
        dy = self.deriv(y)
        return SimState(
            t=1.0, x=dy[: self.nd], w=dy[self.nd : -2], j_realized=float(dy[-2]), j_bound_integral=float(dy[-1])
        )


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


def rk4_step(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of dy/dt = f(y) over a flat state vector."""
    k1 = f(y)
    k2 = f(y + (0.5 * dt) * k1)
    k3 = f(y + (0.5 * dt) * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def run(config: SimConfig, gains: GainSet, topology: Topology) -> Trace:
    """Integrate a full run and return the sampled Trace.

    Aborts with DivergenceError when any agent state or adaptive weight
    exceeds the divergence guard in magnitude.  The trace always contains the
    initial and final samples.
    """
    protocol = _Protocol(gains, topology, gains.mode)
    if gains.mode == LEADERLESS and not graph.is_connected(topology):
        raise ConfigurationError("leaderless mode requires a connected topology")
    if gains.mode == LEADER_FOLLOWER and not graph.is_leader_reachable(topology):
        raise ConfigurationError("every follower needs an undirected path to the leader")
    n, d, nd = protocol.n, protocol.d, protocol.nd
    x0 = config.x0
    if x0.shape != (n, d):
        raise ConfigurationError(f"x0 has shape {x0.shape}, expected ({n}, {d})")
    nsteps = horizon_steps(config.t_final, config.dt)
    dt = config.dt

    y = np.concatenate((x0.ravel(), protocol.w0, (0.0, 0.0)))
    times = [0.0]
    samples = [y]
    for step in range(1, nsteps + 1):
        y = rk4_step(protocol.deriv, y, dt)
        magnitude = float(np.abs(y[:-2]).max())
        if not math.isfinite(magnitude) or magnitude > DIVERGENCE_LIMIT:
            raise DivergenceError(time=step * dt, magnitude=magnitude)
        if step % config.sample_stride == 0 or step == nsteps:
            times.append(step * dt)
            samples.append(y)

    history = np.array(samples)
    states = history[:, :nd].copy()
    x = states.reshape(-1, n, d)
    # per-sample disagreement (leaderless) or follower-to-leader errors
    dev = x - x.mean(axis=1, keepdims=True) if gains.mode == LEADERLESS else x[:, 1:] - x[:, :1]
    return Trace(
        mode=gains.mode,
        n=n,
        d=d,
        adaptive_edges=protocol.adaptive_edges,
        times=np.array(times),
        states=states,
        weights=history[:, nd:-2].copy(),
        j_realized=history[:, -2].copy(),
        j_bound_integral=history[:, -1].copy(),
        eta_norm=np.sqrt((dev * dev).reshape(len(dev), -1).sum(axis=1)),
    )


def consensus_function(a, initial_states, t: float) -> np.ndarray:
    """Consensus trajectory e^{A t} applied to the average initial state."""
    a = matops.as_matrix(a, "a")
    x0 = matops.as_matrix(initial_states, "initial_states")
    return matops.matrix_exp(a * t) @ x0.mean(axis=0)


def disagreement_norm(x, n: int, d: int) -> float:
    """Norm of the projection of the stacked state onto the disagreement subspace."""
    arr = np.asarray(x, dtype=float).reshape(n, d)
    dev = arr - arr.mean(axis=0)
    return math.sqrt(float((dev * dev).sum()))


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
