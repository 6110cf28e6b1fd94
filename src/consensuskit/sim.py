"""Simulation of the adaptive consensus protocols.

Integrates the coupled agent-state and edge-weight dynamics with a fixed-step
fourth-order Runge-Kutta scheme over one flat state vector
``[x.ravel(), w_all]`` that holds every edge weight once per state component,
so the weights form an (edges, d) block of d bit-identical replicas.  Fixed
(follower) weights have a zero slope, so RK4 leaves them bit-constant.
``run`` is the only RK4; it writes the stage states in place into a
preallocated block of rows and scans each finished block once for divergence.
Its second and third stages evaluate 2 k2 and 2 k3 directly, which is exact
except where a slope entry is subnormal, so a step has the textbook RK4's
bits.  The realized cost J and the integral term J_bound of the
guaranteed-cost bound never feed back into x or w: once per block of steps,
one batched pass evaluates both rates at every stored stage state.  Each step adds (dt/6)(r1 + 2 r2 + 2 r3 + r4), summed in
step order, which is the arithmetic of RK4 over J and J_bound as augmented
coordinates, so both keep the integrator's accuracy order.
"""

from __future__ import annotations

import copy
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
# RK4 steps per block: one divergence scan, one rate pass, one history copy
_BLOCK_STEPS = 200


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
    """Sum of the quadratic forms v_i^T m v_i over the rows of each stacked v.

    One 2-D product over all the rows, which costs about half of a batched
    ``v @ m`` on small stacks, multiplied by the rows in place, which keeps
    one fewer stack-sized temporary alive in a run's rate pass.
    """
    flat = v.reshape(-1, m.shape[0])
    terms = flat.dot(m)
    terms *= flat
    return terms.reshape(len(v), -1).sum(axis=1)


def _pair_sums(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Sum of (x_i - x_k)^T m (x_i - x_k) over the ordered agent pairs of each stacked x.

    O(n d^2) by the shifted-data identity of Chan, Golub and LeVeque
    ("Algorithms for computing the sample variance", 1983): with
    e_i = x_i - x_1 and s = sum_i e_i, the sum is 2 n sum_i e_i^T m e_i -
    2 s^T m s.  At consensus every e_i is exactly zero, and so is the sum;
    for positive semidefinite m the rounding stays within about (n + 1) eps
    relative, because |x_1 - mean|^2 is at most sum_i |x_i - mean|^2.
    """
    e = x - x[:, :1]
    return 2.0 * x.shape[1] * _quad_sums(e, m) - 2.0 * _quad_sums(e.sum(axis=1, keepdims=True), m)


class _Protocol:
    """Adaptive coupling over the flat state ``y = [x.ravel(), w_all replicated d times]``.

    Every edge (i, k) couples its agents with weight w_ik through B K_u:
    dx = x A^T - E^T (w_all * ((E x) (B K_u)^T)), with E the signed incidence
    (-1 at i, +1 at k), and each adaptive edge gets dw = (E x)_e K_w (E x)_e^T.
    Leader-follower mode is the same coupling with the leader's row of E^T
    zeroed, so the leader propagates autonomously, and with only the leader
    edges adaptive; follower edges keep their fixed weights, whose slope is
    zero.  The leader is agent 1, so its edges lead the canonical edge order
    and the adaptive weights lead ``w_all``.  Each weight is held once per
    state component, so the state is an (n + edges, d) block of rows and
    every elementwise product in ``deriv`` reads contiguous (rows, d)
    operands of one shape; summing the weight rate's terms against a (d, d)
    block of ones writes it replicated.  ``deriv`` makes eight NumPy calls
    into preallocated scratch: the edge differences times (B K_u)^T and,
    for the adaptive edges, times K_w, and one product of ``[I | -E^T]``
    with the stacked rows ``[x A^T ; w_all * coupling]`` assembles dx.  It
    uses ``ndarray.dot`` on 2-D operands, which costs a third of ``@`` on
    such small arrays.  ``rates`` gives the cost and bound rates of a stack
    of agent states; only they depend on the mode.
    """

    def __init__(self, gains: GainSet, topology: Topology, mode: str):
        if gains.mode != mode:
            raise ConfigurationError(f"gains are for mode {gains.mode!r}, expected {mode!r}")
        self.mode = mode
        self.n = n = topology.n
        self.d = d = gains.state_dim
        self.nd = n * d
        self.adaptive_edges = adaptive_edges(topology, mode)
        edge_count, adaptive = len(topology.edges), len(self.adaptive_edges)
        self.incidence = np.zeros((edge_count, n))
        for row, (i, k) in enumerate(topology.edges):
            self.incidence[row, i - 1] = -1.0
            self.incidence[row, k - 1] = 1.0
        # [I | -E^T], with the leader's row of E^T zeroed in leader-follower mode
        self.assembly = np.eye(n, n + edge_count)
        np.negative(self.incidence.T, self.assembly[:, n:])
        if mode == LEADER_FOLLOWER:
            self.assembly[0, n:] = 0.0
            # follower rows (agent k - 2) of the leader edges (1, k), in edge order
            self.pinned = np.array([k - 2 for _, k in self.adaptive_edges], dtype=int)
        self.w_all = topology.initial_weight_vector(topology.edges)
        self.size = (n + edge_count) * d
        self.guarded = (n + adaptive) * d  # [x, adaptive w]: what moves
        self.a_t = gains.a.T.copy()
        self.bku_t = (gains.b @ gains.k_u).T.copy()
        self.k_w = np.ascontiguousarray(gains.k_w)
        self.q = gains.q
        self.gamma = gains.gamma
        self.diffs = np.empty((edge_count, d))
        self.stacked = np.empty((n + edge_count, d))  # [x A^T ; w_all * coupling]
        self.drift, self.coupling = self.stacked[:n], self.stacked[n:]
        self.adaptive_diffs, self.quad = self.diffs[:adaptive], np.empty((adaptive, d))
        self.ones = np.ones((d, d))

    def views(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (x, weights, adaptive weights) views, each (rows, d), of a flat state or slope vector y."""
        nd, d = self.nd, self.d
        return y[:nd].reshape(self.n, d), y[nd:].reshape(-1, d), y[nd : self.guarded].reshape(-1, d)

    def doubled(self) -> _Protocol:
        """A twin sharing this protocol's scratch whose ``deriv`` writes twice the slope.

        It assembles dx and sums the weight rates with doubled matrices.
        Scaling by two is exact, so the result is 2 * deriv bit for bit
        except where a product or a slope entry is subnormal.
        """
        twin = copy.copy(self)
        twin.assembly, twin.ones = 2.0 * self.assembly, 2.0 * self.ones
        return twin

    def deriv(self, x: np.ndarray, w: np.ndarray, dx: np.ndarray, dw: np.ndarray) -> None:
        """Write dx/dt and the adaptive dw/dt at agent states x and weight block w into dx and dw.

        w and dw hold one row of d equal replicas per weight; every operand
        is a C-contiguous (rows, d) array.  The fixed weights' slope is zero
        and is not written.
        """
        diffs = self.incidence.dot(x, self.diffs)
        diffs.dot(self.bku_t, self.coupling)
        np.multiply(w, self.coupling, self.coupling)
        x.dot(self.a_t, self.drift)
        self.assembly.dot(self.stacked, dx)
        self.adaptive_diffs.dot(self.k_w, self.quad)
        np.multiply(self.quad, self.adaptive_diffs, self.quad)
        self.quad.dot(self.ones, dw)

    def rates(self, x: np.ndarray) -> np.ndarray:
        """Rows (dJ, dJ_bound) for each agent state of the stack x, shape (m, n, d)."""
        if self.mode == LEADERLESS:
            dj = _pair_sums(x, self.q) / self.n
            djb = self.gamma * _pair_sums(x, self.k_w) / (2.0 * self.n)
        else:
            xi = x[:, 1:] - x[:, :1]
            dj = _quad_sums(xi[:, self.pinned], self.q) + _pair_sums(x[:, 1:], self.q) / (self.n - 1)
            djb = self.gamma * _quad_sums(xi, self.k_w)
        return np.stack((dj, djb), axis=1)


def _rhs(x, w, gains: GainSet, topology: Topology, mode: str) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(dx, dw, dJ, dJ_bound) at the flat agent states x and the adaptive weights w, as in a Trace row."""
    protocol = _Protocol(gains, topology, mode)
    x, w = np.asarray(x, dtype=float).ravel(), np.asarray(w, dtype=float).ravel()
    n, d, adaptive = protocol.n, protocol.d, len(protocol.adaptive_edges)
    if len(x) != protocol.nd or len(w) != adaptive:
        raise ConfigurationError(
            f"x has {len(x)} values and w {len(w)}; expected n*d = {protocol.nd} and one per adaptive edge, {adaptive}"
        )
    x = x.reshape(n, d)
    # the adaptive weights lead w_all, and deriv reads each weight d times
    w_all = np.concatenate((w, protocol.w_all[adaptive:])).repeat(d).reshape(-1, d)
    dx, dw = np.empty((n, d)), np.empty((adaptive, d))
    protocol.deriv(x, w_all, dx, dw)
    # two rows, as a run's block has many: a one-row product takes another BLAS path and rounds differently
    dj, djb = protocol.rates(np.stack((x, x)))[0]
    return dx.ravel(), dw[:, 0], float(dj), float(djb)


def leaderless_rhs(x, w, gains: GainSet, topology: Topology) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Time derivative (dx, dw, dJ, dJ_bound) of the leaderless protocol.

    Agent blocks receive A x_i + B K_u sum_k w_ik (x_k - x_i); each edge
    weight receives its error quadratic form; the cost coordinate receives
    the all-pairs quadratic cost rate and the bound coordinate receives the
    translated disagreement quadratic form.
    """
    return _rhs(x, w, gains, topology, LEADERLESS)


def leader_follower_rhs(x, w, gains: GainSet, topology: Topology) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Time derivative (dx, dw, dJ, dJ_bound) of the leader-follower protocol.

    The leaderless coupling with the leader's input removed: the leader
    propagates autonomously, followers combine the adaptively weighted leader
    coupling with fixed-weight follower coupling, and only leader-incident
    edge weights adapt.
    """
    return _rhs(x, w, gains, topology, LEADER_FOLLOWER)


def run(config: SimConfig, gains: GainSet, topology: Topology) -> Trace:
    """Integrate a full run and return the sampled Trace.

    Aborts with DivergenceError at the first step whose agent states or
    adaptive weights are non-finite or exceed the divergence guard in
    magnitude.  The trace always contains the initial and final samples.
    """
    protocol = _Protocol(gains, topology, gains.mode)
    check_connected(topology, gains.mode)
    n, d, nd, guarded, size = protocol.n, protocol.d, protocol.nd, protocol.guarded, protocol.size
    x0 = config.x0
    if x0.shape != (n, d):
        raise ConfigurationError(f"x0 has shape {x0.shape}, expected ({n}, {d})")
    nsteps = horizon_steps(config.t_final, config.dt)
    dt, stride = config.dt, config.sample_stride
    sixth = dt / 6.0
    # full-length factors: a ufunc multiply by an array costs less than by a Python float, with the same bits
    quarter_v, half_v, sixth_v = (np.full(size, c) for c in (0.25 * dt, 0.5 * dt, sixth))
    sample_steps = np.array([0, *range(stride, nsteps + 1, stride)] + ([nsteps] if nsteps % stride else []))

    # rows 4k .. 4k + 3: the stage states of the block's step k; row 4k + 4: its result
    block = np.empty((4 * _BLOCK_STEPS + 1, size))
    rows = list(block)
    xs, ws, _ = zip(*map(protocol.views, rows))
    k1, k2, k3, k4 = slopes = np.zeros((4, size))  # the fixed weights' slopes stay zero
    (dx1, _, dw1), (dx2, _, dw2), (dx3, _, dw3), (dx4, _, dw4) = map(protocol.views, slopes)
    deriv, deriv2 = protocol.deriv, protocol.doubled().deriv
    block[0] = np.concatenate((x0.ravel(), protocol.w_all.repeat(d)))
    kept = np.r_[:nd, nd:guarded:d]  # x and replica 0 of each adaptive weight
    history = np.empty((len(sample_steps), len(kept)))  # [x, adaptive w] at the samples
    history[0] = block[0, kept]
    costs = np.zeros((len(sample_steps), 2))  # (J, J_bound) at the samples
    totals = np.zeros((1, 2))  # totals[-1] holds (J, J_bound) after step `base`
    done = 1  # samples recorded so far
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported by the block scan
        for base in range(0, nsteps, _BLOCK_STEPS):
            top = 4 * min(_BLOCK_STEPS, nsteps - base)
            for r in range(0, top, 4):
                y, s1, s2, s3 = rows[r : r + 4]
                deriv(xs[r], ws[r], dx1, dw1)
                np.multiply(k1, half_v, s1)
                s1 += y
                # k2 and k3 hold the doubled slopes 2 k2 and 2 k3, so (dt/4) k2 is the textbook's (dt/2) k2
                deriv2(xs[r + 1], ws[r + 1], dx2, dw2)
                np.multiply(k2, quarter_v, s2)
                s2 += y
                deriv2(xs[r + 2], ws[r + 2], dx3, dw3)
                np.multiply(k3, half_v, s3)
                s3 += y
                deriv(xs[r + 3], ws[r + 3], dx4, dw4)
                # y + (dt/6)(k1 + 2 k2 + 2 k3 + k4) in the textbook's order of operations, which fixes the bits
                k2 += k1
                k2 += k3
                k2 += k4
                np.multiply(k2, sixth_v, k2)
                np.add(y, k2, rows[r + 4])
            # the first step whose result is non-finite or past the guard
            magnitude = np.abs(block[4 : top + 1 : 4, :guarded]).max(axis=1)
            failed = np.flatnonzero(~(magnitude <= DIVERGENCE_LIMIT))
            if len(failed):
                k = int(failed[0])
                raise DivergenceError(time=(base + k + 1) * dt, magnitude=float(magnitude[k]))
            rates = protocol.rates(block[:top, :nd].reshape(-1, n, d)).reshape(-1, 4, 2)
            increments = sixth * (rates[:, 0] + 2.0 * rates[:, 1] + 2.0 * rates[:, 2] + rates[:, 3])
            # row k: (J, J_bound) after step base + k, summed in step order
            totals = np.cumsum(np.concatenate((totals[-1:], increments)), axis=0)
            end = done + int(np.searchsorted(sample_steps[done:], base + top // 4, side="right"))
            offsets = sample_steps[done:end] - base
            history[done:end] = block[np.ix_(4 * offsets, kept)]
            costs[done:end] = totals[offsets]
            block[0] = block[top]
            done = end

    states = history[:, :nd].copy()
    x = states.reshape(-1, n, d)
    # per-sample disagreement (leaderless) or follower-to-leader errors
    dev = x - x.mean(axis=1, keepdims=True) if gains.mode == LEADERLESS else x[:, 1:] - x[:, :1]
    return Trace(
        mode=gains.mode,
        n=n,
        d=d,
        adaptive_edges=protocol.adaptive_edges,
        times=sample_steps * dt,
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
        quad = float(_pair_sums(x0[None], gains.certificate)[0]) / (2.0 * trace.n)
    else:
        xi0 = x0[1:] - x0[0]
        quad = float(((xi0 @ gains.certificate) * xi0).sum())
    return quad + float(trace.j_bound_integral[-1])
