"""Simulation of the adaptive consensus protocols.

Integrates the coupled agent-state and edge-weight dynamics with a fixed-step
fourth-order Runge-Kutta scheme over one flat state vector ``[x.ravel(), w]``
that holds each adaptive edge weight once per state component, so the
weights form an (adaptive edges, d) block of d bit-identical replicas.
``run`` is the only RK4; it writes the stage states in place into a
preallocated block of rows and scans each finished block once for divergence.
It builds the block's views once per run, the agent columns of each row as
one flat view and the weight columns with one reshape, and one tuple per
step slot of a block (its state row, three stage rows and result row, and
each stage's (x, w) views), so a step unpacks one tuple.  Each derivative
is five NumPy calls: one lift of the flat agent states into the drift, the
coupling and the adaptive edges' weight terms and differences (a dense
Kronecker matrix on networks small enough for one matrix-vector product to
win, the four structured products above ``_DENSE_LIFT_ENTRIES``), two
elementwise products and two assembling products.
Its second and third stages evaluate 2 k2 and 2 k3 directly, which is exact
except where a slope entry is subnormal, so a step has the textbook RK4's
bits.  The realized cost J and the integral term J_bound of the
guaranteed-cost bound never feed back into x or w: once per block of steps,
one batched pass evaluates both rates at every stored stage state, on one
component-major (n, d, rows) copy of their agent states: shifts between
agents are leading-axis differences, and every sum adds whole rows in a
fixed order, so a stage state's rates do not depend on how many rows the
pass holds, and ``run`` and the public rhs give them the same bits.  Each
step adds (dt/6)(r1 + 2 r2 + 2 r3 + r4), summed in step order, which is the
arithmetic of RK4 over J and J_bound as augmented coordinates, so both keep
the integrator's accuracy order.
"""

from __future__ import annotations

import copy
import math
import operator

import numpy as np

from . import graph, matops
from ._record import Record
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
    "sample_steps",
    "adaptive_edges",
    "check_connected",
    "leaderless_rhs",
    "leader_follower_rhs",
    "run",
    "disagreement_norms",
    "consensus_function",
    "guaranteed_cost_bound",
]

DIVERGENCE_LIMIT = 1e9
# Largest dense lift, in entries, that _Protocol builds.  Its one matrix-vector product took 0.63-0.81 of the
# four structured products' time per derivative up to 6,000 entries, broke even near 10,000 and lost above
# (1.25 times at 19,800, 8.6 times at 745,000); this bound leaves a margin for slower BLAS kernels.
_DENSE_LIFT_ENTRIES = 4096
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


def sample_steps(nsteps: int, stride: int) -> np.ndarray:
    """The ceil(nsteps / stride) + 1 steps a trace records: every stride-th step before the last, then the last."""
    return np.r_[0:nsteps:stride, nsteps]


class SimConfig(Record):
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


class Trace(Record):
    """Sampled simulation history: what the integrator produced.

    ``states[0]`` is x(0); ``disagreement_norms`` derives the disagreement from them.
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


def adaptive_edges(topology: Topology, mode: str) -> tuple[tuple[int, int], ...]:
    """Edges whose weights adapt: every edge (leaderless) or the leader's edges."""
    if mode == LEADERLESS:
        if topology.leader is not None:
            raise ConfigurationError(f"leaderless mode takes no leader, got agent {topology.leader}")
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


def _component_major(x: np.ndarray) -> np.ndarray:
    """A contiguous (n, d, rows) copy of the stack x of agent states, shape (rows, n, d)."""
    rows, n, d = x.shape
    return np.ascontiguousarray(x.reshape(rows, n * d).T).reshape(n, d, rows)


def _quad_sums(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Sum of the quadratic forms v_i^T m v_i over the leading axis of v, shape (k, d, columns), per column.

    One batched product ``m @ v_i``, multiplied by v in place, then summed
    row after row over the k d rows.  That sum runs contiguous inner loops
    over the columns and adds every column in the same order, so a column's
    sum does not depend on how many columns sit beside it; nor, for the
    even column counts ``run`` and the public rhs pass, does the product
    (a one-column product takes BLAS's matrix-vector path instead).
    """
    terms = np.matmul(m, v)
    terms *= v
    return terms.reshape(-1, v.shape[-1]).sum(axis=0)


def _shifted_pair_sums(e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Sum of (x_i - x_k)^T m (x_i - x_k) over the ordered pairs of n agents, from e_i = x_i - x_1, i = 2..n.

    O(n d^2) by the shifted-data identity of Chan, Golub and LeVeque
    ("Algorithms for computing the sample variance", 1983): with
    s = sum_i e_i, the sum is 2 n sum_i e_i^T m e_i - 2 s^T m s.  e has
    shape (n - 1, d, columns).  At consensus every e_i is exactly zero, and
    so is the sum; for positive semidefinite m the rounding stays within
    about (n + 1) eps relative, because |x_1 - mean|^2 is at most
    sum_i |x_i - mean|^2.
    """
    return 2.0 * (len(e) + 1) * _quad_sums(e, m) - 2.0 * _quad_sums(e.sum(axis=0, keepdims=True), m)


class _Protocol:
    """Adaptive coupling over the flat state ``y = [x.ravel(), w replicated d times]``.

    Every edge (i, k) couples its agents with weight w_ik through B K_u:
    dx = x A^T - E^T (w * ((E x) (B K_u)^T)), with E the signed incidence
    (-1 at i, +1 at k), and each adaptive edge gets dw = (E x)_e K_w (E x)_e^T.
    Leader-follower mode is the same coupling with the leader's row of E^T
    zeroed, so the leader propagates autonomously, and with only the leader
    edges adaptive.  The leader is agent 1, so its edges lead the canonical
    order; each follower edge's fixed weight scales its row of E, after the
    assembly ``[I | -E^T]`` took E unscaled, so the state holds only the
    adaptive weights, each once per state component: an (n + adaptive, d)
    block of rows, and every elementwise product in ``deriv`` reads
    contiguous (rows, d) operands of one shape; summing the weight rate's
    terms against a (d, d) block of ones writes it replicated.

    The three linear maps of x land in one scratch block of rows,
    ``z = [x A^T ; coupling ; adaptive diffs K_w ; diffs]``, written by one
    call, ``lift(x, out)``, with x the flat agent states.  A lift of at most
    ``_DENSE_LIFT_ENTRIES`` entries is one dense matrix,
    ``[I_n (x) A ; E (x) B K_u ; E_a (x) K_w^T ; E_a (x) I_d]`` over the
    first rows of z (only the adaptive edges' differences are read), and
    its ``dot`` is one matrix-vector product; a larger one is the four
    products E x, (E x) (B K_u)^T, x A^T and (E_a x) K_w into z's views,
    because past about ten thousand entries the dense product costs more
    than the four calls.  ``deriv`` then makes five NumPy calls: the lift, the
    adaptive coupling times w, the adaptive weight terms times their
    differences, ``[I | -E^T]`` times ``[x A^T ; coupling]`` into dx, and
    the terms times the block of ones into dw.  It uses ``ndarray.dot``,
    which costs a third of ``@`` on such small arrays.  Its scratch arrays,
    factors and bound ``dot`` methods come from one tuple, ``operands``,
    which ``__init__`` builds and ``doubled`` rebuilds for the twin's
    matrices; ``deriv`` stays a method of the class, so a patch of
    ``_Protocol.deriv`` sees every call.  ``rates`` gives the cost and bound
    rates of a stack of agent states; only they depend on the mode.
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
        # each fixed weight scales its edge's row of E, which the assembly took unscaled
        self.incidence[adaptive:] *= np.array([topology.weights[e] for e in topology.edges])[adaptive:, None]
        self.size = (n + adaptive) * d
        self.a_t = gains.a.T.copy()
        self.bku_t = (gains.b @ gains.k_u).T.copy()
        self.k_w = np.ascontiguousarray(gains.k_w)
        self.q = gains.q
        self.gamma = gains.gamma
        top, rows = n + edge_count, n + edge_count + adaptive
        self.z = z = np.empty((rows + edge_count, d))  # [x A^T ; coupling ; quad ; diffs]
        self.stacked, self.quad, self.diffs = z[:top], z[top:rows], z[rows:]
        self.drift, self.coupling = z[:n], z[n:top]
        self.adaptive_coupling, self.adaptive_diffs = z[n : n + adaptive], z[rows : rows + adaptive]
        self.ones = np.ones((d, d))
        if (rows + adaptive) * d * self.nd <= _DENSE_LIFT_ENTRIES:
            # entry ((row, r), (agent, c)) is coefficient[row, agent] * factor[row][r, c]; rows stop at the
            # adaptive differences, the only differences deriv reads once the coupling is lifted
            leading = self.incidence[:adaptive]
            coefficients = np.concatenate((np.eye(n), self.incidence, leading, leading))
            factors = np.stack((gains.a, self.bku_t.T, self.k_w.T, np.eye(d)))
            factors = factors.repeat((n, edge_count, adaptive, adaptive), axis=0)
            self.lift = (coefficients[:, None, :, None] * factors[:, :, None, :]).reshape(-1, self.nd).dot
            self.lifted = z.reshape(-1)[: (rows + adaptive) * d]
        else:
            self.lift, self.lifted = self._products, z
            self.product_operands = (
                (n, d), self.incidence.dot, self.diffs, self.diffs.dot, self.bku_t, self.coupling, self.a_t,
                self.drift, self.adaptive_diffs.dot, self.k_w, self.quad,
            )
        self._bind()

    def _products(self, x: np.ndarray, z: np.ndarray) -> None:
        """The lift of the flat agent states x by four products, for large networks, into the views of ``self.z``."""
        shape, incidence_dot, diffs, diffs_dot, bku_t, coupling, a_t, drift, adaptive_dot, k_w, quad = (
            self.product_operands
        )
        x = x.reshape(shape)
        incidence_dot(x, diffs)
        diffs_dot(bku_t, coupling)
        x.dot(a_t, drift)
        adaptive_dot(k_w, quad)

    def _bind(self) -> None:
        """Collect what ``deriv`` reads into ``operands``, in its order of use: one attribute load per call."""
        self.operands = (
            self.lift, self.lifted, self.adaptive_coupling, self.quad, self.adaptive_diffs, self.assembly.dot,
            self.stacked, self.quad.dot, self.ones,
        )

    def doubled(self) -> _Protocol:
        """A twin sharing this protocol's scratch whose ``deriv`` writes twice the slope.

        It assembles dx and sums the weight rates with doubled matrices.
        Scaling by two is exact, so the result is 2 * deriv bit for bit
        except where a product or a slope entry is subnormal.
        """
        twin = copy.copy(self)
        twin.assembly, twin.ones = 2.0 * self.assembly, 2.0 * self.ones
        twin._bind()
        return twin

    def deriv(self, x: np.ndarray, w: np.ndarray, dx: np.ndarray, dw: np.ndarray) -> None:
        """Write dx/dt and dw/dt at the flat agent states x and adaptive weight block w into dx and dw.

        x holds the n d agent states; w and dw hold one row of d equal
        replicas per adaptive weight, and dx one row per agent.  Every
        operand is C-contiguous.
        """
        lift, lifted, adaptive_coupling, quad, adaptive_diffs, assembly_dot, stacked, quad_dot, ones = self.operands
        lift(x, lifted)
        np.multiply(w, adaptive_coupling, adaptive_coupling)
        np.multiply(quad, adaptive_diffs, quad)
        assembly_dot(stacked, dx)
        quad_dot(ones, dw)

    def rates(self, x: np.ndarray) -> np.ndarray:
        """Rows (dJ, dJ_bound) for each agent state of the stack x, shape (m, n, d)."""
        xt = _component_major(x)
        xi = xt[1:] - xt[0]
        if self.mode == LEADERLESS:
            dj = _shifted_pair_sums(xi, self.q) / self.n
            djb = self.gamma * _shifted_pair_sums(xi, self.k_w) / (2.0 * self.n)
        else:
            dj = _quad_sums(xi[self.pinned], self.q) + _shifted_pair_sums(xt[2:] - xt[1], self.q) / (self.n - 1)
            djb = self.gamma * _quad_sums(xi, self.k_w)
        return np.stack((dj, djb), axis=1)


def _rhs(x, w, gains: GainSet, topology: Topology, mode: str) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(dx, dw, dJ, dJ_bound) at the flat agent states x and the adaptive weights w, as in a Trace row."""
    protocol = _Protocol(gains, topology, mode)
    try:  # matops' finite rule, as SimConfig applies it to x0
        x, w = (matops.as_matrix(np.ravel(values), name)[0] for values, name in ((x, "x"), (w, "w")))
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    n, d, adaptive = protocol.n, protocol.d, len(protocol.adaptive_edges)
    if len(x) != protocol.nd or len(w) != adaptive:
        raise ConfigurationError(
            f"x has {len(x)} values and w {len(w)}; expected n*d = {protocol.nd} and one per adaptive edge, {adaptive}"
        )
    dx, dw = np.empty((n, d)), np.empty((adaptive, d))
    protocol.deriv(x, w.repeat(d).reshape(adaptive, d), dx, dw)  # deriv reads each weight d times
    # two rows, as a run's block has many: a one-row product takes another BLAS path and rounds differently
    dj, djb = protocol.rates(np.stack((x, x)).reshape(2, n, d))[0]
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
    n, d, nd, size = protocol.n, protocol.d, protocol.nd, protocol.size
    x0 = config.x0
    if x0.shape != (n, d):
        raise ConfigurationError(f"x0 has shape {x0.shape}, expected ({n}, {d})")
    nsteps = horizon_steps(config.t_final, config.dt)
    dt, stride = config.dt, config.sample_stride
    sixth = dt / 6.0
    # full-length factors: a ufunc multiply by an array costs less than by a Python float, with the same bits
    quarter_v, half_v, sixth_v = (np.full(size, c) for c in (0.25 * dt, 0.5 * dt, sixth))
    samples = sample_steps(nsteps, stride)

    # rows 4k .. 4k + 3: the stage states of the block's step k; row 4k + 4: its result
    height = 4 * _BLOCK_STEPS + 1
    block = np.empty((height, size))
    rows = list(block)
    xs = list(block[:, :nd])
    ws = list(block[:, nd:].reshape(height, -1, d))
    # per step slot of a block: its state, its three stage rows and its result row, then each stage's (x, w) views
    steps = [
        (*rows[r : r + 5], xs[r], ws[r], xs[r + 1], ws[r + 1], xs[r + 2], ws[r + 2], xs[r + 3], ws[r + 3])
        for r in range(0, height - 1, 4)
    ]
    k1, k2, k3, k4 = slopes = np.empty((4, size))
    (dx1, dx2, dx3, dx4), (dw1, dw2, dw3, dw4) = slopes[:, :nd].reshape(4, n, d), slopes[:, nd:].reshape(4, -1, d)
    deriv, deriv2 = protocol.deriv, protocol.doubled().deriv
    multiply, add = np.multiply, np.add
    block[0] = np.concatenate((x0.ravel(), np.repeat([topology.weights[e] for e in protocol.adaptive_edges], d)))
    history = np.empty((len(samples), size))  # the states at the samples
    history[0] = block[0]
    costs = np.zeros((len(samples), 2))  # (J, J_bound) at the samples
    totals = np.zeros((1, 2))  # totals[-1] holds (J, J_bound) after step `base`
    done = 1  # samples recorded so far
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is reported by the block scan
        for base in range(0, nsteps, _BLOCK_STEPS):
            count = min(_BLOCK_STEPS, nsteps - base)
            top = 4 * count
            for y, s1, s2, s3, result, x1, w1, x2, w2, x3, w3, x4, w4 in steps[:count]:
                deriv(x1, w1, dx1, dw1)
                multiply(k1, half_v, s1)
                s1 += y
                # k2 and k3 hold the doubled slopes 2 k2 and 2 k3, so (dt/4) k2 is the textbook's (dt/2) k2
                deriv2(x2, w2, dx2, dw2)
                multiply(k2, quarter_v, s2)
                s2 += y
                deriv2(x3, w3, dx3, dw3)
                multiply(k3, half_v, s3)
                s3 += y
                deriv(x4, w4, dx4, dw4)
                # y + (dt/6)(k1 + 2 k2 + 2 k3 + k4) in the textbook's order of operations, which fixes the bits
                k2 += k1
                k2 += k3
                k2 += k4
                multiply(k2, sixth_v, k2)
                add(y, k2, result)
            # the first step whose result is non-finite or past the guard
            magnitude = np.abs(block[4 : top + 1 : 4]).max(axis=1)
            failed = np.flatnonzero(~(magnitude <= DIVERGENCE_LIMIT))
            if len(failed):
                k = int(failed[0])
                raise DivergenceError(time=(base + k + 1) * dt, magnitude=float(magnitude[k]))
            rates = protocol.rates(block[:top, :nd].reshape(-1, n, d)).reshape(-1, 4, 2)
            increments = sixth * (rates[:, 0] + 2.0 * rates[:, 1] + 2.0 * rates[:, 2] + rates[:, 3])
            # row k: (J, J_bound) after step base + k, summed in step order
            totals = np.cumsum(np.concatenate((totals[-1:], increments)), axis=0)
            end = done + int(np.searchsorted(samples[done:], base + count, side="right"))
            offsets = samples[done:end] - base
            history[done:end] = block[4 * offsets]
            costs[done:end] = totals[offsets]
            block[0] = block[top]
            done = end

    return Trace(
        mode=gains.mode,
        n=n,
        d=d,
        adaptive_edges=protocol.adaptive_edges,
        times=samples * dt,
        states=history[:, :nd].copy(),
        weights=history[:, nd::d].copy(),
        j_realized=costs[:, 0].copy(),
        j_bound_integral=costs[:, 1].copy(),
    )


def disagreement_norms(x: np.ndarray, mode: str) -> np.ndarray:
    """Per state of the (rows, n, d) stack x, |x - mean x| (leaderless) or the norm of the stacked x_i - x_1."""
    dev = x - x.mean(axis=1, keepdims=True) if mode == LEADERLESS else x[:, 1:] - x[:, :1]
    return np.sqrt((dev * dev).reshape(len(dev), -1).sum(axis=1))


def consensus_function(a, initial_states, t: float) -> np.ndarray:
    """Consensus trajectory e^{A t} applied to the average initial state."""
    a = matops._square(a, "a")
    x0 = matops.as_matrix(initial_states, "initial_states")
    return matops.matrix_exp(a * t) @ x0.mean(axis=0)


def guaranteed_cost_bound(trace: Trace, gains: GainSet) -> float:
    """Guaranteed cost bound: initial quadratic form plus the bound integral.

    Leaderless runs use the disagreement-projector quadratic form of the
    certificate at x(0) = ``states[0]``; leader-follower runs use the
    star-coupling quadratic form, which equals the sum of follower-error
    quadratic forms; both are summed from x_i(0) - x_1(0) as the rates are.
    """
    xt = _component_major(trace.states[:1].reshape(1, trace.n, trace.d))
    xi0 = xt[1:] - xt[0]
    if gains.mode == LEADERLESS:
        quad = _shifted_pair_sums(xi0, gains.certificate) / (2.0 * trace.n)
    else:
        quad = _quad_sums(xi0, gains.certificate)
    return float(quad[0]) + float(trace.j_bound_integral[-1])
