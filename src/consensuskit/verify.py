"""Post-run certification of consensus, cost bounds, and weight behavior.

`analyze` turns a completed Trace plus its GainSet into a CostReport whose
verdicts are machine-checkable. `verify_reference_gains` cross-checks the
gain algebra K_u = B^T P and K_w = P B B^T P against embedded reference
values for the two bundled example plants.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, fields
from typing import Mapping, Optional

import numpy as np

from . import matops, sim, synthesis
from .graph import Topology
from .sim import Trace
from .synthesis import GainSet, LEADERLESS

__all__ = [
    "VerificationError",
    "EmptyTraceError",
    "CostReport",
    "DEFAULT_TOLERANCES",
    "REFERENCE_TOTALS",
    "HORIZON_RATE",
    "checked_tolerances",
    "analyze",
    "render_value",
    "render_pairs",
    "render_report",
    "verify_reference_gains",
]


class VerificationError(Exception):
    """Base class for verification failures."""


class EmptyTraceError(VerificationError):
    """The trace has no samples to analyze."""


DEFAULT_TOLERANCES: Mapping[str, float] = {
    "consensus": 1e-2,
    "bound_rel": 1e-6,
    "bound_abs": 1e-6,
    "monotone": 1e-12,
    "certificate": 1e-9,
}

# The horizon-too-short warning fires while the bound integrand at t_final
# exceeds this fraction of the bound per unit time.
HORIZON_RATE = 1e-10

# Informational published totals for the two example scenarios.  The initial
# conditions behind them are not available, so these are never asserted
# against computed values; they are surfaced for context only.
REFERENCE_TOTALS: Mapping[str, float] = {
    "example-1": 1694.6,
    "example-2": 872.5,
}


@dataclass(frozen=True)
class CostReport:
    """Verdicts and diagnostics for one completed run."""

    mode: str
    horizon: float
    realized_cost: float
    bound: float
    bound_holds: bool
    consensus_achieved: bool
    initial_disagreement: float
    final_disagreement: float
    weights_monotone: bool
    min_weight_delta: float
    final_weight_rate: float
    tracking_error: float
    certificate_margin: float
    certificate_ok: bool
    warnings: tuple[str, ...] = ()


def checked_tolerances(entries: Mapping, where: str = "tolerance '{}'") -> dict:
    """Tolerance overrides as floats, each named in DEFAULT_TOLERANCES and a
    real, finite number; ``where`` names an entry in errors, ``{}`` its name."""
    for name, value in entries.items():
        if name not in DEFAULT_TOLERANCES:
            raise VerificationError(f"{where.format(name)}: unknown tolerance; known: {sorted(DEFAULT_TOLERANCES)}")
        # bool is a numbers.Real; abs() <= max is False for NaN, +-Infinity and ints beyond the float range
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
            raise VerificationError(f"{where.format(name)}: expected a real, finite number, got {value!r}")
    return {name: float(value) for name, value in entries.items()}


def analyze(
    trace: Trace,
    gains: GainSet,
    topology: Topology,
    tolerances: Optional[Mapping[str, float]] = None,
) -> CostReport:
    """Build the CostReport for a completed trace.

    Pure function of its inputs: the same trace, gains, and tolerances give a
    bit-identical report.
    """
    if len(trace.times) == 0:
        raise EmptyTraceError("trace contains no samples")
    tol = {**DEFAULT_TOLERANCES, **checked_tolerances(tolerances or {})}

    realized = float(trace.j_realized[-1])
    bound = sim.guaranteed_cost_bound(trace, gains)
    bound_holds = realized <= bound * (1.0 + tol["bound_rel"]) + tol["bound_abs"]

    deltas = np.diff(trace.weights, axis=0)
    min_delta = float(deltas.min()) if deltas.size else 0.0
    weights_monotone = min_delta >= -tol["monotone"]

    initial_err = float(trace.eta_norm[0])
    final_err = float(trace.eta_norm[-1])
    consensus_achieved = final_err < tol["consensus"] * (initial_err + 1.0)

    rhs = sim.leaderless_rhs if gains.mode == LEADERLESS else sim.leader_follower_rhs
    _, dw, _, bound_rate = rhs(trace.states[-1], trace.weights[-1], gains, topology)
    final_weight_rate = float(np.abs(dw).max()) if dw.size else 0.0

    # leaderless agents track the consensus function e^{At} avg x(0) at
    # t_final; followers track the leader
    x_final = trace.states[-1].reshape(trace.n, trace.d)
    if gains.mode == LEADERLESS:
        x0 = trace.states[0].reshape(trace.n, trace.d)
        errors = x_final - sim.consensus_function(gains.a, x0, trace.times[-1])
    else:
        errors = x_final[1:] - x_final[0]
    tracking_error = float(np.sqrt((errors * errors).sum(axis=1)).max())

    check = synthesis.verify_riccati_certificate(
        gains.certificate,
        gains.a,
        gains.b,
        gains.q,
        gains.gamma,
        gains.multiplier,
        tol=tol["certificate"],
    )
    warnings: list[str] = []
    if bound_rate > HORIZON_RATE * bound:
        warnings.append(f"horizon too short: bound integrand still {bound_rate:.3e} per unit time at t_final")
    if not bound_holds:
        warnings.append(
            f"realized cost {realized:.6g} exceeds guaranteed bound {bound:.6g}"
        )
    if not consensus_achieved:
        warnings.append(
            f"final disagreement {final_err:.6g} above tolerance "
            f"{tol['consensus']:.3g}*(initial+1)"
        )

    return CostReport(
        mode=gains.mode,
        horizon=float(trace.times[-1]),
        realized_cost=realized,
        bound=bound,
        bound_holds=bound_holds,
        consensus_achieved=consensus_achieved,
        initial_disagreement=initial_err,
        final_disagreement=final_err,
        weights_monotone=weights_monotone,
        min_weight_delta=min_delta,
        final_weight_rate=final_weight_rate,
        tracking_error=tracking_error,
        certificate_margin=check.margin,
        certificate_ok=check.is_certificate,
        warnings=tuple(warnings),
    )


def render_value(value) -> str:
    """The text of one value: booleans lowercase, ints and text unchanged,
    other numbers %.17g, and a vector its entries' texts space-separated."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (str, numbers.Integral)):
        return str(value)
    if np.ndim(value):
        return " ".join(render_value(v) for v in value)
    return format(float(value), ".17g")


def render_pairs(pairs, label: str = "") -> str:
    """One ``key = value`` line per (key, value) pair, each prefixed
    ``label :: `` when a label is given; a matrix gives one ``key | row``
    line per row instead.  The CLI prints every result line through it."""
    prefix = f"{label} :: " if label else ""
    lines = []
    for key, value in pairs:
        if np.ndim(value) == 2:
            lines.extend(f"{prefix}{key} | {render_value(row)}" for row in value)
        else:
            lines.append(f"{prefix}{key} = {render_value(value)}")
    return "\n".join(lines)


def render_report(report: CostReport, label: str = "") -> str:
    """``render_pairs`` of the report's fields in declaration order, then one
    ``warning_i`` line per warning."""
    pairs = [(item.name, getattr(report, item.name)) for item in fields(report) if item.name != "warnings"]
    pairs += [(f"warning_{idx}", message) for idx, message in enumerate(report.warnings, start=1)]
    return render_pairs(pairs, label)


_REFERENCE_CASES = {
    "example-1": {
        "b": np.array([[0.0], [1.0]]),
        "certificate": np.array(
            [
                [223.5978, 3.9324],
                [3.9324, 2.1307],
            ]
        ),
        "k_u": np.array([[3.9324, 2.1307]]),
        "k_w_entries": {
            (0, 0): 15.4638,
            (0, 1): 8.3788,
            (1, 0): 8.3788,
            (1, 1): 4.5399,
        },
    },
    "example-2": {
        "b": np.array([[1.0], [19.0], [0.0], [0.0]]),
        "certificate": np.array(
            [
                [7.7420, -0.1280, -6.0953, 0.6304],
                [-0.1280, 0.0404, 0.1680, 0.0148],
                [-6.0953, 0.1680, 7.0299, 0.1259],
                [0.6304, 0.0148, 0.1259, 0.7516],
            ]
        ),
        "k_u": np.array([[5.3100, 0.6396, -2.9033, 0.9116]]),
        "k_w_entries": {(0, 0): 28.1961},
    },
}


def verify_reference_gains(which: str, certificate=None) -> dict:
    """Check the gain algebra against embedded reference values.

    Recomputes K_u = B^T P and K_w = P B B^T P from the stored certificate
    and compares entrywise against the reference gains to 1e-3 (they carry
    four decimals).  Returns a report dict with per-entry deviations.
    ``certificate`` replaces the embedded matrix for sensitivity checks.
    """
    if which not in _REFERENCE_CASES:
        raise VerificationError(
            f"unknown reference case {which!r}; expected one of {sorted(_REFERENCE_CASES)}"
        )
    case = _REFERENCE_CASES[which]
    tol = 1e-3
    p = case["certificate"] if certificate is None else matops.as_matrix(certificate, "certificate")
    b = case["b"]
    k_u = b.T @ p
    k_w = p @ b @ b.T @ p
    k_u_dev = float(np.abs(k_u - case["k_u"]).max())
    k_w_dev = 0.0
    for (i, j), expected in case["k_w_entries"].items():
        k_w_dev = max(k_w_dev, abs(float(k_w[i, j]) - expected))
    passed = k_u_dev <= tol and k_w_dev <= tol
    return {
        "case": which,
        "k_u": k_u.ravel().copy(),
        "k_w": k_w,
        "k_u_max_deviation": k_u_dev,
        "k_w_max_deviation": k_w_dev,
        "tolerance": tol,
        "passed": passed,
        "reference_total": REFERENCE_TOTALS[which],
    }
