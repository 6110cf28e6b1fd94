"""Protocol gain synthesis from translated Riccati conditions.

The leaderless design solves P A + A^T P - gamma P B B^T P + 2 Q = 0 and the
leader-follower design solves the same equation with multiplier 3, yielding
the gain pair K_u = B^T P and K_w = P B B^T P.  The translation factor gamma
shifts the nonzero Laplacian spectrum, so no global topology information
enters the design.  The module also verifies the matrix-inequality form of
the conditions (certificates and the LMI feasibility variant) and regulates
the gain magnitude by a one-dimensional search over gamma.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import matops
from ._record import Record

__all__ = [
    "LEADERLESS",
    "LEADER_FOLLOWER",
    "COST_MULTIPLIER",
    "SynthesisError",
    "WeightMatrixError",
    "RegulationError",
    "GainSet",
    "LmiReport",
    "design_leaderless",
    "design_leader_follower",
    "verify_riccati_certificate",
    "verify_lmi_corollary",
    "regulate_gain",
]

LEADERLESS = "leaderless"
LEADER_FOLLOWER = "leader-follower"
COST_MULTIPLIER = {LEADERLESS: 2, LEADER_FOLLOWER: 3}
# regulate_gain's gamma search starts at GAMMA_MIN and brackets upward no further than GAMMA_MAX
GAMMA_MIN, GAMMA_MAX = 1e-6, 1e12


class SynthesisError(Exception):
    """Gain synthesis failed."""


class WeightMatrixError(SynthesisError):
    """Cost weight matrix Q is not symmetric positive definite."""


class RegulationError(SynthesisError):
    """Gain regulation search failed (infeasible bounds or non-monotone spectrum)."""


class GainSet(Record):
    """Synthesized protocol gains with their Riccati certificate and plant.

    ``certificate`` is the symmetric positive definite solution matrix,
    ``k_u`` = B^T certificate drives the control protocol, and
    ``k_w`` = certificate B B^T certificate drives the adaptive weights.
    The plant matrices ride along so simulation and verification are
    self-contained.
    """

    mode: str
    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    gamma: float
    certificate: np.ndarray
    k_u: np.ndarray = None  # type: ignore[assignment]
    k_w: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.mode not in COST_MULTIPLIER:
            raise ValueError(f"mode must be one of {sorted(COST_MULTIPLIER)}, got {self.mode!r}")
        if self.k_u is None:
            object.__setattr__(self, "k_u", self.b.T @ self.certificate)
        if self.k_w is None:
            object.__setattr__(self, "k_w", self.k_u.T @ self.k_u)

    @property
    def multiplier(self) -> int:
        return COST_MULTIPLIER[self.mode]

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @functools.cached_property
    def certificate_margin(self) -> float:
        """The Riccati inequality's margin (``verify_riccati_certificate``), checked on first read only."""
        return verify_riccati_certificate(self.certificate, self.a, self.b, self.q, self.gamma, self.multiplier)


class LmiReport(Record):
    """Feasibility report for the LMI form of the synthesis condition."""

    feasible: bool
    xi_negative_definite: bool
    xi_max_eigenvalue: float
    floor_satisfied: bool
    certificate_min_eigenvalue: float
    bbt_max_eigenvalue: float
    bbt_precondition_ok: bool
    strict: bool
    rescale_factor: float
    gamma_equivalent: float


def _checked_plant(a, b, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a, b, q = matops._plant(a, b, q)
    if not matops.sym_eig(q)[0] >= 1e-12:
        raise WeightMatrixError("q must be symmetric positive definite")
    return a, b, q


def _input_scaling(b: np.ndarray) -> tuple[float, bool]:
    """lambda_max(B B^T), and whether it meets the LMI's input-scaling precondition <= 1 (to 1e-9)."""
    bbt_max = float(matops.sym_eig(b @ b.T)[-1])
    return bbt_max, bbt_max <= 1.0 + 1e-9


def _design(mode: str, a, b, q, gamma: float) -> tuple[GainSet, float]:
    """Gains for a plant already passed through _checked_plant, with lambda_max of their certificate."""
    certificate, eigenvalues = matops.care_solve(a, b, COST_MULTIPLIER[mode] * q, gamma)
    return GainSet(mode=mode, a=a, b=b, q=q, gamma=gamma, certificate=certificate), float(eigenvalues[-1])


def design_leaderless(a, b, q, gamma: float) -> GainSet:
    """Leaderless gain design: CARE with cost multiplier 2."""
    return _design(LEADERLESS, *_checked_plant(a, b, q), gamma)[0]


def design_leader_follower(a, b, q, gamma_l: float) -> GainSet:
    """Leader-follower gain design: CARE with cost multiplier 3."""
    return _design(LEADER_FOLLOWER, *_checked_plant(a, b, q), gamma_l)[0]


def verify_riccati_certificate(certificate, a, b, q, gamma: float, multiplier: int) -> float:
    """The Riccati inequality's margin for a candidate certificate.

    Returns the maximum eigenvalue of certificate A + A^T certificate
    - gamma certificate B B^T certificate + multiplier Q; the certificate
    holds when the margin is at most the run's ``certificate`` tolerance.
    A residual that overflows gives ``inf``: the inequality is not shown.
    """
    a, b, q = matops._plant(a, b, q)
    p = matops._symmetric(certificate, "certificate", a.shape[0])
    residual = matops._riccati_residual(p, a, b, multiplier * q, gamma)
    return float(matops.sym_eig(residual)[-1]) if np.isfinite(residual).all() else math.inf


def verify_lmi_corollary(
    p_tilde, gamma: float, a, b, q, multiplier: int, delta: float, strict: bool = True
) -> LmiReport:
    """Feasibility check of the LMI form of the synthesis condition.

    Assembles Xi = [[A P~ + P~ A^T - gamma B B^T, multiplier P~ Q],
                    [multiplier Q P~, -multiplier Q]] and requires Xi < 0,
    P~ >= (1/delta) I, and the input-scaling precondition
    lambda_max(B B^T) <= 1 (``_input_scaling``).  In strict mode a violated
    precondition makes the report infeasible; in relaxed mode it is reported
    but waived, and ``rescale_factor`` and ``gamma_equivalent`` report the
    pair that rescales B to unit spectral norm with gamma compensated.  That
    pair leaves gamma B B^T unchanged, so both modes assemble the same Xi.
    """
    a, b, q = matops._plant(a, b, q)
    pt = matops._symmetric(p_tilde, "p_tilde", a.shape[0])
    bbt_max, bbt_ok = _input_scaling(b)
    rescaled = not (bbt_ok or strict)
    xi = np.block(
        [
            [a @ pt + pt @ a.T - gamma * (b @ b.T), multiplier * (pt @ q)],
            [multiplier * (q @ pt), -multiplier * q],
        ]
    )
    xi_max = float(matops.sym_eig(xi)[-1])
    xi_nd = xi_max < -1e-12 * max(1.0, float(np.abs(xi).max()))
    pt_min = float(matops.sym_eig(pt)[0])
    floor = 0.0 if math.isinf(delta) else 1.0 / delta
    floor_ok = pt_min >= floor - 1e-9 * max(1.0, floor)
    feasible = xi_nd and floor_ok and (bbt_ok or not strict)
    return LmiReport(
        feasible=feasible,
        xi_negative_definite=xi_nd,
        xi_max_eigenvalue=xi_max,
        floor_satisfied=floor_ok,
        certificate_min_eigenvalue=pt_min,
        bbt_max_eigenvalue=bbt_max,
        bbt_precondition_ok=bbt_ok,
        strict=strict,
        rescale_factor=math.sqrt(bbt_max) if rescaled else 1.0,
        gamma_equivalent=gamma * bbt_max if rescaled else gamma,
    )


def regulate_gain(a, b, q, delta: float, mode: str = LEADERLESS, strict: bool = False) -> GainSet:
    """Find the smallest gamma whose certificate satisfies lambda_max <= delta.

    Works in u = log gamma on f(u) = log(lambda_max(P(gamma)) / (delta
    (1 + 1e-9))).  Brackets the root by factors of 16 from GAMMA_MIN, then
    runs the Illinois method (regula falsi that halves the kept end's f when
    the same end is kept twice) until the bracket is 1e-13 wide in u, i.e.
    relative in gamma.  A secant point outside the bracket falls back to
    bisection, and every point stays 2.5e-14 inside it, so a point next to
    the root closes the bracket with the next solve.  Returns the feasible
    end's gains, whose lambda_max is at most delta (1 + 1e-9).
    The expected monotone nonincrease of lambda_max(P(gamma)) in gamma is
    checked at every evaluation; a violation raises RegulationError instead
    of silently searching a non-monotone function.  So does a CARE solve
    that fails while bracketing upward from a solvable GAMMA_MIN, with the
    best lambda_max reached.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    if mode not in COST_MULTIPLIER:
        raise ValueError(f"mode must be one of {sorted(COST_MULTIPLIER)}, got {mode!r}")
    a, b, q = _checked_plant(a, b, q)
    if strict:
        bbt_max, bbt_ok = _input_scaling(b)
        if not bbt_ok:
            raise RegulationError(f"strict mode requires lambda_max(B B^T) <= 1, got {bbt_max:.6g}")
    target = delta * (1.0 + 1e-9)

    def evaluate(gamma: float, lam_lo: float, lam_hi: float) -> tuple[float, GainSet]:
        """lambda_max(P(gamma)), checked to lie between the bracket ends' values."""
        gains, lam = _design(mode, a, b, q, gamma)
        slack = 1e-9 * (1.0 + abs(lam_lo) + abs(lam))
        if lam > lam_lo + slack or lam < lam_hi - slack:
            raise RegulationError(
                "lambda_max(P(gamma)) is not nonincreasing in gamma; the search bracket is invalid"
            )
        return lam, gains

    def infeasible(best: float, detail: str = "") -> RegulationError:
        return RegulationError(
            f"no gamma in [{GAMMA_MIN:g}, {GAMMA_MAX:g}] achieves lambda_max <= {delta:g} (best {best:.6g}{detail})"
        )

    gamma = GAMMA_MIN
    lam_hi, gains_hi = evaluate(gamma, math.inf, -math.inf)
    if not lam_hi > target:  # GAMMA_MIN meets the target; "not >" returns a NaN here too
        return gains_hi
    while lam_hi > target:
        if gamma >= GAMMA_MAX:
            raise infeasible(lam_hi)
        u_lo, lam_lo = math.log(gamma), lam_hi
        gamma = min(16.0 * gamma, GAMMA_MAX)
        try:
            lam_hi, gains_hi = evaluate(gamma, lam_lo, -math.inf)
        except matops.NotStabilizableError as exc:
            # lambda_max(P) levels off as gamma grows while the Hamiltonian
            # becomes too ill-conditioned to solve: report the best value reached
            raise infeasible(lam_lo, f"; the CARE solve fails at gamma {gamma:g}") from exc
    u_hi = math.log(gamma)
    f_lo, f_hi = math.log(lam_lo / target), math.log(lam_hi / target)
    side = 0  # +1 after a step that moved the feasible end, -1 after one that moved the other
    while u_hi - u_lo > 1e-13:
        u = u_hi - f_hi * (u_hi - u_lo) / (f_hi - f_lo) if f_lo > f_hi else math.nan
        if not u_lo <= u <= u_hi:
            u = 0.5 * (u_lo + u_hi)
        u = min(max(u, u_lo + 2.5e-14), u_hi - 2.5e-14)
        lam, gains = evaluate(math.exp(u), lam_lo, lam_hi)
        if lam <= target:
            u_hi, lam_hi, f_hi, gains_hi = u, lam, math.log(lam / target), gains
            f_lo *= 0.5 if side == 1 else 1.0
            side = 1
        else:
            u_lo, lam_lo, f_lo = u, lam, math.log(lam / target)
            f_hi *= 0.5 if side == -1 else 1.0
            side = -1
    return gains_hi
