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

import math
from dataclasses import dataclass, field

import numpy as np

from . import matops

__all__ = [
    "LEADERLESS",
    "LEADER_FOLLOWER",
    "COST_MULTIPLIER",
    "SynthesisError",
    "WeightMatrixError",
    "RegulationError",
    "GainSet",
    "CertificateCheck",
    "LmiReport",
    "RegulationRequest",
    "design_leaderless",
    "design_leader_follower",
    "verify_riccati_certificate",
    "verify_lmi_corollary",
    "regulate_gain",
]

LEADERLESS = "leaderless"
LEADER_FOLLOWER = "leader-follower"
COST_MULTIPLIER = {LEADERLESS: 2, LEADER_FOLLOWER: 3}


class SynthesisError(Exception):
    """Gain synthesis failed."""


class WeightMatrixError(SynthesisError):
    """Cost weight matrix Q is not symmetric positive definite."""


class RegulationError(SynthesisError):
    """Gain regulation search failed (infeasible bounds or non-monotone spectrum)."""


@dataclass(frozen=True)
class GainSet:
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
    k_u: np.ndarray = field(default=None)  # type: ignore[assignment]
    k_w: np.ndarray = field(default=None)  # type: ignore[assignment]

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


@dataclass(frozen=True)
class CertificateCheck:
    """Verdict of the Riccati inequality check with its margin.

    ``margin`` is the maximum eigenvalue of
    certificate A + A^T certificate - gamma K_w + multiplier Q;
    the certificate is valid when the margin is at most the tolerance.
    """

    is_certificate: bool
    margin: float


@dataclass(frozen=True)
class LmiReport:
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


@dataclass(frozen=True)
class RegulationRequest:
    """Gain-factor target and gamma search bounds for regulate_gain."""

    delta: float
    gamma_min: float = 1e-6
    gamma_max: float = 1e12

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not (0.0 < self.gamma_min < self.gamma_max):
            raise ValueError("need 0 < gamma_min < gamma_max")


def _validated_plant(a, b, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = matops.as_matrix(a, "a")
    b = matops.as_matrix(b, "b")
    q = matops.as_matrix(q, "q")
    if a.shape[0] != a.shape[1]:
        raise matops.ShapeError(f"a must be square, got {a.shape}")
    d = a.shape[0]
    if b.shape[0] != d:
        raise matops.ShapeError(f"b has {b.shape[0]} rows, expected {d}")
    if q.shape != (d, d):
        raise matops.ShapeError(f"q is {q.shape[0]}x{q.shape[1]}, expected {d}x{d}")
    return a, b, q


def _checked_plant(a, b, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a, b, q = _validated_plant(a, b, q)
    if not matops.is_positive_definite(q, tol=1e-12):
        raise WeightMatrixError("q must be symmetric positive definite")
    return a, b, q


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


def verify_riccati_certificate(
    certificate, a, b, q, gamma: float, multiplier: int, tol: float = 1e-9
) -> CertificateCheck:
    """Check that a candidate certificate satisfies the Riccati inequality.

    Returns the negative-semidefiniteness verdict of
    certificate A + A^T certificate - gamma certificate B B^T certificate
    + multiplier Q together with its maximum eigenvalue (the margin).
    """
    a, b, q = _validated_plant(a, b, q)
    p = matops.as_matrix(certificate, "certificate")
    if p.shape != a.shape:
        raise matops.ShapeError(f"certificate is {p.shape[0]}x{p.shape[1]}, expected {a.shape[0]}x{a.shape[1]}")
    matops._require_symmetric(p, "certificate")
    pb = p @ b
    form = p @ a + a.T @ p - gamma * (pb @ pb.T) + multiplier * q
    margin = float(matops.sym_eig(form)[-1])
    return CertificateCheck(is_certificate=margin <= tol, margin=margin)


def verify_lmi_corollary(
    p_tilde, gamma: float, a, b, q, multiplier: int, delta: float, strict: bool = True
) -> LmiReport:
    """Feasibility check of the LMI form of the synthesis condition.

    Assembles Xi = [[A P~ + P~ A^T - gamma B B^T, multiplier P~ Q],
                    [multiplier Q P~, -multiplier Q]] and requires Xi < 0,
    P~ >= (1/delta) I, and the input-scaling precondition
    lambda_max(B B^T) <= 1.  In strict mode a violated precondition makes the
    report infeasible; in relaxed mode B is rescaled to unit spectral norm
    (gamma compensated, leaving gamma B B^T unchanged) and the precondition is
    reported but waived.
    """
    a, b, q = _validated_plant(a, b, q)
    pt = matops.as_matrix(p_tilde, "p_tilde")
    d = a.shape[0]
    if pt.shape != (d, d):
        raise matops.ShapeError(f"p_tilde is {pt.shape[0]}x{pt.shape[1]}, expected {d}x{d}")
    matops._require_symmetric(pt, "p_tilde")
    bbt = b @ b.T
    bbt_max = float(matops.sym_eig(bbt)[-1])
    bbt_ok = bbt_max <= 1.0 + 1e-9
    rescale = 1.0
    gamma_equivalent = gamma
    b_eff = b
    if not bbt_ok and not strict:
        rescale = math.sqrt(bbt_max)
        b_eff = b / rescale
        gamma_equivalent = gamma * bbt_max
    xi = np.block(
        [
            [a @ pt + pt @ a.T - gamma_equivalent * (b_eff @ b_eff.T), multiplier * (pt @ q)],
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
        rescale_factor=rescale,
        gamma_equivalent=gamma_equivalent,
    )


def regulate_gain(
    a, b, q, request: RegulationRequest, mode: str = LEADERLESS, strict: bool = False
) -> tuple[float, GainSet]:
    """Find the smallest gamma whose certificate satisfies lambda_max <= delta.

    Works in u = log gamma on f(u) = log(lambda_max(P(gamma)) / (delta
    (1 + 1e-9))).  Brackets the root by factors of 16 from gamma_min, then
    runs the Illinois method (regula falsi that halves the kept end's f when
    the same end is kept twice) until the bracket is 1e-13 wide in u, i.e.
    relative in gamma.  A secant point outside the bracket falls back to
    bisection, and every point stays 2.5e-14 inside it, so a point next to
    the root closes the bracket with the next solve.  Returns the feasible
    end, whose lambda_max is at most delta (1 + 1e-9).
    The expected monotone nonincrease of lambda_max(P(gamma)) in gamma is
    checked at every evaluation; a violation raises RegulationError instead
    of silently searching a non-monotone function.  So does a CARE solve
    that fails while bracketing upward from a solvable gamma_min, with the
    best lambda_max reached.
    """
    if mode not in COST_MULTIPLIER:
        raise ValueError(f"mode must be one of {sorted(COST_MULTIPLIER)}, got {mode!r}")
    a, b, q = _checked_plant(a, b, q)
    if strict:
        bbt_max = float(matops.sym_eig(b @ b.T)[-1])
        if bbt_max > 1.0 + 1e-9:
            raise RegulationError(
                f"strict mode requires lambda_max(B B^T) <= 1, got {bbt_max:.6g}"
            )
    target = request.delta * (1.0 + 1e-9)

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
            f"no gamma in [{request.gamma_min:g}, {request.gamma_max:g}] achieves "
            f"lambda_max <= {request.delta:g} (best {best:.6g}{detail})"
        )

    gamma, lam_lo = request.gamma_min, math.inf
    lam_hi, gains_hi = evaluate(gamma, lam_lo, -math.inf)
    while lam_hi > target:
        if gamma >= request.gamma_max:
            raise infeasible(lam_hi)
        u_lo, lam_lo = math.log(gamma), lam_hi
        gamma = min(16.0 * gamma, request.gamma_max)
        try:
            lam_hi, gains_hi = evaluate(gamma, lam_lo, -math.inf)
        except matops.NotStabilizableError as exc:
            # lambda_max(P) levels off as gamma grows while the Hamiltonian
            # becomes too ill-conditioned to solve: report the best value reached
            raise infeasible(lam_lo, f"; the CARE solve fails at gamma {gamma:g}") from exc
    if lam_lo == math.inf:  # gamma_min already meets the target
        return gamma, gains_hi
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
    return gains_hi.gamma, gains_hi
