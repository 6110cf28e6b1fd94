"""Dense linear-algebra kernel.

Provides the linear solve, symmetric eigenvalues, matrix exponential,
matrix sign function, and continuous algebraic Riccati equation (CARE) solver
used by the synthesis and simulation layers.  The solve and the eigenvalues
call LAPACK through ``np.linalg``, which ships inside NumPy, the package's
only dependency; the matrix exponential, the sign iteration and the CARE
checks are written here on top of them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "LinearAlgebraError",
    "ShapeError",
    "SymmetryError",
    "ConvergenceError",
    "SingularMatrixError",
    "SignFunctionError",
    "NotStabilizableError",
    "as_matrix",
    "sym_eig",
    "lu_solve",
    "matrix_exp",
    "matrix_sign",
    "care_solve",
    "is_positive_definite",
]


class LinearAlgebraError(Exception):
    """Base class for failures in the dense linear-algebra kernel."""


class ShapeError(LinearAlgebraError):
    """Operand dimensions are inconsistent with the operation."""


class SymmetryError(LinearAlgebraError):
    """An operation requiring a symmetric matrix received a non-symmetric one."""


class ConvergenceError(LinearAlgebraError):
    """The symmetric eigensolver failed to converge."""


class SingularMatrixError(LinearAlgebraError):
    """A linear system's matrix is singular within the solver's threshold."""


class SignFunctionError(LinearAlgebraError):
    """Sign-function Newton iteration failed (eigenvalues too close to the imaginary axis)."""


class NotStabilizableError(LinearAlgebraError):
    """CARE synthesis failed; the input pair admits no stabilizing solution."""


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    m = np.array(values, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _square(values, name: str) -> np.ndarray:
    m = as_matrix(values, name)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be square, got {m.shape[0]}x{m.shape[1]}")
    return m


def _require_symmetric(m: np.ndarray, name: str, rel: float = 1e-10) -> None:
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > rel * scale:
        raise SymmetryError(f"{name} is not symmetric within {rel:g} relative tolerance")


def sym_eig(m) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, by LAPACK's symmetric eigensolver."""
    a = _square(m, "m")
    _require_symmetric(a, "m")
    try:
        return np.linalg.eigvalsh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver did not converge: {exc}") from exc


def lu_solve(m, rhs) -> np.ndarray:
    """Solve m @ x = rhs by LAPACK's partially pivoted LU factorization.

    LAPACK only rejects an exactly zero pivot, so m is first rejected as
    singular when its smallest singular value is at most 1e-13 times its
    largest; ``matrix_exp`` and ``care_solve``'s subspace solve rely on this.
    """
    a = _square(m, "m")
    b = np.array(rhs, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise ShapeError(f"rhs has {b.shape[0]} rows, expected {a.shape[0]}")
    try:
        singular_values = np.linalg.svd(a, compute_uv=False)
        if singular_values[-1] <= 1e-13 * singular_values[0]:
            raise SingularMatrixError(
                f"smallest singular value {singular_values[-1]:.3e} is at most 1e-13 of the largest"
            )
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"LAPACK solve failed: {exc}") from exc


_PADE6 = (1.0, 1.0 / 2.0, 5.0 / 44.0, 1.0 / 66.0, 1.0 / 792.0, 1.0 / 15840.0, 1.0 / 665280.0)


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a degree-6 Pade core."""
    a = _square(m, "m")
    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=1).max()) if n else 0.0
    squarings = 0
    if norm > 0.5:
        squarings = max(0, int(math.ceil(math.log2(norm / 0.5))))
        a = a / (2.0**squarings)
    ident = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    even = _PADE6[0] * ident + _PADE6[2] * a2 + _PADE6[4] * a4 + _PADE6[6] * a6
    odd = a @ (_PADE6[1] * ident + _PADE6[3] * a2 + _PADE6[5] * a4)
    result = lu_solve(even - odd, even + odd)
    for _ in range(squarings):
        result = result @ result
    return result


def matrix_sign(m) -> np.ndarray:
    """Matrix sign function by Newton iteration Z <- (mu Z + Z^-1 / mu)/2.

    mu is Byers' determinant scaling |det Z|^(-1/n), taken from ``slogdet``
    so it cannot overflow, until a step moves Z by less than 1e-2 relative;
    the iteration then finishes unscaled (mu = 1).  Fails when the input has
    eigenvalues on (or numerically touching) the imaginary axis: an iterate
    whose 1-norm condition ||Z||_1 ||Z^-1||_1, read off the inverse each step
    computes anyway, reaches 1e13 is rejected, as is a result that is not an
    involution.
    """
    z = _square(m, "m")
    max_iterations = 100
    scaled = True
    for _ in range(max_iterations):
        try:
            z_inv = np.linalg.inv(z)
        except np.linalg.LinAlgError as exc:
            raise SignFunctionError("sign iteration hit a singular iterate") from exc
        condition = float(np.abs(z).sum(axis=0).max() * np.abs(z_inv).sum(axis=0).max())
        if not condition < 1e13:
            raise SignFunctionError(f"sign iterate has 1-norm condition {condition:.3e}, at least 1e13")
        mu = math.exp(-np.linalg.slogdet(z)[1] / len(z)) if scaled else 1.0
        z_next = 0.5 * (mu * z + z_inv / mu)
        delta = float(np.abs(z_next - z).max())
        scale = float(np.abs(z_next).max())
        z = z_next
        if delta < 1e-12 * scale:
            break
        scaled = scaled and delta >= 1e-2 * scale
    else:
        raise SignFunctionError(f"sign iteration did not converge in {max_iterations} iterations")
    residual = float(np.abs(z @ z - np.eye(z.shape[0])).max())
    if residual > 1e-8:
        raise SignFunctionError(f"sign involution residual {residual:.3e} exceeds 1e-8")
    return z


def care_solve(a, b, q_hat, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve P A + A^T P - gamma P B B^T P + q_hat = 0 for symmetric P >= 0.

    Uses the sign function of the Hamiltonian matrix to extract the stable
    invariant subspace, and returns P with its ascending eigenvalues.  Raises
    NotStabilizableError when no stabilizing solution exists: a sign failure,
    an indefinite P, or a Riccati residual R whose largest |entry| or largest
    eigenvalue exceeds 1e-7 (1 + ||P||_F^2).
    """
    a = _square(a, "a")
    b_mat = as_matrix(b, "b")
    q = _square(q_hat, "q_hat")
    d = a.shape[0]
    if b_mat.shape[0] != d:
        raise ShapeError(f"b has {b_mat.shape[0]} rows, expected {d}")
    if q.shape[0] != d:
        raise ShapeError(f"q_hat is {q.shape[0]}x{q.shape[1]}, expected {d}x{d}")
    _require_symmetric(q, "q_hat")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    g = gamma * (b_mat @ b_mat.T)
    hamiltonian = np.block([[a, -g], [-q, -a.T]])
    try:
        s = matrix_sign(hamiltonian)
    except SignFunctionError as exc:
        raise NotStabilizableError("Hamiltonian sign iteration failed; pair is not stabilizable") from exc
    s11 = s[:d, :d]
    s12 = s[:d, d:]
    s21 = s[d:, :d]
    s22 = s[d:, d:]
    stacked = np.vstack([s12, s22 + np.eye(d)])
    rhs = -np.vstack([s11 + np.eye(d), s21])
    try:
        p = lu_solve(stacked.T @ stacked, stacked.T @ rhs)
    except SingularMatrixError as exc:
        raise NotStabilizableError("stable-subspace system is singular") from exc
    p = 0.5 * (p + p.T)
    eigenvalues = sym_eig(p)
    if eigenvalues[0] < -1e-9 * max(1.0, float(np.abs(eigenvalues).max())):
        raise NotStabilizableError(f"solution is indefinite (min eigenvalue {eigenvalues[0]:.3e})")
    # pb pb^T keeps the residual exactly symmetric, as sym_eig requires
    pb = p @ b_mat
    residual = p @ a + a.T @ p - gamma * (pb @ pb.T) + q
    size, margin = float(np.abs(residual).max()), float(sym_eig(residual)[-1])
    limit = 1e-7 * (1.0 + float((p * p).sum()))
    if max(size, margin) > limit:
        raise NotStabilizableError(
            f"Riccati residual (largest |entry| {size:.3e}, lambda_max {margin:.3e}) exceeds {limit:.3e}"
        )
    return p, eigenvalues


def is_positive_definite(m, tol: float = 1e-9) -> bool:
    """True when every eigenvalue of the symmetric input is >= tol."""
    return float(sym_eig(m)[0]) >= tol
