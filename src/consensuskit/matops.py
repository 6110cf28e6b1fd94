"""Dense linear-algebra kernel.

Provides the symmetric eigenvalues, matrix exponential, matrix sign function
and continuous algebraic Riccati equation (CARE) solver used by the synthesis
and simulation layers.  Every factorization is LAPACK through ``np.linalg``,
which ships inside NumPy, the package's only dependency; the matrix
exponential, the sign iteration and the CARE checks are written here on top
of them.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "LinearAlgebraError",
    "ShapeError",
    "SymmetryError",
    "SignFunctionError",
    "NotStabilizableError",
    "as_matrix",
    "sym_eig",
    "matrix_exp",
    "matrix_sign",
    "care_solve",
]


class LinearAlgebraError(Exception):
    """Base class for failures in the dense linear-algebra kernel."""


class ShapeError(LinearAlgebraError):
    """Operand dimensions are inconsistent with the operation."""


class SymmetryError(LinearAlgebraError):
    """An operation requiring a symmetric matrix received a non-symmetric one."""


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


def _require_symmetric(m: np.ndarray, name: str) -> None:
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-10 * scale:
        raise SymmetryError(f"{name} is not symmetric within 1e-10 relative tolerance")


def _symmetric(values, name: str, d: int) -> np.ndarray:
    """A finite d x d matrix, symmetric within 1e-10 relative tolerance."""
    m = as_matrix(values, name)
    if m.shape != (d, d):
        raise ShapeError(f"{name} is {m.shape[0]}x{m.shape[1]}, expected {d}x{d}")
    _require_symmetric(m, name)
    return m


def _plant(a, b, q, q_name: str = "q") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The plant rule: A square, B with A's rows, Q symmetric of A's size; errors name the caller's argument."""
    a = _square(a, "a")
    b = as_matrix(b, "b")
    d = a.shape[0]
    if b.shape[0] != d:
        raise ShapeError(f"b has {b.shape[0]} rows, expected {d}")
    return a, b, _symmetric(q, q_name, d)


def sym_eig(m) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, by LAPACK's symmetric eigensolver."""
    a = _square(m, "m")
    _require_symmetric(a, "m")
    return np.linalg.eigvalsh(0.5 * (a + a.T))


_PADE6 = (1.0, 1.0 / 2.0, 5.0 / 44.0, 1.0 / 66.0, 1.0 / 792.0, 1.0 / 15840.0, 1.0 / 665280.0)


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring; at norm <= 0.5 the degree-6 Pade denominator is well conditioned."""
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
    result = np.linalg.solve(even - odd, even + odd)
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

    Takes the sign function S of the Hamiltonian matrix; its stable invariant
    subspace gives P as the least-squares solution of [S12; S22 + I] P =
    -[S11 + I; S21] (Gardiner and Laub 1986, Byers 1987).  Returns P with its
    ascending eigenvalues.  Raises NotStabilizableError when no stabilizing
    solution exists: a gamma B B^T that overflows, a sign failure, a stacked
    system with smallest singular value at most 1e-13 of its largest, an
    indefinite P, or a Riccati residual R that is not finite or whose largest
    |entry| or largest eigenvalue exceeds 1e-7 (1 + ||P||_F^2).
    """
    a, b_mat, q = _plant(a, b, q_hat, "q_hat")
    d = a.shape[0]
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is judged below
        g = gamma * (b_mat @ b_mat.T)
    if not np.isfinite(g).all():
        raise NotStabilizableError(f"gamma B B^T overflows at gamma {gamma:g}")
    hamiltonian = np.block([[a, -g], [-q, -a.T]])
    try:
        s = matrix_sign(hamiltonian)
    except SignFunctionError as exc:
        raise NotStabilizableError("Hamiltonian sign iteration failed; pair is not stabilizable") from exc
    s11, s12, s21, s22 = s[:d, :d], s[:d, d:], s[d:, :d], s[d:, d:]
    stacked = np.vstack([s12, s22 + np.eye(d)])
    rhs = -np.vstack([s11 + np.eye(d), s21])
    try:
        p, _, _, singular_values = np.linalg.lstsq(stacked, rhs, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise NotStabilizableError(f"stable-subspace least-squares solve failed: {exc}") from exc
    if not singular_values[-1] > 1e-13 * singular_values[0]:
        raise NotStabilizableError("stable-subspace system is singular")
    p = 0.5 * (p + p.T)
    eigenvalues = sym_eig(p)
    if eigenvalues[0] < -1e-9 * max(1.0, float(np.abs(eigenvalues).max())):
        raise NotStabilizableError(f"solution is indefinite (min eigenvalue {eigenvalues[0]:.3e})")
    residual = _riccati_residual(p, a, b_mat, q, gamma)
    size = float(np.abs(residual).max())
    margin = float(sym_eig(residual)[-1]) if math.isfinite(size) else size
    limit = 1e-7 * (1.0 + float((p * p).sum()))
    if not (size <= limit and margin <= limit):
        raise NotStabilizableError(
            f"Riccati residual (largest |entry| {size:.3e}, lambda_max {margin:.3e}) exceeds {limit:.3e}"
        )
    return p, eigenvalues


def _riccati_residual(p: np.ndarray, a: np.ndarray, b: np.ndarray, q_hat: np.ndarray, gamma: float) -> np.ndarray:
    """P A + A^T P - gamma (P B)(P B)^T + q_hat, symmetrized for sym_eig: BLAS need not round A^T P as (P A)^T."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is left to each caller to judge
        pb = p @ b
        residual = p @ a + a.T @ p - gamma * (pb @ pb.T) + q_hat
        return 0.5 * (residual + residual.T)
