import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import consensuskit
from consensuskit import matops
from test_synthesis import A1, A2, B1, B2, Q1, Q2


# ---------------------------------------------------------------- as_matrix


def test_as_matrix_accepts_nested_lists():
    m = matops.as_matrix([[1, 2], [3, 4]], "m")
    assert m.dtype == np.float64
    assert m.shape == (2, 2)


def test_as_matrix_promotes_1d_to_row_and_rejects_3d():
    row = matops.as_matrix([1.0, 2.0], "m")
    assert row.shape == (1, 2)
    with pytest.raises(matops.ShapeError):
        matops.as_matrix(np.zeros((2, 2, 2)), "m")


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        matops.as_matrix([[1.0, float("nan")]], "m")


# ------------------------------------------------------------------ sym_eig


def test_sym_eig_2x2_closed_form():
    eigenvalues = matops.sym_eig([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(eigenvalues, [1.0, 3.0], atol=1e-12)


def test_sym_eig_tridiagonal_closed_form():
    # eigenvalues of the 3x3 Toeplitz tridiagonal [[4,1,0],[1,4,1],[0,1,4]]
    # are 4 + 2 cos(k pi / 4), k = 1..3
    m = [[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]]
    expected = sorted(4.0 + 2.0 * math.cos(k * math.pi / 4.0) for k in (1, 2, 3))
    assert np.allclose(matops.sym_eig(m), expected, atol=1e-12)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(matops.SymmetryError):
        matops.sym_eig([[1.0, 2.0], [0.0, 1.0]])


# ------------------------------------------------------ lu_solve and friends


def test_lu_solve_known_system():
    m = [[3.0, 1.0], [1.0, 2.0]]
    x = matops.lu_solve(m, [9.0, 8.0])
    assert np.allclose(x, [2.0, 3.0], atol=1e-14)


def test_lu_solve_matrix_rhs():
    m = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = matops.lu_solve(m, np.eye(2))
    assert np.allclose(x, [[0.5, 0.0], [0.0, 0.25]], atol=1e-15)


def test_lu_solve_requires_pivoting():
    m = [[0.0, 1.0], [1.0, 0.0]]
    x = matops.lu_solve(m, [2.0, 5.0])
    assert np.allclose(x, [5.0, 2.0], atol=1e-15)


def test_lu_solve_singular_raises():
    with pytest.raises(matops.SingularMatrixError):
        matops.lu_solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


@pytest.mark.parametrize(
    "m",
    [[[1.0, 1.0], [1.0, 1.0 + 1e-15]], np.diag([1e-14, 1.0])],
    ids=["rank-one-within-1e-15", "diag-1e-14"],
)
def test_near_singular_matrix_rejected(m):
    # LAPACK alone would solve these; the singular-value check rejects them
    with pytest.raises(matops.SingularMatrixError):
        matops.lu_solve(m, [1.0, 2.0])


def test_ill_conditioned_matrix_above_the_threshold_solves():
    eps = (1.0 + 1e-12) - 1.0  # the perturbation as stored
    m = np.array([[1.0, 1.0], [1.0, 1.0 + eps]])
    # condition number ~4e12 leaves a relative error of up to ~5e-4
    assert np.allclose(matops.lu_solve(m, [1.0, 2.0]), [1.0 - 1.0 / eps, 1.0 / eps], rtol=1e-2)


# --------------------------------------------------------------- matrix_exp


def test_matrix_exp_zero_is_identity():
    assert np.allclose(matops.matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_matrix_exp_nilpotent():
    m = [[0.0, 1.0], [0.0, 0.0]]
    assert np.allclose(matops.matrix_exp(m), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_matrix_exp_diagonal():
    m = np.diag([1.0, -2.0, 0.5])
    expected = np.diag(np.exp([1.0, -2.0, 0.5]))
    assert np.abs(matops.matrix_exp(m) - expected).max() < 1e-13


def test_matrix_exp_oscillator_closed_form():
    # for a = [[0,1],[-100,0]]: e^{a t} = [[cos 10t, sin(10t)/10],
    #                                      [-10 sin 10t, cos 10t]]
    a = np.array([[0.0, 1.0], [-100.0, 0.0]])
    t = 0.37
    expected = np.array(
        [
            [math.cos(10 * t), math.sin(10 * t) / 10.0],
            [-10.0 * math.sin(10 * t), math.cos(10 * t)],
        ]
    )
    assert np.abs(matops.matrix_exp(a * t) - expected).max() < 1e-11


def test_matrix_exp_semigroup_property():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4))
    once = matops.matrix_exp(m)
    twice = matops.matrix_exp(2.0 * m)
    assert np.abs(once @ once - twice).max() < 1e-10 * max(1.0, np.abs(twice).max())


# -------------------------------------------------------------- matrix_sign


def test_matrix_sign_diagonal():
    s = matops.matrix_sign(np.diag([-3.0, 5.0]))
    assert np.allclose(s, np.diag([-1.0, 1.0]), atol=1e-10)


def test_matrix_sign_stable_matrix_is_minus_identity():
    m = [[-1.0, 2.0], [0.0, -2.0]]
    assert np.allclose(matops.matrix_sign(m), -np.eye(2), atol=1e-10)


def test_matrix_sign_involution():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(5, 5)) + 0.5 * np.eye(5)
    s = matops.matrix_sign(m)
    assert np.abs(s @ s - np.eye(5)).max() < 1e-8


def test_matrix_sign_imaginary_axis_fails():
    with pytest.raises(matops.LinearAlgebraError):
        matops.matrix_sign([[0.0, 1.0], [-1.0, 0.0]])


def hamiltonian(a, b, q_hat, gamma):
    """The matrix care_solve takes the sign of."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.block([[a, -gamma * (b @ b.T)], [-np.asarray(q_hat, dtype=float), -a.T]])


@pytest.mark.parametrize(
    "plant, multiplier, gamma",
    [
        ("example-1", 2, 2.0),
        ("example-1", 2, 0.4467),
        ("example-2", 3, 0.2),
        ("example-2", 3, 0.00152),
        ("example-2", 2, 0.00646),
        ("example-2", 2, 16.78),
    ],
)
def test_matrix_sign_converges_within_10_steps_on_the_example_hamiltonians(plant, multiplier, gamma, monkeypatch):
    # the demos' gammas, the regulated gammas of the cli-certify and ROADMAP
    # cases, and a bracketing gamma; one inverse per Newton step
    a, b, q = {"example-1": (A1, B1, Q1), "example-2": (A2, B2, Q2)}[plant]
    steps = []
    original = np.linalg.inv

    def counting(m):
        steps.append(m)
        return original(m)

    monkeypatch.setattr(matops.np.linalg, "inv", counting)
    s = matops.matrix_sign(hamiltonian(a, b, multiplier * q, gamma))
    assert len(steps) <= 10
    assert np.abs(s @ s - np.eye(len(s))).max() < 1e-8


def test_sign_iterate_condition_rejects_near_imaginary_axis_hamiltonian():
    # an uncontrolled mode at +1e-14 puts Hamiltonian eigenvalues +-1e-14
    # beside +-sqrt(2); the first iterate's 1-norm condition is about 1e28
    a = np.diag([1e-14, -1.0])
    b = [[0.0], [1.0]]
    with pytest.raises(matops.SignFunctionError, match="1-norm condition"):
        matops.matrix_sign(hamiltonian(a, b, np.eye(2), 1.0))
    with pytest.raises(matops.NotStabilizableError):
        matops.care_solve(a, b, np.eye(2), 1.0)


# --------------------------------------------------------------- care_solve


def test_care_solve_scalar_golden_ratio():
    p = matops.care_solve([[1.0]], [[1.0]], [[2.0]], 2.0)
    assert abs(p[0, 0] - 1.618033988749895) < 1e-9


def test_care_solve_oscillator_closed_form():
    # for a = [[0,1],[-100,0]], b = [0,1]^T, q_hat = diag(2,4), gamma = 2 the
    # entries solve: p12 = (-100 + sqrt(10004)) / 2, p22 = sqrt(2 + p12),
    # p11 = 100 p22 + 2 p12 p22
    a = [[0.0, 1.0], [-100.0, 0.0]]
    b = [[0.0], [1.0]]
    q_hat = [[2.0, 0.0], [0.0, 4.0]]
    p = matops.care_solve(a, b, q_hat, 2.0)
    expected = np.array(
        [
            [141.80278557912814, 0.0099990001999489993],
            [0.0099990001999489993, 1.4177443352734442],
        ]
    )
    assert np.abs(p - expected).max() < 1e-9


def test_care_solve_rejects_bad_gamma():
    with pytest.raises(ValueError):
        matops.care_solve([[1.0]], [[1.0]], [[1.0]], 0.0)


def test_care_solve_not_stabilizable():
    a = [[1.0, 0.0], [0.0, 1.0]]
    b = [[1.0], [0.0]]
    with pytest.raises(matops.NotStabilizableError):
        matops.care_solve(a, b, np.eye(2), 1.0)


def test_care_solve_residual_and_definiteness_random():
    rng = np.random.default_rng(42)
    for trial in range(10):
        d = 2 + trial % 4
        a = rng.normal(size=(d, d))
        b = rng.normal(size=(d, 1))
        base = rng.normal(size=(d, d))
        q_hat = base @ base.T + np.eye(d)
        gamma = 1.5
        p = matops.care_solve(a, b, q_hat, gamma)
        residual = p @ a + a.T @ p - gamma * (p @ b) @ (p @ b).T + q_hat
        norm_sq = float((p * p).sum())
        assert np.sqrt((residual * residual).sum()) <= 1e-7 * (1.0 + norm_sq)
        assert matops.is_positive_definite(p, tol=0.0)


# ------------------------------------------------------------- definiteness


def test_is_positive_definite():
    assert matops.is_positive_definite([[2.0, 1.0], [1.0, 2.0]])
    assert not matops.is_positive_definite([[1.0, 1.0], [1.0, 1.0]])


# ------------------------------------------------------------- dependencies


def test_import_loads_no_scipy():
    # numpy is the only dependency; its LAPACK is the only decomposition backend
    code = "import sys, consensuskit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(consensuskit.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
