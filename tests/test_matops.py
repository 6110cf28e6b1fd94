import functools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import consensuskit
from consensuskit import matops, sim, synthesis
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
    p, _ = matops.care_solve([[1.0]], [[1.0]], [[2.0]], 2.0)
    assert abs(p[0, 0] - 1.618033988749895) < 1e-9


def test_care_solve_oscillator_closed_form():
    # for a = [[0,1],[-100,0]], b = [0,1]^T, q_hat = diag(2,4), gamma = 2 the
    # entries solve: p12 = (-100 + sqrt(10004)) / 2, p22 = sqrt(2 + p12),
    # p11 = 100 p22 + 2 p12 p22
    a = [[0.0, 1.0], [-100.0, 0.0]]
    b = [[0.0], [1.0]]
    q_hat = [[2.0, 0.0], [0.0, 4.0]]
    p, _ = matops.care_solve(a, b, q_hat, 2.0)
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


def test_care_solve_rejects_an_indefinite_solution():
    # a = -1, q_hat = -0.5: the stabilizing root of p^2 + 2 p - 0.5 = 0 is negative
    with pytest.raises(matops.NotStabilizableError, match=r"^solution is indefinite \(min eigenvalue -2\.929e-01\)$"):
        matops.care_solve([[-1.0]], [[1.0]], [[-0.5]], 1.0)


def test_care_solve_residual_and_definiteness_random():
    # unstable plants over eight decades of gamma, where a small gamma makes P large
    rng = np.random.default_rng(42)
    for trial in range(10):
        d = 2 + trial % 4
        a = rng.normal(size=(d, d))
        a += (rng.uniform(0.1, 2.0) - np.linalg.eigvals(a).real.max()) * np.eye(d)
        b = rng.normal(size=(d, 1))
        base = rng.normal(size=(d, d))
        q_hat = base @ base.T + np.eye(d)
        gamma = 10.0 ** rng.uniform(-4.0, 4.0)
        p, eigenvalues = matops.care_solve(a, b, q_hat, gamma)
        residual = p @ a + a.T @ p - gamma * (p @ b) @ (p @ b).T + q_hat
        norm_sq = float((p * p).sum())
        assert np.sqrt((residual * residual).sum()) <= 1e-7 * (1.0 + norm_sq)
        assert matops.sym_eig(p)[0] >= 0.0
        assert np.array_equal(eigenvalues, matops.sym_eig(p))


def test_care_solve_on_an_unstable_plant_at_a_small_gamma():
    # the stacked subspace system is ill conditioned here, and its normal
    # equations, which square that condition number, read as singular
    a = [[-1.3, -0.2], [0.4, 1.1]]
    b = [[0.1], [-0.6]]
    p, eigenvalues = matops.care_solve(a, b, 2.0 * np.eye(2), 1e-6)
    # SciPy's solve_continuous_are(a, b, 2 I, 1e6 I)
    expected = np.array(
        [
            [179229.05427340264, 1060220.4415012542],
            [1060220.4415012542, 6271709.03676878],
        ]
    )
    assert np.abs(p - expected).max() < 1e-9 * np.abs(expected).max()
    assert eigenvalues[0] > 0.0
    closed_loop = np.asarray(a) - 1e-6 * (np.asarray(b) @ np.asarray(b).T) @ p
    assert np.linalg.eigvals(closed_loop).real.max() < 0.0


def test_care_solve_rejects_a_singular_stable_subspace_system(monkeypatch):
    # a sign of -I makes the stacked block [S12; S22 + I] zero
    monkeypatch.setattr(matops, "matrix_sign", lambda m: -np.eye(len(m)))
    with pytest.raises(matops.NotStabilizableError, match=r"^stable-subspace system is singular$"):
        matops.care_solve(-np.eye(2), np.ones((2, 1)), np.eye(2), 1.0)


def care_solve_with_residual(residual, monkeypatch):
    """care_solve on a = -I, b = 0, q_hat = I, with P shifted so its residual -2 P + I is about residual."""
    original = np.linalg.lstsq

    def shifted(*args, **kwargs):
        p, *rest = original(*args, **kwargs)
        return (p - 0.5 * residual, *rest)

    monkeypatch.setattr(matops.np.linalg, "lstsq", shifted)
    return matops.care_solve(-np.eye(2), np.zeros((2, 1)), np.eye(2), 1.0)


# P is about I / 2, so both bounds are 1e-7 (1 + ||P||_F^2), about 1.5e-7
LIMIT = 1.5e-7


def test_care_solve_rejects_a_residual_over_the_lambda_max_bound_alone(monkeypatch):
    # every entry is 0.6 of the bound, the eigenvalue 1.2 of it
    message = r"largest \|entry\| 9\.000e-08, lambda_max 1\.800e-07\) exceeds 1\.500e-07"
    with pytest.raises(matops.NotStabilizableError, match=message):
        care_solve_with_residual(0.6 * LIMIT * np.ones((2, 2)), monkeypatch)


def test_care_solve_rejects_a_residual_over_the_entry_bound_alone(monkeypatch):
    # a negative definite residual stays under the lambda_max bound
    message = r"largest \|entry\| 3\.000e-07, lambda_max -3\.000e-07\) exceeds 1\.500e-07"
    with pytest.raises(matops.NotStabilizableError, match=message):
        care_solve_with_residual(-2.0 * LIMIT * np.eye(2), monkeypatch)


@pytest.mark.parametrize("entry", [math.inf, math.nan], ids=["inf", "nan"])
def test_care_solve_rejects_a_residual_that_is_not_finite_without_its_eigenvalues(entry, monkeypatch):
    # an overflowing residual is a failed check, not an argument fault in sym_eig
    monkeypatch.setattr(matops, "_riccati_residual", lambda *args: np.full((2, 2), entry))
    message = rf"^Riccati residual \(largest \|entry\| {entry}, lambda_max {entry}\) exceeds "
    with pytest.raises(matops.NotStabilizableError, match=message):
        matops.care_solve(A1, B1, 2.0 * Q1, 2.0)


@pytest.mark.parametrize("scale", [1e155, 1e160, 1e300])
def test_care_solve_rejects_a_gamma_b_b_t_that_overflows_naming_gamma(scale):
    with pytest.raises(matops.NotStabilizableError, match=r"^gamma B B\^T overflows at gamma 2$"):
        matops.care_solve(A1, scale * B1, 2.0 * Q1, 2.0)


# --------------------------------------------------------- argument checks

# Each entry point that takes a plant, called on (a, b, q), with the name of its Q argument.
PLANT_ENTRIES = {
    "care_solve": (lambda a, b, q: matops.care_solve(a, b, q, 1.0), "q_hat"),
    "design_leaderless": (lambda a, b, q: synthesis.design_leaderless(a, b, q, 1.0), "q"),
    "design_leader_follower": (lambda a, b, q: synthesis.design_leader_follower(a, b, q, 1.0), "q"),
    "regulate_gain": (lambda a, b, q: synthesis.regulate_gain(a, b, q, 1.0), "q"),
    "verify_riccati_certificate": (
        lambda a, b, q: synthesis.verify_riccati_certificate(np.eye(2), a, b, q, 1.0, 2),
        "q",
    ),
    "verify_lmi_corollary": (lambda a, b, q: synthesis.verify_lmi_corollary(np.eye(2), 1.0, a, b, q, 2, 10.0), "q"),
}
ASYMMETRIC = [[1.0, 1.0], [0.0, 1.0]]
# Each plant fault on the 2-state plant (A1, B1, Q1), with the one error it gives; {q} is the Q argument's name.
PLANT_FAULTS = {
    "a-not-square": ((np.ones((2, 3)), B1, Q1), matops.ShapeError, "a must be square, got 2x3"),
    "b-rows": ((A1, np.ones((3, 1)), Q1), matops.ShapeError, "b has 3 rows, expected 2"),
    "q-size": ((A1, B1, np.eye(3)), matops.ShapeError, "{q} is 3x3, expected 2x2"),
    "q-not-symmetric": (
        (A1, B1, ASYMMETRIC),
        matops.SymmetryError,
        "{q} is not symmetric within 1e-10 relative tolerance",
    ),
}
ARGUMENT_FAULTS = [
    pytest.param(
        functools.partial(call, *args), error, message.format(q=q_name), id=f"{entry}-{fault}"
    )
    for entry, (call, q_name) in PLANT_ENTRIES.items()
    for fault, (args, error, message) in PLANT_FAULTS.items()
] + [
    pytest.param(
        lambda: synthesis.verify_riccati_certificate(np.eye(3), A1, B1, Q1, 1.0, 2),
        matops.ShapeError,
        "certificate is 3x3, expected 2x2",
        id="verify_riccati_certificate-certificate-size",
    ),
    pytest.param(
        lambda: synthesis.verify_riccati_certificate(ASYMMETRIC, A1, B1, Q1, 1.0, 2),
        matops.SymmetryError,
        "certificate is not symmetric within 1e-10 relative tolerance",
        id="verify_riccati_certificate-certificate-not-symmetric",
    ),
    pytest.param(
        lambda: synthesis.verify_lmi_corollary(np.eye(3), 1.0, A1, B1, Q1, 2, 10.0),
        matops.ShapeError,
        "p_tilde is 3x3, expected 2x2",
        id="verify_lmi_corollary-p-tilde-size",
    ),
    pytest.param(
        lambda: synthesis.verify_lmi_corollary(ASYMMETRIC, 1.0, A1, B1, Q1, 2, 10.0),
        matops.SymmetryError,
        "p_tilde is not symmetric within 1e-10 relative tolerance",
        id="verify_lmi_corollary-p-tilde-not-symmetric",
    ),
    pytest.param(
        lambda: sim.consensus_function(np.ones((2, 3)), np.ones((3, 2)), 1.0),
        matops.ShapeError,
        "a must be square, got 2x3",
        id="consensus_function-a-not-square",
    ),
    pytest.param(
        lambda: matops.matrix_exp(np.zeros((2, 3))),
        matops.ShapeError,
        "m must be square, got 2x3",
        id="matrix_exp-m-not-square",
    ),
]


@pytest.mark.parametrize("call, error, message", ARGUMENT_FAULTS)
def test_each_argument_fault_has_one_message(call, error, message):
    # one rule per fault, whichever public function meets it first, naming that function's argument
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# ------------------------------------------------------------- dependencies


def test_import_loads_no_scipy():
    # numpy is the only dependency; its LAPACK is the only decomposition backend
    code = "import sys, consensuskit; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(consensuskit.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
