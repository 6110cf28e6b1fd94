import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from consensuskit import matops, synthesis
from consensuskit.synthesis import (
    LEADERLESS,
    LEADER_FOLLOWER,
    GainSet,
    RegulationError,
    SynthesisError,
    WeightMatrixError,
)

A1 = np.array([[0.0, 1.0], [-100.0, 0.0]])
B1 = np.array([[0.0], [1.0]])
Q1 = np.array([[1.0, 0.0], [0.0, 2.0]])

A2 = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [-30.0, -12.5, 30.0, 0.0],
        [0.0, 0.5, 0.0, 1.0],
        [16.0, 0.0, -16.0, 0.0],
    ]
)
B2 = np.array([[1.0], [19.0], [0.0], [0.0]])
Q2 = np.array(
    [
        [0.30, 0.30, 0.20, 0.10],
        [0.30, 0.50, 0.10, 0.10],
        [0.20, 0.10, 0.50, 0.15],
        [0.10, 0.10, 0.15, 0.10],
    ]
)

P1_EXPECTED = np.array(
    [
        [141.80278557912814, 0.0099990001999489993],
        [0.0099990001999489993, 1.4177443352734442],
    ]
)


def test_design_leaderless_oscillator_frozen_certificate():
    gains = synthesis.design_leaderless(A1, B1, Q1, 2.0)
    assert gains.mode == LEADERLESS
    assert gains.multiplier == 2
    assert np.abs(gains.certificate - P1_EXPECTED).max() < 1e-9
    assert np.allclose(gains.k_u, [[0.009999000199949, 1.4177443352734442]], atol=1e-9)
    assert np.abs(gains.k_w - gains.k_u.T @ gains.k_u).max() == 0.0


def test_design_carries_plant():
    gains = synthesis.design_leaderless(A1, B1, Q1, 2.0)
    assert np.array_equal(gains.a, A1)
    assert np.array_equal(gains.b, B1)
    assert np.array_equal(gains.q, Q1)
    assert gains.gamma == 2.0
    assert gains.state_dim == 2


def test_design_leader_follower_certificate_valid():
    gains = synthesis.design_leader_follower(A2, B2, Q2, 1.0)
    assert gains.mode == LEADER_FOLLOWER
    assert gains.multiplier == 3
    assert matops.sym_eig(gains.certificate)[0] >= 1e-9
    margin = synthesis.verify_riccati_certificate(gains.certificate, A2, B2, Q2, 1.0, 3)
    assert margin <= 1e-9
    assert abs(margin) < 1e-7


def test_design_rejects_indefinite_q():
    with pytest.raises(WeightMatrixError):
        synthesis.design_leaderless(A1, B1, [[1.0, 0.0], [0.0, -1.0]], 2.0)
    # a singular, positive semidefinite q is rejected too
    with pytest.raises(WeightMatrixError):
        synthesis.design_leaderless(A1, B1, [[1.0, 1.0], [1.0, 1.0]], 2.0)


def test_design_rejects_unstabilizable_pair():
    with pytest.raises(matops.NotStabilizableError):
        synthesis.design_leaderless(np.eye(2), [[1.0], [0.0]], np.eye(2), 1.0)


def test_gainset_defaults_and_explicit_gains():
    p = np.array([[2.0, 0.0], [0.0, 3.0]])
    gains = GainSet(mode=LEADERLESS, a=np.zeros((2, 2)), b=np.eye(2), q=np.eye(2), gamma=1.0, certificate=p)
    assert np.allclose(gains.k_u, p)
    assert np.allclose(gains.k_w, p @ p)
    explicit = GainSet(
        mode=LEADERLESS,
        a=np.zeros((2, 2)),
        b=np.eye(2),
        q=np.eye(2),
        gamma=1.0,
        certificate=p,
        k_u=-p,
    )
    assert np.allclose(explicit.k_u, -p)


def test_gainset_rejects_unknown_mode():
    with pytest.raises(ValueError):
        GainSet(mode="central", a=np.eye(1), b=np.eye(1), q=np.eye(1), gamma=1.0, certificate=np.eye(1))


def test_certificate_check_margin_tracks_multiplier():
    # the synthesized certificate satisfies the equality with its own
    # multiplier, stays valid for smaller cost multipliers, and fails for
    # larger ones
    gains = synthesis.design_leaderless(A1, B1, Q1, 2.0)
    same = synthesis.verify_riccati_certificate(gains.certificate, A1, B1, Q1, 2.0, 2)
    smaller = synthesis.verify_riccati_certificate(gains.certificate, A1, B1, Q1, 2.0, 1)
    larger = synthesis.verify_riccati_certificate(gains.certificate, A1, B1, Q1, 2.0, 4)
    assert same <= 1e-9 and abs(same) < 1e-9
    assert smaller <= 1e-9 and smaller < -0.9
    assert not (larger <= 1e-9) and larger > 0.9


def test_certificate_check_rejects_asymmetric_candidate():
    with pytest.raises(matops.SymmetryError):
        synthesis.verify_riccati_certificate([[1.0, 1.0], [0.0, 1.0]], A1, B1, Q1, 2.0, 2)


def test_a_certificate_whose_residual_overflows_has_an_infinite_margin():
    # 1e300 I makes P A overflow: the inequality is not shown, so no tolerance accepts it
    assert synthesis.verify_riccati_certificate(1e300 * np.eye(2), A1, B1, Q1, 2.0, 2) == math.inf


def test_lmi_corollary_toy_instance_frozen_spectrum():
    # a = -I, b = I, q = I, p~ = I, gamma = 1, multiplier 2:
    # Xi = [[-3 I, 2 I], [2 I, -2 I]] has eigenvalues -2.5 +- sqrt(4.25),
    # each with multiplicity 2
    report = synthesis.verify_lmi_corollary(
        np.eye(2), 1.0, -np.eye(2), np.eye(2), np.eye(2), 2, 10.0
    )
    assert report.feasible
    assert report.xi_negative_definite
    assert abs(report.xi_max_eigenvalue - (-2.5 + math.sqrt(4.25))) < 1e-12
    assert report.floor_satisfied
    assert report.bbt_precondition_ok
    assert report.rescale_factor == 1.0
    assert report.gamma_equivalent == 1.0


def test_lmi_corollary_strictly_feasible_instance():
    # inflating the cost (q_hat = 2 q + 0.2 I) pushes the equality-form
    # certificate into the strict interior, so p~ = P'^{-1} satisfies the
    # LMI with a genuinely negative maximum eigenvalue
    p_inflated, _ = matops.care_solve(A1, B1, 2.0 * Q1 + 0.2 * np.eye(2), 2.0)
    p_tilde = np.linalg.inv(p_inflated)
    p_tilde = 0.5 * (p_tilde + p_tilde.T)
    report = synthesis.verify_lmi_corollary(p_tilde, 2.0, A1, B1, Q1, 2, 200.0, strict=True)
    assert report.feasible
    assert -1.1e-5 < report.xi_max_eigenvalue < -8e-6
    assert abs(report.certificate_min_eigenvalue - 0.006881141388604348) < 1e-9
    assert report.certificate_min_eigenvalue >= 1.0 / 200.0
    assert report.bbt_precondition_ok


def test_lmi_corollary_strict_precondition_violation():
    report = synthesis.verify_lmi_corollary(np.eye(4), 1.0, A2, B2, Q2, 3, 10.0, strict=True)
    assert abs(report.bbt_max_eigenvalue - 362.0) < 1e-9
    assert not report.bbt_precondition_ok
    assert not report.feasible


def test_lmi_corollary_relaxed_mode_rescales():
    report = synthesis.verify_lmi_corollary(np.eye(4), 1.0, A2, B2, Q2, 3, 10.0, strict=False)
    assert not report.bbt_precondition_ok
    assert abs(report.rescale_factor - math.sqrt(362.0)) < 1e-12
    assert abs(report.gamma_equivalent - 362.0) < 1e-9
    assert not report.strict
    # gamma_equivalent (B / rescale_factor)(B / rescale_factor)^T is gamma B B^T: one Xi for both modes
    strict = synthesis.verify_lmi_corollary(np.eye(4), 1.0, A2, B2, Q2, 3, 10.0, strict=True)
    assert report.xi_max_eigenvalue == strict.xi_max_eigenvalue


def test_regulate_gain_hits_gain_factor_target():
    gains = synthesis.regulate_gain(A1, B1, Q1, 100.0, mode=LEADERLESS)
    gamma = gains.gamma
    lam_max = matops.sym_eig(gains.certificate)[-1]
    assert lam_max <= 100.0 * (1.0 + 1e-9)
    assert synthesis.verify_riccati_certificate(gains.certificate, A1, B1, Q1, gamma, 2) <= 1e-9
    # the target is active: slightly smaller gamma violates it
    smaller = synthesis.design_leaderless(A1, B1, Q1, gamma * 0.999)
    assert matops.sym_eig(smaller.certificate)[-1] > 100.0


def test_regulate_gain_frozen_boundary():
    # analytic cross-check: lambda_max(P(gamma)) ~ 200 / sqrt(gamma) for this
    # plant, so the delta = 100 boundary sits at gamma ~ 4
    gamma = synthesis.regulate_gain(A1, B1, Q1, 100.0).gamma
    assert abs(gamma - 4.023230725852624) < 1e-6 * 4.03


def test_regulate_gain_returns_cheap_gamma_when_already_feasible():
    # lambda_max(P(1e-6)) is about 2e5 for this plant, so the first solve meets delta = 1e6
    gains = synthesis.regulate_gain(A1, B1, Q1, 1e6)
    assert gains.gamma == synthesis.GAMMA_MIN == 1e-6
    assert np.array_equal(gains.certificate, synthesis.design_leaderless(A1, B1, Q1, 1e-6).certificate)


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
def test_regulate_gain_on_an_unstable_plant(mode):
    # the bracket starts at GAMMA_MIN = 1e-6, where lambda_max(P) is about 6e6
    # for this open-loop-unstable plant
    a = [[-1.3, -0.2], [0.4, 1.1]]
    b = [[0.1], [-0.6]]
    gains = synthesis.regulate_gain(a, b, np.eye(2), 50.0, mode=mode)
    assert matops.sym_eig(gains.certificate)[-1] <= 50.0 * (1.0 + 1e-9)
    margin = synthesis.verify_riccati_certificate(gains.certificate, a, b, np.eye(2), gains.gamma, gains.multiplier)
    assert margin <= 1e-9


# a fixed sample: about 1 plant in 6,000 of this family still fails its
# first solve, at GAMMA_MIN = 1e-6, though a larger gamma solves
@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from([LEADERLESS, LEADER_FOLLOWER]),
    factor=st.floats(1.5, 8.0),
)
def test_regulate_gain_meets_every_reachable_target(seed, mode, factor):
    # random plants, most of them open-loop unstable; P(10) meets
    # delta = factor lambda_max(P(10)), so the search stops at a gamma <= 10
    rng = np.random.default_rng(seed)
    d, p = int(rng.integers(2, 7)), int(rng.integers(1, 3))
    a, b, m = rng.normal(size=(d, d)), rng.normal(size=(d, p)), rng.normal(size=(d, d))
    q = m @ m.T + 0.01 * np.eye(d)
    design = synthesis.design_leaderless if mode == LEADERLESS else synthesis.design_leader_follower
    lam_at_10 = matops.sym_eig(design(a, b, q, 10.0).certificate)[-1]
    # past 1e5 the plant is nearly uncontrollable, and lambda_max(P) carries
    # more noise than the 1e-9 slack of the search's monotonicity check
    assume(lam_at_10 <= 1e5)
    delta = factor * lam_at_10
    gains = synthesis.regulate_gain(a, b, q, delta, mode=mode)
    assert matops.sym_eig(gains.certificate)[-1] <= delta * (1.0 + 1e-9)
    assert gains.gamma <= 10.0 * (1.0 + 1e-9)


REGULATION_CASES = [
    pytest.param(A1, B1, Q1, 300.0, LEADERLESS, id="example-1-leaderless-300"),
    pytest.param(A2, B2, Q2, 200.0, LEADER_FOLLOWER, id="example-2-leader-follower-200"),
    pytest.param(A2, B2, Q2, 50.0, LEADERLESS, id="example-2-leaderless-50"),
]


def bisection_oracle(a, b, q, delta, mode):
    """gamma at the feasible end of a plain bisection run to float resolution."""
    design = synthesis.design_leaderless if mode == LEADERLESS else synthesis.design_leader_follower

    def feasible(gamma):
        return matops.sym_eig(design(a, b, q, gamma).certificate)[-1] <= delta * (1.0 + 1e-9)

    lo = hi = synthesis.GAMMA_MIN
    while not feasible(hi):
        lo, hi = hi, 2.0 * hi
    while 0.5 * (lo + hi) not in (lo, hi):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("a, b, q, delta, mode", REGULATION_CASES)
def test_regulate_gain_matches_bisection_within_24_solves(a, b, q, delta, mode, monkeypatch):
    oracle = bisection_oracle(a, b, q, delta, mode)
    calls = []
    original = matops.care_solve

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(matops, "care_solve", counting)
    gains = synthesis.regulate_gain(a, b, q, delta, mode=mode)
    assert len(calls) <= 24
    assert abs(gains.gamma - oracle) <= 1e-12 * oracle
    assert matops.sym_eig(gains.certificate)[-1] <= delta * (1.0 + 1e-9)


@pytest.mark.parametrize("a, b, q, delta, mode", REGULATION_CASES)
def test_regulate_gain_checks_each_care_solution_once(a, b, q, delta, mode, monkeypatch):
    # one sym_eig of P serves its definiteness and lambda_max, one of the
    # residual its bound, and one checks q once per regulation
    solves, eigs = [], []
    care_solve, sym_eig = matops.care_solve, matops.sym_eig
    monkeypatch.setattr(matops, "care_solve", lambda *args: solves.append(args) or care_solve(*args))
    monkeypatch.setattr(matops, "sym_eig", lambda m: eigs.append(m) or sym_eig(m))
    synthesis.regulate_gain(a, b, q, delta, mode=mode)
    assert len(eigs) <= 2 * len(solves) + 1


def patch_design(monkeypatch, lam):
    """Make regulate_gain's designs return lam(gamma) I, recording each gamma."""
    evaluated = []

    def fake_design(mode, a, b, q, gamma):
        evaluated.append(gamma)
        return GainSet(mode=mode, a=a, b=b, q=q, gamma=gamma, certificate=lam(gamma) * np.eye(2)), lam(gamma)

    monkeypatch.setattr(synthesis, "_design", fake_design)
    return evaluated


@pytest.mark.parametrize("bump", [10.0, 0.1], ids=["above-the-low-end", "below-the-high-end"])
def test_regulate_gain_rejects_non_monotone_lambda_inside_the_search(bump, monkeypatch):
    # lambda = 200 / sqrt(gamma), times bump on (2, 8).  Bracketing by factors
    # of 16 from 1e-6 ends on [1.048576, 16.777216] without touching the bump,
    # and the first secant point in log gamma lands on the delta = 100
    # boundary, gamma = 4, where lambda leaves [lambda(16.78), lambda(1.05)].
    evaluated = patch_design(monkeypatch, lambda g: 200.0 / math.sqrt(g) * (bump if 2.0 < g < 8.0 else 1.0))
    with pytest.raises(RegulationError, match="not nonincreasing"):
        synthesis.regulate_gain(A1, B1, Q1, 100.0)
    assert len(evaluated) == 8
    assert abs(evaluated[-1] - 4.0) < 1e-6


def test_regulate_gain_closes_the_bracket_after_a_secant_point_on_the_root(monkeypatch):
    # log lambda is linear in log gamma, so the first secant point is the root
    # to rounding; a secant that keeps returning to that end of the bracket
    # would re-solve it tens of thousands of times before the other end moves
    evaluated = patch_design(monkeypatch, lambda g: 200.0 / math.sqrt(g))
    gamma = synthesis.regulate_gain(A1, B1, Q1, 100.0).gamma
    assert len(evaluated) <= 12
    root = (200.0 / (100.0 * (1.0 + 1e-9))) ** 2
    assert abs(gamma - root) <= 1e-12 * root


def test_regulate_gain_exhausted_bounds():
    # P(gamma) of dx/dt = -x + u with q = 1 solves gamma p^2 + 2 p - 2 = 0 and
    # falls like sqrt(2 / gamma): the search climbs to GAMMA_MAX, where p = 1.41421e-6
    with pytest.raises(RegulationError) as excinfo:
        synthesis.regulate_gain([[-1.0]], [[1.0]], [[1.0]], 1e-9)
    assert str(excinfo.value) == "no gamma in [1e-06, 1e+12] achieves lambda_max <= 1e-09 (best 1.41421e-06)"


@pytest.mark.parametrize("delta", [5.0, 7.0])
def test_regulate_gain_reports_a_target_below_the_cheap_control_level(delta):
    # lambda_max(P) of the example-2 leader-follower design levels off near
    # 7.42 as gamma grows, and the CARE solve fails from gamma ~1.1e6 on:
    # that failure means no gamma meets the target, not an unstabilizable pair
    with pytest.raises(RegulationError, match=rf"no gamma .* achieves lambda_max <= {delta:g} \(best 7\.416"):
        synthesis.regulate_gain(A2, B2, Q2, delta, mode=LEADER_FOLLOWER)


def test_regulate_gain_strict_precondition():
    with pytest.raises(RegulationError):
        synthesis.regulate_gain(A2, B2, Q2, 10.0, mode=LEADER_FOLLOWER, strict=True)


def test_regulate_gain_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="mode must be one of"):
        synthesis.regulate_gain(A1, B1, Q1, 100.0, mode="central")


def test_regulate_gain_rejects_a_delta_that_is_not_positive():
    for delta in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="delta must be positive"):
            synthesis.regulate_gain(A1, B1, Q1, delta)
