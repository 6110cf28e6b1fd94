import numpy as np
import pytest

from consensuskit import graph, sim, synthesis, verify
from consensuskit.graph import Topology
from consensuskit.sim import SimConfig, Trace
from consensuskit.synthesis import LEADERLESS, LEADER_FOLLOWER, GainSet

A1 = np.array([[0.0, 1.0], [-100.0, 0.0]])
B1 = np.array([[0.0], [1.0]])
Q1 = np.diag([1.0, 2.0])


def leaderless_setup():
    gains = synthesis.design_leaderless(A1, B1, Q1, 2.0)
    topology = graph.complete_topology(3, weight=4.0)
    return gains, topology


def run_trace(gains, topology, x0, t_final=3.0, stride=10):
    config = SimConfig(x0=x0, t_final=t_final, dt=1e-3, sample_stride=stride)
    return sim.run(config, gains, topology)


def test_analyze_zero_disagreement_all_verdicts_true():
    gains, topology = leaderless_setup()
    x0 = np.tile([0.25, -0.5], (3, 1))
    trace = run_trace(gains, topology, x0, t_final=0.5)
    report = verify.analyze(trace, gains, topology)
    assert report.realized_cost == 0.0
    assert report.bound == 0.0
    assert report.bound_holds
    assert report.consensus_achieved
    assert report.weights_monotone
    assert report.certificate_ok
    assert report.warnings == ()


def test_analyze_converged_run_certifies():
    gains, topology = leaderless_setup()
    rng = np.random.default_rng(200)
    trace = run_trace(gains, topology, rng.uniform(-0.25, 0.25, size=(3, 2)))
    report = verify.analyze(trace, gains, topology)
    assert report.bound_holds
    assert report.consensus_achieved
    assert report.weights_monotone
    assert report.realized_cost < report.bound
    assert report.tracking_error < 1e-2
    assert report.final_weight_rate < 1e-8
    assert report.certificate_margin < 1e-9


def test_analyze_wrong_sign_gain_fails_consensus_with_warnings():
    gains, topology = leaderless_setup()
    wrong = GainSet(
        mode=LEADERLESS,
        a=gains.a,
        b=gains.b,
        q=gains.q,
        gamma=gains.gamma,
        certificate=gains.certificate,
        k_u=-gains.k_u,
        k_w=gains.k_w,
    )
    rng = np.random.default_rng(4)
    trace = run_trace(wrong, topology, rng.uniform(-0.25, 0.25, size=(3, 2)), t_final=0.1)
    report = verify.analyze(trace, wrong, topology)
    assert not report.consensus_achieved
    assert report.final_disagreement > report.initial_disagreement
    assert any("disagreement" in w for w in report.warnings)


def test_analyze_is_pure():
    gains, topology = leaderless_setup()
    rng = np.random.default_rng(77)
    trace = run_trace(gains, topology, rng.uniform(-0.25, 0.25, size=(3, 2)), t_final=1.0)
    first = verify.analyze(trace, gains, topology)
    second = verify.analyze(trace, gains, topology)
    assert first == second


def test_analyze_empty_trace():
    gains, topology = leaderless_setup()
    empty = Trace(
        mode=LEADERLESS,
        n=3,
        d=2,
        adaptive_edges=topology.edges,
        times=np.array([]),
        states=np.zeros((0, 6)),
        weights=np.zeros((0, 3)),
        j_realized=np.array([]),
        j_bound_integral=np.array([]),
    )
    with pytest.raises(verify.VerificationError, match="^trace contains no samples$"):
        verify.analyze(empty, gains, topology)


def test_analyze_detects_nonmonotone_weights():
    gains, topology = leaderless_setup()
    rng = np.random.default_rng(5)
    trace = run_trace(gains, topology, rng.uniform(-0.25, 0.25, size=(3, 2)), t_final=1.0)
    doctored_weights = trace.weights.copy()
    doctored_weights[-1] = doctored_weights[-2] - 1e-6
    doctored = trace.replace(weights=doctored_weights)
    report = verify.analyze(doctored, gains, topology)
    assert not report.weights_monotone
    assert report.min_weight_delta < -1e-7


def test_analyze_reports_bound_violation_without_clamping():
    gains, topology = leaderless_setup()
    rng = np.random.default_rng(6)
    trace = run_trace(gains, topology, rng.uniform(-0.25, 0.25, size=(3, 2)), t_final=1.0)
    doctored_cost = trace.j_realized.copy()
    doctored_cost[-1] = trace.j_realized[-1] + 10.0 * (1.0 + abs(float(trace.j_realized[-1])))
    doctored = trace.replace(j_realized=doctored_cost)
    report = verify.analyze(doctored, gains, topology)
    assert not report.bound_holds
    assert report.realized_cost > report.bound
    assert any("exceeds guaranteed bound" in w for w in report.warnings)


def test_analyze_tolerance_overrides():
    gains, topology = leaderless_setup()
    rng = np.random.default_rng(7)
    trace = run_trace(gains, topology, rng.uniform(-0.25, 0.25, size=(3, 2)), t_final=0.02, stride=1)
    strict = verify.analyze(trace, gains, topology)
    assert not strict.consensus_achieved
    loose = verify.analyze(trace, gains, topology, tolerances={"consensus": 10.0})
    assert loose.consensus_achieved
    with pytest.raises(verify.VerificationError):
        verify.analyze(trace, gains, topology, tolerances={"no_such_tolerance": 1.0})


@pytest.mark.parametrize("mode", [LEADERLESS, LEADER_FOLLOWER])
def test_analyze_calls_the_modes_public_rhs_once_per_report(mode, monkeypatch):
    # analyze reads the final weight rate and bound integrand through the
    # sim module attribute, where the benchmark's sim.rhs_call_us wraps it
    calls = []
    for name in ("leaderless_rhs", "leader_follower_rhs"):
        original = getattr(sim, name)

        def counting(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(sim, name, counting)
    if mode == LEADERLESS:
        gains, topology = leaderless_setup()
    else:
        gains, topology = synthesis.design_leader_follower(A1, B1, Q1, 1.0), graph.star_topology(3, 3.0, leader=1)
    trace = run_trace(gains, topology, np.random.default_rng(8).uniform(-0.25, 0.25, size=(3, 2)), t_final=0.1)
    verify.analyze(trace, gains, topology)
    verify.analyze(trace, gains, topology)
    assert calls == 2 * ["leaderless_rhs" if mode == LEADERLESS else "leader_follower_rhs"]


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), True, "0.5"], ids=["nan", "inf", "-inf", "bool", "string"]
)
def test_analyze_rejects_a_tolerance_that_is_not_a_real_finite_number(value):
    gains, topology = leaderless_setup()
    trace = run_trace(gains, topology, np.tile([0.25, -0.5], (3, 1)), t_final=0.02, stride=1)
    with pytest.raises(verify.VerificationError, match="tolerance 'consensus': expected a real, finite number"):
        verify.analyze(trace, gains, topology, tolerances={"consensus": value})


@pytest.mark.parametrize("name", sorted(verify.DEFAULT_TOLERANCES))
def test_analyze_rejects_a_negative_tolerance(name):
    # a negative tolerance would turn a passing check into a failing one
    gains, topology = leaderless_setup()
    trace = run_trace(gains, topology, np.tile([0.25, -0.5], (3, 1)), t_final=0.02, stride=1)
    with pytest.raises(verify.VerificationError, match=f"^tolerance '{name}': must be >= 0, got -1e-12$"):
        verify.analyze(trace, gains, topology, tolerances={name: -1e-12})


def test_render_report_key_value_block():
    gains, topology = leaderless_setup()
    x0 = np.tile([0.0, 0.0], (3, 1))
    trace = run_trace(gains, topology, x0, t_final=0.5)
    report = verify.analyze(trace, gains, topology)
    text = verify.render_report(report)
    lines = dict(line.split(" = ", 1) for line in text.splitlines())
    assert lines["mode"] == "leaderless"
    assert lines["bound_holds"] == "true"
    assert lines["consensus_achieved"] == "true"
    assert float(lines["realized_cost"]) == 0.0
    assert float(lines["horizon"]) == 0.5
    assert verify.render_report(report, "run3").splitlines() == ["run3 :: " + line for line in text.splitlines()]


VERDICTS = ("bound_holds", "weights_monotone", "certificate_ok", "consensus_achieved")


def passing_report(**changes):
    fields = dict(
        mode=LEADERLESS, horizon=1.0, realized_cost=1.0, bound=2.0, initial_disagreement=1.0,
        final_disagreement=0.0, min_weight_delta=0.0, final_weight_rate=0.0, tracking_error=0.0,
        certificate_margin=-1.0, **dict.fromkeys(VERDICTS, True),
    )
    return verify.CostReport(**dict(fields, **changes))


@pytest.mark.parametrize("verdict", VERDICTS)
def test_report_passes_only_when_all_four_verdicts_hold(verdict):
    assert passing_report().passed is True
    assert passing_report(**{verdict: False}).passed is False
    assert passing_report(**{verdict: np.False_}).passed is False


def test_warnings_do_not_fail_a_report_and_passed_is_no_field():
    report = passing_report(warnings=("horizon too short: bound integrand still 1.000e-03 per unit time at t_final",))
    assert report.passed is True
    assert "passed" not in report._fields
    assert "passed" not in verify.render_report(report)


def test_render_pairs_applies_one_rule_per_kind_of_value():
    pairs = [
        ("f", 0.1), ("i", 10**20), ("b", np.True_), ("t", "a = b"), ("v", np.array([1.0, -2.5])), ("m", np.eye(2)),
    ]
    assert verify.render_pairs(pairs).splitlines() == [
        "f = 0.10000000000000001", "i = 100000000000000000000", "b = true", "t = a = b", "v = 1 -2.5",
        "m | 1 0", "m | 0 1",
    ]
    assert verify.render_pairs(pairs[:1], "run1") == "run1 :: f = 0.10000000000000001"


def test_reference_gains_example_1():
    report = verify.verify_reference_gains("example-1")
    assert report["passed"]
    assert np.abs(report["k_u"] - np.array([3.9324, 2.1307])).max() <= 1e-3
    expected_k_w = np.array([[15.4638, 8.3788], [8.3788, 4.5399]])
    assert np.abs(report["k_w"] - expected_k_w).max() <= 1e-3
    assert report["reference_total"] == 1694.6


def test_reference_gains_example_2():
    report = verify.verify_reference_gains("example-2")
    assert report["passed"]
    assert np.abs(report["k_u"] - np.array([5.3100, 0.6396, -2.9033, 0.9116])).max() <= 1e-3
    assert abs(report["k_w"][0, 0] - 28.1961) <= 1e-3
    assert report["reference_total"] == 872.5


def test_reference_gains_sensitive_to_certificate_perturbation(monkeypatch):
    base = verify._REFERENCE_CASES["example-2"]["certificate"].copy()
    base[0, 0] += 1.0
    monkeypatch.setitem(verify._REFERENCE_CASES["example-2"], "certificate", base)
    perturbed = verify.verify_reference_gains("example-2")
    assert not perturbed["passed"]
    assert perturbed["k_u_max_deviation"] > 0.5

    p1 = verify._REFERENCE_CASES["example-1"]["certificate"].copy()
    p1[1, 1] += 1.0
    monkeypatch.setitem(verify._REFERENCE_CASES["example-1"], "certificate", p1)
    perturbed1 = verify.verify_reference_gains("example-1")
    assert not perturbed1["passed"]


def test_reference_gains_unknown_case():
    with pytest.raises(verify.VerificationError):
        verify.verify_reference_gains("example-3")
