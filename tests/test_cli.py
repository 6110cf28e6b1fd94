import dataclasses
import io
import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consensuskit import cli, matops, sim, synthesis, verify
from consensuskit.graph import TopologyError
from consensuskit.synthesis import LEADERLESS, LEADER_FOLLOWER
from consensuskit.cli import (
    EXIT_BOUND,
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SYNTHESIS,
)
from test_sim import draw_connected_graph


def scalar_pair_config(**overrides):
    config = {
        "mode": "leaderless",
        "plant": {"d": 1, "p": 1, "a": [0.0], "b": [1.0], "q": [1.0]},
        "gamma": 0.5,
        "topology": {"n": 2, "edges": [[1, 2]]},
        "initial_states": {"values": [-1.0, 1.0]},
        "dt": 1e-3,
        "t_final": 5.0,
        "sample_stride": 100,
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------------ parsing


def test_parse_config_happy_path(tmp_path):
    path = write_config(tmp_path, scalar_pair_config())
    config = cli.parse_config(path)
    assert config.mode == "leaderless"
    assert config.a.shape == (1, 1)
    assert config.topology.n == 2
    assert config.initial_values.shape == (2, 1)
    assert config.gamma == 0.5 and config.delta is None


def test_parse_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"mode": "leaderless",\n  "plant": }', encoding="utf-8")
    with pytest.raises(cli.CliError) as excinfo:
        cli.parse_config(str(path))
    assert "line 2" in str(excinfo.value)
    assert run_cli(["synthesize", str(path)])[0] == EXIT_PARSE


def test_parse_config_field_named_errors(tmp_path):
    bad_matrix = scalar_pair_config()
    bad_matrix["plant"]["a"] = [1.0, 2.0]
    with pytest.raises(cli.CliError) as excinfo:
        cli.parse_config(write_config(tmp_path, bad_matrix))
    assert "plant.a" in str(excinfo.value)

    missing_gamma = scalar_pair_config()
    del missing_gamma["gamma"]
    with pytest.raises(cli.CliError) as excinfo:
        cli.parse_config(write_config(tmp_path, missing_gamma, "g.json"))
    assert "gamma" in str(excinfo.value)

    both = scalar_pair_config(delta=10.0)
    with pytest.raises(cli.CliError) as excinfo:
        cli.parse_config(write_config(tmp_path, both, "b.json"))
    assert "mutually exclusive" in str(excinfo.value)

    unknown = scalar_pair_config(surprise=1)
    with pytest.raises(cli.CliError) as excinfo:
        cli.parse_config(write_config(tmp_path, unknown, "u.json"))
    assert "surprise" in str(excinfo.value)

    stray_weight = scalar_pair_config()
    stray_weight["topology"]["weights"] = [[1, 3, 2.0]]
    with pytest.raises(cli.CliError) as excinfo:
        cli.parse_config(write_config(tmp_path, stray_weight, "w.json"))
    assert "not in the edge list" in str(excinfo.value)


@pytest.mark.parametrize(
    "mode, topology, field_name",
    [
        ("leaderless", {"n": 3, "edges": [[1, 2]]}, "topology"),
        ("leader-follower", {"n": 3, "edges": [[1, 2], [2, 3]], "leader": 2}, "topology.leader"),
        ("leader-follower", {"n": 3, "edges": [[1, 2]], "leader": 1}, "topology"),
        ("leaderless", {"n": 1000000, "edges": [[1, 2]]}, "topology"),
        ("leader-follower", {"n": 1000000, "edges": [[1, 2]], "leader": 1}, "topology"),
    ],
    ids=["disconnected", "leader-not-agent-1", "follower-unreachable", "one-edge-million-agents", "one-edge-million-followers"],
)
def test_topology_errors_rejected_before_any_work(mode, topology, field_name, tmp_path, monkeypatch):
    config = scalar_pair_config(mode=mode, topology=topology, initial_states={"values": [-1.0, 0.0, 1.0]})
    path = write_config(tmp_path, config)

    def forbidden(config):
        raise AssertionError("synthesized before the topology was checked")

    monkeypatch.setattr(cli, "synthesize_gains", forbidden)
    code, out, err = run_cli(["simulate", path])
    assert code == EXIT_PARSE
    assert out == ""
    assert f"config field '{field_name}':" in err


@pytest.mark.parametrize(
    "overrides, env, where",
    [
        ({"initial_states": {"seed": 3, "box": math.inf}}, "", "config field 'initial_states.box':"),
        ({"initial_states": {"seed": 3, "box": [-1e308, 1e308]}}, "", "config field 'initial_states.box':"),
        ({"initial_states": {"values": [-1.0, math.nan]}}, "", "config field 'initial_states.values[1]':"),
        (
            {"topology": {"n": 2, "edges": [[1, 2]], "weights": [[1, 2, math.inf]]}},
            "",
            "config field 'topology.weights[0][2]':",
        ),
        ({"gamma": math.inf}, "", "config field 'gamma':"),
        ({"initial_states": {"seed": -1, "box": 1.0}}, "", "config field 'initial_states.seed':"),
        ({"plant": {"d": 1, "p": 1, "a": [-math.inf], "b": [1.0], "q": [1.0]}}, "", "config field 'plant.a[0]':"),
        ({"topology": {"n": math.inf, "edges": [[1, 2]]}}, "", "config field 'topology.n':"),
        ({"dt": math.nan}, "", "config field 'dt':"),
        ({"tolerances": {"consensus": math.nan}}, "", "config field 'tolerances.consensus':"),
        ({}, "consensus=nan", f"{cli.TOLERANCE_ENV_VAR} entry 'consensus':"),
    ],
    ids=[
        "box-infinity", "box-width-overflows", "values-nan", "weight-infinity", "gamma-infinity",
        "seed-negative", "plant-minus-infinity", "n-infinity", "dt-nan", "tolerance-nan", "env-tolerance-nan",
    ],
)
def test_non_finite_numbers_rejected_before_any_work(overrides, env, where, tmp_path, monkeypatch):
    # JSON admits NaN and +-Infinity; each is a parse error naming its field
    path = write_config(tmp_path, scalar_pair_config(**overrides))

    def forbidden(config):
        raise AssertionError("synthesized before the numbers were checked")

    monkeypatch.setattr(cli, "synthesize_gains", forbidden)
    monkeypatch.setenv(cli.TOLERANCE_ENV_VAR, env)
    code, out, err = run_cli(["simulate", path])
    assert code == EXIT_PARSE
    assert out == ""
    assert where in err


def simulate_rejects_before_any_work(tmp_path, monkeypatch, config):
    """Exit code, stdout and stderr of ``simulate`` on config, failing if it synthesizes."""

    def forbidden(config):
        raise AssertionError("synthesized a config the parser should have rejected")

    monkeypatch.setattr(cli, "synthesize_gains", forbidden)
    return run_cli(["simulate", write_config(tmp_path, config)])


def with_gains(**overrides):
    """scalar_pair_config with a gains override; an override of None drops that field."""
    config = scalar_pair_config(gains={"certificate": [1.0], "k_u": [1.0]}, **overrides)
    return {key: value for key, value in config.items() if value is not None}


@pytest.mark.parametrize(
    "section, key", [("plant", "qq"), ("topology", "wieghts"), ("initial_states", "sede"), ("gains", "k_v")]
)
def test_every_section_rejects_an_unknown_key(section, key, tmp_path, monkeypatch):
    config = with_gains()
    config[section][key] = [1.0]
    code, out, err = simulate_rejects_before_any_work(tmp_path, monkeypatch, config)
    assert code == EXIT_PARSE
    assert out == ""
    assert f"config field '{section}.{key}': unknown field" in err


@pytest.mark.parametrize(
    "config, where",
    [
        (scalar_pair_config(initial_states={"values": [-1.0, 1.0], "seed": 3}), "initial_states.values"),
        (scalar_pair_config(initial_states={"values": [-1.0, 1.0], "box": 1.0}), "initial_states.values"),
        (
            scalar_pair_config(topology={"n": 2, "edges": [[1, 2]], "weights": [[1, 2, 2.0], [2, 1, 3.0]]}),
            "topology.weights[1]",
        ),
        (with_gains(gamma=None, delta=0.5), "delta"),
    ],
    ids=["values-and-seed", "values-and-box", "two-weights-for-one-edge", "delta-with-gains"],
)
def test_cross_field_conflicts_rejected_before_any_work(config, where, tmp_path, monkeypatch):
    # each of these used to parse, silently dropping one of the two inputs
    code, out, err = simulate_rejects_before_any_work(tmp_path, monkeypatch, config)
    assert code == EXIT_PARSE
    assert out == ""
    assert f"config field '{where}':" in err


def test_parse_config_box_forms(tmp_path):
    seeded = scalar_pair_config(initial_states={"seed": 3, "box": 0.5})
    config = cli.parse_config(write_config(tmp_path, seeded))
    assert config.initial_seed == 3
    assert config.initial_box == (-0.5, 0.5)

    ranged = scalar_pair_config(initial_states={"seed": 3, "box": [-1.0, 2.0]})
    config = cli.parse_config(write_config(tmp_path, ranged, "r.json"))
    assert config.initial_box == (-1.0, 2.0)

    bad = scalar_pair_config(initial_states={"seed": 3, "box": [2.0, -1.0]})
    with pytest.raises(cli.CliError):
        cli.parse_config(write_config(tmp_path, bad, "bad.json"))


def test_config_echo_round_trip(tmp_path):
    original = scalar_pair_config(
        tolerances={"consensus": 5e-3},
        initial_states={"seed": 9, "box": 0.25},
    )
    original["topology"]["weights"] = [[1, 2, 2.5]]
    path = write_config(tmp_path, original)
    first = cli.parse_config(path)
    echoed = cli.render_config(first)
    second = cli.parse_config_text(echoed, source="echo")
    assert first.mode == second.mode
    assert np.array_equal(first.a, second.a)
    assert np.array_equal(first.b, second.b)
    assert np.array_equal(first.q, second.q)
    assert first.topology == second.topology
    assert first.gamma == second.gamma
    assert first.initial_seed == second.initial_seed
    assert first.initial_box == second.initial_box
    assert first.dt == second.dt
    assert first.t_final == second.t_final
    assert first.sample_stride == second.sample_stride
    assert first.tolerances == second.tolerances
    # byte-level fixed point: echoing the echo is identical
    assert cli.render_config(second) == echoed


def comparable(config):
    """The fields of a RunConfig, with arrays as (shape, entries), for ==."""

    def plain(value):
        if isinstance(value, np.ndarray):
            return value.shape, value.tolist()
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value

    return {f.name: plain(getattr(config, f.name)) for f in dataclasses.fields(config)}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_config_echo_round_trips_over_random_configs(data):
    mode = data.draw(st.sampled_from([LEADERLESS, LEADER_FOLLOWER]), label="mode")
    d, p = data.draw(st.integers(1, 3), label="d"), data.draw(st.integers(1, 2), label="p")
    n, edges, weights = draw_connected_graph(data)
    number = st.floats(-1e3, 1e3)

    def flat(rows, cols):
        return data.draw(st.lists(number, min_size=rows * cols, max_size=rows * cols))

    topology = {"n": n, "edges": [list(e) for e in edges], "weights": [[i, k, w] for (i, k), w in weights.items()]}
    if mode == LEADER_FOLLOWER:
        topology["leader"] = 1
    dt = data.draw(st.sampled_from([1e-3, 2.5e-3, 0.01]), label="dt")
    doc = {
        "mode": mode,
        "plant": {"d": d, "p": p, "a": flat(d, d), "b": flat(d, p), "q": flat(d, d)},
        "topology": topology,
        "dt": dt,
        "t_final": dt * data.draw(st.integers(1, 5000), label="steps"),
        "sample_stride": data.draw(st.integers(1, 50), label="sample_stride"),
        "tolerances": data.draw(st.dictionaries(st.sampled_from(sorted(verify.DEFAULT_TOLERANCES)), number)),
    }
    if data.draw(st.booleans(), label="explicit initial states"):
        doc["initial_states"] = {"values": flat(n, d)}
    else:
        low = data.draw(st.floats(-10.0, 10.0))
        box = st.one_of(st.floats(1e-3, 10.0), st.just([low, low + data.draw(st.floats(1e-2, 10.0))]))
        doc["initial_states"] = {"seed": data.draw(st.integers(0, 2**32)), "box": data.draw(box, label="box")}
    if data.draw(st.booleans(), label="gains override"):
        doc["gains"] = {"certificate": flat(d, d)}
        for key, rows in (("k_u", p), ("k_w", d)):
            if data.draw(st.booleans(), label=f"gains.{key}"):
                doc["gains"][key] = flat(rows, d)
        doc["gamma"] = data.draw(st.floats(1e-3, 1e3))
    else:
        doc[data.draw(st.sampled_from(["gamma", "delta"]))] = data.draw(st.floats(1e-3, 1e3))

    first = cli.parse_config_text(json.dumps(doc))
    echoed = cli.render_config(first)
    second = cli.parse_config_text(echoed, source="echo")
    assert comparable(second) == comparable(first)
    assert cli.render_config(second) == echoed


def test_readme_config_example_parses_and_synthesizes(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    cli.parse_config_text(example, source="README.md")
    path = tmp_path / "readme.json"
    path.write_text(example, encoding="utf-8")
    code, out, err = run_cli(["synthesize", str(path)])
    assert (code, err) == (EXIT_OK, "")
    assert "certificate_ok = true" in out


def test_initial_states_deterministic_draw(tmp_path):
    config = cli.parse_config_text(
        json.dumps(scalar_pair_config(initial_states={"seed": 11, "box": 1.0}))
    )
    a = cli.initial_states(config)
    b = cli.initial_states(config)
    assert np.array_equal(a, b)
    shifted = cli.initial_states(config, seed_offset=1)
    assert not np.array_equal(a, shifted)
    assert a.shape == (2, 1)
    assert np.abs(a).max() <= 1.0


# -------------------------------------------------------------- tolerances


def test_env_tolerances_parse(monkeypatch):
    monkeypatch.setenv(cli.TOLERANCE_ENV_VAR, "consensus=1e-3, bound_rel=1e-9")
    assert cli.env_tolerances() == {"consensus": 1e-3, "bound_rel": 1e-9}


def test_env_tolerances_unknown_key(monkeypatch):
    monkeypatch.setenv(cli.TOLERANCE_ENV_VAR, "nope=1")
    with pytest.raises(cli.CliError):
        cli.env_tolerances()


def test_env_overrides_config(monkeypatch, tmp_path):
    config = cli.parse_config_text(
        json.dumps(scalar_pair_config(tolerances={"consensus": 0.5}))
    )
    assert cli.merged_tolerances(config) == {"consensus": 0.5}
    monkeypatch.setenv(cli.TOLERANCE_ENV_VAR, "consensus=0.25")
    assert cli.merged_tolerances(config) == {"consensus": 0.25}


@pytest.mark.parametrize("command", ["synthesize", "simulate", "verify"])
def test_env_tolerances_checked_before_synthesis(command, tmp_path, monkeypatch):
    path = write_config(tmp_path, scalar_pair_config(t_final=1.0))
    csv_path = str(tmp_path / "trace.csv")
    assert run_cli(["simulate", path, "--out", csv_path])[0] == EXIT_OK

    def forbidden(config):
        raise AssertionError("synthesized before the tolerances were read")

    monkeypatch.setattr(cli, "synthesize_gains", forbidden)
    monkeypatch.setenv(cli.TOLERANCE_ENV_VAR, "nope=1")
    argv = {"synthesize": [path], "simulate": [path, "--out", csv_path], "verify": [path, csv_path]}
    code, out, err = run_cli([command] + argv[command])
    assert code == EXIT_PARSE
    assert out == ""
    assert "nope" in err


def test_parse_config_rejects_unknown_tolerance_key(tmp_path):
    path = write_config(tmp_path, scalar_pair_config(tolerances={"consensuss": 0.5}))
    with pytest.raises(cli.CliError) as excinfo:
        cli.parse_config(path)
    assert "tolerances.consensuss" in str(excinfo.value)
    code, _, err = run_cli(["synthesize", path])
    assert code == EXIT_PARSE and "tolerances.consensuss" in err


def test_horizon_off_the_dt_grid_is_a_parse_error(tmp_path):
    path = write_config(tmp_path, scalar_pair_config(t_final=1.0005))
    for argv in (["synthesize", path], ["simulate", path]):
        code, out, err = run_cli(argv)
        assert code == EXIT_PARSE
        assert "'t_final'" in err
        assert out == ""


# ------------------------------------------------------------- synthesize


def test_synthesize_scalar_prints_golden_ratio(tmp_path):
    config = {
        "mode": "leaderless",
        "plant": {"d": 1, "p": 1, "a": [1.0], "b": [1.0], "q": [1.0]},
        "gamma": 2.0,
        "topology": {"n": 2, "edges": [[1, 2]]},
        "initial_states": {"values": [0.0, 0.0]},
    }
    code, out, err = run_cli(["synthesize", write_config(tmp_path, config)])
    assert code == EXIT_OK
    assert "1.6180339887" in out
    assert "certificate_ok = true" in out


def test_synthesize_not_stabilizable_exit_code(tmp_path):
    config = {
        "mode": "leaderless",
        "plant": {"d": 2, "p": 1, "a": [1.0, 0.0, 0.0, 1.0], "b": [1.0, 0.0], "q": [1.0, 0.0, 0.0, 1.0]},
        "gamma": 1.0,
        "topology": {"n": 2, "edges": [[1, 2]]},
        "initial_states": {"values": [0.0, 0.0, 0.0, 0.0]},
    }
    code, out, err = run_cli(["synthesize", write_config(tmp_path, config)])
    assert code == EXIT_SYNTHESIS
    assert "infeasible" in err


def test_synthesize_unreachable_delta_exit_code(tmp_path):
    # example-2's leader-follower lambda_max(P) never falls below about 7.42
    config = {key: value for key, value in cli._DEMO_CONFIGS["example-2"].items() if key != "gamma"}
    code, out, err = run_cli(["synthesize", write_config(tmp_path, dict(config, delta=5.0))])
    assert code == EXIT_SYNTHESIS
    assert err.startswith("error: synthesis failed: no gamma in [")
    assert "achieves lambda_max <= 5 (best 7.416" in err


def test_synthesize_malformed_dimension_exit_code(tmp_path):
    config = scalar_pair_config()
    config["plant"]["b"] = [1.0, 2.0, 3.0]
    code, out, err = run_cli(["synthesize", write_config(tmp_path, config)])
    assert code == EXIT_PARSE
    assert "plant.b" in err


def test_synthesize_regulation_mode(tmp_path):
    config = scalar_pair_config()
    del config["gamma"]
    config["delta"] = 0.5
    code, out, err = run_cli(["synthesize", write_config(tmp_path, config)])
    assert code == EXIT_OK
    assert "regulated = true" in out
    # certificate p = sqrt(2 / gamma) <= 0.5 at the returned gamma
    lines = dict(
        line.split(" = ", 1) for line in out.splitlines() if " = " in line
    )
    assert float(lines["certificate_max_eigenvalue"]) <= 0.5 * (1 + 1e-9)


def test_synthesize_regulates_the_certify_config_within_24_solves(tmp_path, monkeypatch):
    # the example-1 plant on a 6-cycle at delta 300, as the benchmark's
    # cli-certify operations synthesize it; a slower search or sign iteration
    # fails here by count
    config = scalar_pair_config(
        plant={"d": 2, "p": 1, "a": [0.0, 1.0, -100.0, 0.0], "b": [0.0, 1.0], "q": [1.0, 0.0, 0.0, 2.0]},
        topology={"n": 6, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]]},
        initial_states={"seed": 500, "box": 0.25},
        delta=300.0,
        t_final=3.0,
        sample_stride=1,
    )
    del config["gamma"]
    calls = []
    original = matops.care_solve

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(matops, "care_solve", counting)
    code, out, err = run_cli(["synthesize", write_config(tmp_path, config)])
    assert (code, err) == (EXIT_OK, "")
    assert "regulated = true" in out
    assert len(calls) <= 24


# ---------------------------------------------------------------- simulate


def test_simulate_analytic_two_agent_run(tmp_path):
    path = write_config(tmp_path, scalar_pair_config())
    csv_path = str(tmp_path / "trace.csv")
    code, out, err = run_cli(["simulate", path, "--out", csv_path])
    assert code == EXIT_OK
    lines = [line for line in Path(csv_path).read_text(encoding="utf-8").splitlines() if line]
    assert lines[0] == "t,x1_1,x2_1,w1_2,eta_norm,J_realized,J_bound_partial"
    final = lines[-1].split(",")
    # adaptive weight converges to sqrt(w0^2 + k_w e0^2 / (2 k_u)) = sqrt(5)
    assert abs(float(final[3]) - math.sqrt(5.0)) < 1e-6
    assert abs(float(final[1])) < 1e-6 and abs(float(final[2])) < 1e-6
    assert "consensus_achieved = true" in out
    assert "bound_holds = true" in out


def test_simulate_zero_disagreement_all_zero_cost_columns(tmp_path):
    config = scalar_pair_config(initial_states={"values": [0.7, 0.7]}, t_final=1.0)
    path = write_config(tmp_path, config)
    csv_path = str(tmp_path / "zero.csv")
    code, out, err = run_cli(["simulate", path, "--out", csv_path])
    assert code == EXIT_OK
    rows = [line.split(",") for line in Path(csv_path).read_text(encoding="utf-8").splitlines()[1:] if line]
    assert all(row[-2] == "0" and row[-1] == "0" for row in rows)


def test_simulate_runs_flag(tmp_path):
    config = scalar_pair_config(initial_states={"seed": 21, "box": 0.5}, t_final=2.0)
    path = write_config(tmp_path, config)
    csv_path = str(tmp_path / "ens.csv")
    code, out, err = run_cli(["simulate", path, "--runs", "3", "--out", csv_path])
    assert code == EXIT_OK
    assert "runs_passed = 3/3" in out
    for index in range(3):
        assert os.path.exists(str(tmp_path / f"ens-run{index}.csv"))
    assert "run2 :: consensus_achieved = true" in out


def test_simulate_runs_flag_requires_seed(tmp_path):
    path = write_config(tmp_path, scalar_pair_config())
    code, out, err = run_cli(["simulate", path, "--runs", "2"])
    assert code == EXIT_PARSE
    assert "seeded" in err


def test_simulate_divergence_exit_code(tmp_path):
    config = scalar_pair_config(t_final=30.0)
    config["plant"]["a"] = [3.0]
    config["gains"] = {"certificate": [2.0], "k_u": [-2.0]}
    path = write_config(tmp_path, config)
    code, out, err = run_cli(["simulate", path])
    assert code == EXIT_DIVERGENCE
    assert "exceeded" in err


def test_simulate_weight_divergence_exit_code(tmp_path):
    # k_u = 0 keeps x constant; the huge k_w sends the weight past the guard
    config = scalar_pair_config(t_final=1.0)
    config["gains"] = {"certificate": [1.0], "k_u": [0.0], "k_w": [1e12]}
    path = write_config(tmp_path, config)
    code, out, err = run_cli(["simulate", path])
    assert code == EXIT_DIVERGENCE
    assert "exceeded" in err


def test_simulate_bound_violation_exit_code(tmp_path):
    # a supplied certificate far below the true solution produces a bound
    # the realized cost overruns
    config = scalar_pair_config(t_final=2.0)
    config["gains"] = {"certificate": [1e-6]}
    path = write_config(tmp_path, config)
    code, out, err = run_cli(["simulate", path])
    assert code == EXIT_BOUND
    assert "bound_holds = false" in out


@pytest.mark.parametrize(
    "overrides, failed",
    [
        # example-1's 4-decimal reference certificate
        ({"gains": {"certificate": verify._REFERENCE_CASES["example-1"]["certificate"].ravel().tolist()}},
         "certificate_ok = false"),
        ({"t_final": 0.1}, "consensus_achieved = false"),
    ],
)
def test_simulate_and_verify_exit_5_when_any_check_fails(overrides, failed, tmp_path):
    # the bound holds in both runs; one other verdict fails, and both commands say so by their exit code
    path = write_config(tmp_path, dict(cli._DEMO_CONFIGS["example-1"], **overrides))
    csv_path = str(tmp_path / "trace.csv")
    code, out, err = run_cli(["simulate", path, "--out", csv_path])
    assert (code, err) == (EXIT_BOUND, "")
    assert "bound_holds = true" in out and failed in out.splitlines()
    code, out, err = run_cli(["verify", path, csv_path])
    assert (code, err) == (EXIT_BOUND, "")
    assert "bound_holds = true" in out and failed in out.splitlines()


def test_simulate_plot_script(tmp_path):
    path = write_config(tmp_path, scalar_pair_config(t_final=1.0))
    csv_path = str(tmp_path / "plot.csv")
    script_path = str(tmp_path / "plot.gp")
    code, out, err = run_cli(["simulate", path, "--out", csv_path, "--plot-script", script_path])
    assert code == EXIT_OK
    script = Path(script_path).read_text(encoding="utf-8")
    assert "set datafile separator" in script
    assert csv_path in script
    assert "w1_2" in script


def test_simulate_plot_script_requires_out(tmp_path):
    path = write_config(tmp_path, scalar_pair_config(t_final=1.0))
    code, out, err = run_cli(["simulate", path, "--plot-script", str(tmp_path / "p.gp")])
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "flags", [["--plot-script", "p.gp"], ["--runs", "0", "--echo-config", "e.json"]], ids=["plot-without-out", "runs-0"]
)
def test_bad_simulate_arguments_rejected_before_any_work(flags, tmp_path, monkeypatch):
    path = write_config(tmp_path, scalar_pair_config(t_final=1.0))
    monkeypatch.chdir(tmp_path)

    def forbidden(config):
        raise AssertionError("synthesized before the arguments were checked")

    monkeypatch.setattr(cli, "synthesize_gains", forbidden)
    code, out, err = run_cli(["simulate", path] + flags)
    assert code == EXIT_PARSE
    assert out == ""
    assert not (tmp_path / flags[-1]).exists()


# ------------------------------------------------------------------ verify


def test_verify_round_trip(tmp_path):
    oscillator = dict(cli._DEMO_CONFIGS["example-1"], sample_stride=7)
    for name, config in (("pair", scalar_pair_config()), ("oscillator", oscillator)):
        path = write_config(tmp_path, config, name=f"{name}.json")
        csv_path = str(tmp_path / f"{name}.csv")
        code, out, err = run_cli(["simulate", path, "--out", csv_path])
        assert code == EXIT_OK
        code2, out2, err2 = run_cli(["verify", path, csv_path])
        assert code2 == EXIT_OK
        assert "bound_holds = true" in out2
        assert "consensus_achieved = true" in out2
        # verify rebuilds the whole report, tracking_error included
        lines = out.splitlines()
        report = lines[lines.index(f"trace_csv = {csv_path}") + 1 :]
        assert any(line.startswith("tracking_error = ") for line in report)
        assert report == out2.splitlines()


@pytest.mark.parametrize("samples", [1, 256, 257, 3001])
def test_trace_csv_bytes_equal_savetxt(samples, tmp_path):
    # chunk edges (256, 257 rows), a signed zero, the smallest subnormal, a
    # value near the top of the range and integral floats
    rng = np.random.default_rng(samples)
    special = [-0.0, 5e-324, 1e308, -1e308, 3.0, -42.0, 0.0, 1e16]
    n, d, edges = 2, 2, ((1, 2),)
    scales = 10.0 ** rng.integers(-300, 300, size=(samples, 1))
    columns = rng.normal(size=(samples, 1 + n * d + len(edges) + 3)) * scales
    flat = columns.ravel()
    picked = rng.choice(flat.size, size=min(flat.size, 40), replace=False)
    flat[picked] = rng.choice(special, size=len(picked))
    times, states, weights, eta, j, jb = np.split(columns, [1, 1 + n * d, 1 + n * d + len(edges), -2, -1], axis=1)
    trace = sim.Trace(
        mode=LEADERLESS,
        n=n,
        d=d,
        adaptive_edges=edges,
        times=times[:, 0],
        states=states,
        weights=weights,
        j_realized=j[:, 0],
        j_bound_integral=jb[:, 0],
        eta_norm=eta[:, 0],
    )
    path = tmp_path / "trace.csv"
    cli.write_trace_csv(str(path), trace)
    expected = io.StringIO(newline="\n")
    header = ",".join(cli._trace_header(n, d, edges))
    np.savetxt(expected, columns, fmt="%.17g", delimiter=",", header=header, comments="")
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


def test_tracking_error_is_distance_to_consensus_function_at_t_final(tmp_path):
    # simulate and verify both measure the agents at t_final against
    # e^{A t_final} avg x(0), with x(0) the first CSV row
    config = dict(cli._DEMO_CONFIGS["example-1"], sample_stride=7)
    path = write_config(tmp_path, config)
    csv_path = str(tmp_path / "trace.csv")
    code, out, err = run_cli(["simulate", path, "--out", csv_path])
    assert code == EXIT_OK
    code2, out2, err2 = run_cli(["verify", path, csv_path])
    assert code2 == EXIT_OK
    run_config = cli.parse_config(path)
    trace = cli.read_trace_csv(csv_path, run_config)
    n, d = trace.n, trace.d
    target = sim.consensus_function(run_config.a, trace.states[0].reshape(n, d), trace.times[-1])
    errors = trace.states[-1].reshape(n, d) - target
    expected = float(np.sqrt((errors * errors).sum(axis=1)).max())
    for text in (out, out2):
        [line] = [line for line in text.splitlines() if line.startswith("tracking_error = ")]
        assert float(line.split(" = ")[1]) == expected


def test_verify_header_mismatch(tmp_path):
    path = write_config(tmp_path, scalar_pair_config())
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("t,x1_1\n0,1\n", encoding="utf-8")
    code, out, err = run_cli(["verify", path, str(bad_csv)])
    assert code == EXIT_PARSE
    assert "columns" in err


def test_verify_checks_header_names(tmp_path):
    path = write_config(tmp_path, scalar_pair_config(t_final=1.0))
    csv_path = tmp_path / "trace.csv"
    assert run_cli(["simulate", path, "--out", str(csv_path)])[0] == EXIT_OK
    header, body = csv_path.read_text(encoding="utf-8").split("\n", 1)
    assert header == "t,x1_1,x2_1,w1_2,eta_norm,J_realized,J_bound_partial"
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("t,x1_1,x2_1,eta_norm,w1_2,J_realized,J_bound_partial\n" + body, encoding="utf-8")
    code, out, err = run_cli(["verify", path, str(swapped)])
    assert code == EXIT_PARSE
    assert out == ""
    assert str(swapped) in err

    header_only = tmp_path / "header-only.csv"
    header_only.write_text(header + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["verify", path, str(header_only)])
    assert code == EXIT_PARSE
    assert "at least one sample" in err


@pytest.mark.parametrize("cut", [1, -1], ids=["rows-one-short", "rows-one-long"])
def test_verify_checks_row_width_against_the_header(cut, tmp_path):
    path = write_config(tmp_path, scalar_pair_config(t_final=1.0))
    csv_path = tmp_path / "trace.csv"
    assert run_cli(["simulate", path, "--out", str(csv_path)])[0] == EXIT_OK
    header, *rows = csv_path.read_text(encoding="utf-8").splitlines()
    # every row is one cell short, or carries one extra cell, under the right header
    rows = [row.rsplit(",", 1)[0] if cut == 1 else row + ",0" for row in rows]
    bad = tmp_path / "bad-width.csv"
    bad.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    code, out, err = run_cli(["verify", path, str(bad)])
    assert code == EXIT_PARSE
    assert out == ""
    assert str(bad) in err and "columns" in err


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_verify_rejects_non_finite_cells(cell, tmp_path):
    path = write_config(tmp_path, scalar_pair_config(t_final=1.0))
    csv_path = tmp_path / "trace.csv"
    assert run_cli(["simulate", path, "--out", str(csv_path)])[0] == EXIT_OK
    header, *rows = csv_path.read_text(encoding="utf-8").splitlines()
    cells = rows[-1].split(",")
    cells[-2] = cell  # J_realized of the last sample
    bad = tmp_path / "non-finite.csv"
    bad.write_text("\n".join([header] + rows[:-1] + [",".join(cells)]) + "\n", encoding="utf-8")
    code, out, err = run_cli(["verify", path, str(bad)])
    assert code == EXIT_PARSE
    assert out == ""
    assert f"trace {bad}: sample {len(rows)} has J_realized = {cell}" in err


def test_verify_skips_blank_lines_before_the_header(tmp_path):
    path = write_config(tmp_path, scalar_pair_config(t_final=1.0))
    csv_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(["simulate", path, "--out", str(csv_path)])
    assert code == EXIT_OK
    padded = tmp_path / "padded.csv"
    padded.write_text("\n  \n" + csv_path.read_text(encoding="utf-8"), encoding="utf-8")
    code2, out2, _ = run_cli(["verify", path, str(padded)])
    assert code2 == EXIT_OK
    assert out2.splitlines()[-1] == out.splitlines()[-1]


@pytest.mark.parametrize("setting, verdict", [("default", "false"), ("config", "true"), ("env", "true")])
def test_gains_block_and_report_check_the_certificate_at_one_tolerance(setting, verdict, tmp_path, monkeypatch):
    # 1 - 1e-6 times the designed certificate leaves a margin of about 8e-6:
    # above the default certificate tolerance 1e-9, below the 1e-2 set here
    designed = cli.synthesize_gains(cli.demo_config("example-1")).certificate
    shrunk = {"certificate": list((1 - 1e-6) * designed.ravel())}
    config = dict(cli._DEMO_CONFIGS["example-1"], t_final=0.1, gains=shrunk)
    if setting == "config":
        config["tolerances"] = {"certificate": 1e-2}
    elif setting == "env":
        monkeypatch.setenv(cli.TOLERANCE_ENV_VAR, "certificate=1e-2")
    path = write_config(tmp_path, config)
    expected = f"certificate_ok = {verdict}"
    code, out, err = run_cli(["synthesize", path])
    assert (code, err) == (EXIT_OK, "")
    assert [line for line in out.splitlines() if line.startswith("certificate_ok = ")] == [expected]
    code, out, err = run_cli(["simulate", path])
    # consensus is not reached by t_final 0.1, a failed check
    assert (code, err) == (EXIT_BOUND, "")
    assert [line for line in out.splitlines() if line.startswith("certificate_ok = ")] == [expected, expected]


@pytest.mark.parametrize("command", ["synthesize", "simulate", "verify"])
def test_a_non_symmetric_certificate_override_names_its_field(command, tmp_path):
    config = dict(cli._DEMO_CONFIGS["example-1"], t_final=0.1)
    csv_path = str(tmp_path / "trace.csv")
    # consensus is not reached by t_final 0.1, a failed check; the trace is still written
    assert run_cli(["simulate", write_config(tmp_path, config), "--out", csv_path])[0] == EXIT_BOUND
    path = write_config(tmp_path, dict(config, gains={"certificate": [1.0, 2.0, 0.0, 1.0]}), "override.json")
    code, out, err = run_cli([command, path] + ([csv_path] if command == "verify" else []))
    assert (code, out) == (EXIT_PARSE, "")
    message = "certificate is not symmetric within 1e-10 relative tolerance"
    assert err == f"error: config field 'gains.certificate': {message}\n"


# ------------------------------------------------------------- stdout shape

REPORT_KEYS = [
    "mode", "horizon", "realized_cost", "bound", "bound_holds", "consensus_achieved", "initial_disagreement",
    "final_disagreement", "weights_monotone", "min_weight_delta", "final_weight_rate", "tracking_error",
    "certificate_margin", "certificate_ok",
]


def stdout_keys(out):
    """The key of each stdout line: its text before ' = ' or ' | '."""
    return [re.split(r" = | \| ", line, maxsplit=1)[0] for line in out.splitlines()]


def gain_keys(d, regulated=False):
    return (
        ["mode"] + ["regulated"] * regulated + ["gamma"] + ["certificate"] * d + ["k_u"] + ["k_w"] * d
        + ["certificate_margin", "certificate_ok", "certificate_max_eigenvalue"]
    )


def test_synthesize_prints_the_pinned_key_sequence(tmp_path):
    regulated = scalar_pair_config(delta=0.5)
    del regulated["gamma"]
    for config, keys in ((scalar_pair_config(), gain_keys(1)), (regulated, gain_keys(1, regulated=True))):
        code, out, err = run_cli(["synthesize", write_config(tmp_path, config)])
        assert (code, err) == (EXIT_OK, "")
        assert stdout_keys(out) == keys


def test_simulate_runs_prints_the_pinned_key_sequence(tmp_path):
    path = write_config(tmp_path, scalar_pair_config(initial_states={"seed": 21, "box": 0.5}, t_final=2.0))
    code, out, err = run_cli(["simulate", path, "--runs", "2"])
    assert (code, err) == (EXIT_OK, "")
    run_keys = ["initial_seed", "initial_box", "x0", "x0"] + REPORT_KEYS + ["warning_1"]
    labelled = [f"run{i} :: {key}" for i in range(2) for key in run_keys]
    assert stdout_keys(out) == gain_keys(1) + labelled + ["runs_passed"]


@pytest.mark.parametrize("which, d", [("example-1", 2), ("example-2", 4)])
def test_demo_prints_the_pinned_key_sequence(which, d, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["demo", which, "--out", "trace.csv"])
    assert (code, err) == (EXIT_OK, "")
    reference = [
        "reference_gain_check", "reference_k_u", "reference_k_u_max_deviation", "reference_k_w_max_deviation",
        "reference_gain_check_passed", "reference_total_informational",
    ]
    if which == "example-2":
        reference += ["strict_gain_regulation_bbt_max_eigenvalue", "strict_gain_regulation_precondition"]
    run_keys = ["initial_seed", "initial_box"] + ["x0"] * 6 + ["trace_csv"] + REPORT_KEYS + ["warning_1"]
    assert stdout_keys(out) == reference + ["note"] + gain_keys(d) + run_keys


# -------------------------------------------------------------------- demo


def test_demo_example_2_reports_strict_precondition(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["demo", "example-2", "--out", str(tmp_path / "d2.csv")])
    assert code == EXIT_OK
    assert "strict_gain_regulation_bbt_max_eigenvalue = 362" in out
    assert "reference_gain_check_passed = true" in out
    assert "stand-in topology" in out
    assert "bound_holds = true" in out
    assert "consensus_achieved = true" in out


def test_demo_unknown_example():
    code, out, err = run_cli(["demo", "example-3"])
    assert code == EXIT_PARSE


# ------------------------------------------------------------------- misc


FAILURE_CASES = [
    (sim.DivergenceError(time=1.5, magnitude=2e9), EXIT_DIVERGENCE, "error: divergence: "),
    (matops.NotStabilizableError("unstable mode"), EXIT_SYNTHESIS, "error: synthesis infeasible: "),
    (synthesis.SynthesisError("no gain"), EXIT_SYNTHESIS, "error: synthesis failed: "),
    (cli.CliError("bad"), EXIT_PARSE, "error: bad"),
    (TopologyError("bad"), EXIT_PARSE, "error: bad"),
    (sim.ConfigurationError("bad"), EXIT_PARSE, "error: bad"),
    (verify.VerificationError("bad"), EXIT_PARSE, "error: bad"),
    (matops.LinearAlgebraError("bad"), EXIT_PARSE, "error: bad"),
    (ValueError("bad"), EXIT_PARSE, "error: bad"),
]


@pytest.mark.parametrize("exc, code, prefix", FAILURE_CASES, ids=[type(c[0]).__name__ for c in FAILURE_CASES])
def test_main_maps_each_failure_to_its_exit_code(exc, code, prefix, tmp_path, monkeypatch):
    path = write_config(tmp_path, scalar_pair_config())

    def failing(config):
        raise exc

    monkeypatch.setattr(cli, "synthesize_gains", failing)
    got, out, err = run_cli(["synthesize", path])
    assert got == code
    assert err.startswith(prefix)
    assert out == ""


def test_main_propagates_failures_outside_the_table(tmp_path, monkeypatch):
    # every row of the table is exercised above
    assert {type(c[0]) for c in FAILURE_CASES} == {t for types, _, _ in cli._FAILURES for t in types}
    path = write_config(tmp_path, scalar_pair_config())

    def failing(config):
        raise RuntimeError("not a command failure")

    monkeypatch.setattr(cli, "synthesize_gains", failing)
    with pytest.raises(RuntimeError):
        run_cli(["synthesize", path])


def test_help_exits_zero():
    code, out, err = run_cli(["--help"])
    assert code == EXIT_OK


def test_unknown_command_exits_parse():
    code, out, err = run_cli(["frobnicate"])
    assert code == EXIT_PARSE
