import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from consensuskit import _g17, cli, matops, sim, synthesis, verify
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


@pytest.mark.parametrize(
    "command, document, env, trace, expected",
    [
        (
            "synthesize",
            {key: value for key, value in scalar_pair_config().items() if key != "mode"},
            "",
            None,
            "config field 'mode': missing",
        ),
        ("synthesize", scalar_pair_config(plant=3), "", None, "config field 'plant': expected an object"),
        ("synthesize", scalar_pair_config(dt="x"), "", None, "config field 'dt': expected a number, got 'x'"),
        ("synthesize", scalar_pair_config(gamma=-1), "", None, "config field 'gamma': must be positive, got -1.0"),
        (
            "synthesize",
            scalar_pair_config(mode="leaderful"),
            "",
            None,
            "config field 'mode': expected 'leaderless' or 'leader-follower', got 'leaderful'",
        ),
        (
            "synthesize",
            scalar_pair_config(plant={"d": 1, "p": 1, "a": "zero", "b": [1.0], "q": [1.0]}),
            "",
            None,
            "config field 'plant.a': expected a flat list of numbers (row-major)",
        ),
        (
            "synthesize",
            scalar_pair_config(topology={"n": 2, "edges": 3}),
            "",
            None,
            "config field 'topology.edges': expected a list of [i, k] pairs",
        ),
        (
            "synthesize",
            scalar_pair_config(topology={"n": 2, "edges": [[1]]}),
            "",
            None,
            "config field 'topology.edges[0]': expected a pair [i, k]",
        ),
        (
            "synthesize",
            scalar_pair_config(topology={"n": 2, "edges": [[1, 1], [1, 2]]}),
            "",
            None,
            "config field 'topology': self-loop on agent 1",
        ),
        (
            "synthesize",
            scalar_pair_config(topology={"n": 2, "edges": [[1, 2], [2, 1]]}),
            "",
            None,
            "config field 'topology': duplicate edge (1, 2)",
        ),
        (
            "synthesize",
            scalar_pair_config(topology={"n": 2, "edges": [[1, 2]], "leader": 1}),
            "",
            None,
            "config field 'topology.leader': leaderless mode takes no leader, got agent 1",
        ),
        (
            "synthesize",
            scalar_pair_config(initial_states={"seed": 1, "box": "wide"}),
            "",
            None,
            "config field 'initial_states.box': expected a half-width number or a [low, high] pair",
        ),
        (
            "synthesize",
            scalar_pair_config(tolerances=3),
            "",
            None,
            "config field 'tolerances': expected an object of name -> value",
        ),
        ("synthesize", [], "", None, "{config}: top level must be an object"),
        ("synthesize", None, "", None, "[Errno 2] No such file or directory: '{config}'"),
        (
            "synthesize",
            b"\xff" + json.dumps(scalar_pair_config()).encode(),
            "",
            None,
            "{config}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
        (
            "synthesize",
            scalar_pair_config(),
            "consensus",
            None,
            f"{cli.TOLERANCE_ENV_VAR}: expected name=value, got 'consensus'",
        ),
        (
            "synthesize",
            scalar_pair_config(),
            "consensus=abc",
            None,
            f"{cli.TOLERANCE_ENV_VAR} entry 'consensus': expected a real, finite number, got 'abc'",
        ),
        (
            "synthesize",
            scalar_pair_config(tolerances={"consensus": -0.01}),
            "",
            None,
            "config field 'tolerances.consensus': must be >= 0, got -0.01",
        ),
        (
            "synthesize",
            scalar_pair_config(),
            "consensus=-1",
            None,
            f"{cli.TOLERANCE_ENV_VAR} entry 'consensus': must be >= 0, got -1.0",
        ),
        ("verify", scalar_pair_config(), "", None, "[Errno 2] No such file or directory: '{trace}'"),
        (
            "verify",
            scalar_pair_config(),
            "",
            "t,x1_1,x2_1,w1_2,eta_norm,J_realized,J_bound_partial\n0,-1,1,1,2,0,0\n0.1,-1,abc,1,2,0,0\n",
            "trace {trace}: sample 2 has x2_1 = 'abc', expected a number",
        ),
        (
            "verify",
            scalar_pair_config(),
            "",
            "t,x1_1,x2_1,w1_2,eta_norm,J_realized,J_bound_partial\n0,-1,1,1,2,0,0\n0.1,-1,1_0,1,2,0,0\n",
            "trace {trace}: sample 2 has x2_1 = '1_0', expected a number",
        ),
        (
            "verify",
            scalar_pair_config(),
            "",
            "t,x1_1,x2_1,w1_2,eta_norm,J_realized,J_bound_partial\n0,-1,1,1,2,0,0\n0.1,-1,1,1,2,\u0661,0\n",
            "trace {trace}: sample 2 has J_realized = '\u0661', expected a number",
        ),
        (
            "verify",
            scalar_pair_config(),
            "",
            "t,x1_1,x2_1,w1_2,eta_norm,J_realized,J_bound_partial\n0,-1,1,1,2,0,0\n\n0.1,-1,1,1,2,0,0\n0.2,-1,1,1,2,0\n",
            "trace {trace}: sample 3 has 6 columns, expected 7",
        ),
        (
            "verify",
            scalar_pair_config(),
            "",
            "t,x1_1,x2_1,w1_2,eta_norm,J_realized,J_bound_partial\n0,-1,1,1,2,0,0\n0.1,-1,1,1,2,0,0\n",
            "trace {trace}: has 2 samples, expected 51 for this config",
        ),
        (
            "verify",
            scalar_pair_config(dt=0.5, t_final=1.0, sample_stride=1),
            "",
            "t,x1_1,x2_1,w1_2,eta_norm,J_realized,J_bound_partial\n0,-1,1,1,2,0,0\n0.5,-1,1,1,2,0,0\n2,-1,1,1,2,0,0\n",
            "trace {trace}: sample 3 has t = 2.0, expected 1.0",
        ),
        (
            "synthesize",
            json.dumps(cli._DEMO_CONFIGS["example-1"])[:-1] + ', "dt": 0.5, "gamma": 7.0}',
            "",
            None,
            "config field 'gamma': given twice",
        ),
        (
            "synthesize",
            json.dumps(scalar_pair_config()).replace('{"d": 1', '{"d": 3, "d": 1'),
            "",
            None,
            "config field 'plant.d': given twice",
        ),
        (
            "synthesize",
            json.dumps(scalar_pair_config(tolerances={"consensus": 0.5})).replace("}}", ', "consensus": 0.5}}'),
            "",
            None,
            "config field 'tolerances.consensus': given twice",
        ),
        (
            "simulate",
            json.dumps(with_gains()).replace("}}", ', "k_u": [-1.0]}}'),
            "",
            None,
            "config field 'gains.k_u': given twice",
        ),
        (
            "simulate",
            json.dumps(scalar_pair_config()).replace('{"values"', '{"values": [1.0, 1.0], "values"'),
            "",
            None,
            "config field 'initial_states.values': given twice",
        ),
        (
            "synthesize",
            dict(cli._DEMO_CONFIGS["example-1"], plant=dict(cli._DEMO_CONFIGS["example-1"]["plant"], q=[1, 0.5, 0, 2])),
            "",
            None,
            "config field 'plant.q': q is not symmetric within 1e-10 relative tolerance",
        ),
        (
            "verify",
            dict(cli._DEMO_CONFIGS["example-1"], gains={"certificate": [1.0, 2.0, 0.0, 1.0]}),
            "",
            None,
            "config field 'gains.certificate': certificate is not symmetric within 1e-10 relative tolerance",
        ),
        # json's decoder recurses once per level; past the interpreter's limit that is a RecursionError
        ("synthesize", '{"mode": ' + "[" * 100000 + "]" * 100000 + "}", "", None, "{config}: JSON nested too deeply"),
    ],
    ids=[
        "no-mode", "plant-not-an-object", "dt-text", "gamma-negative", "bad-mode", "plant-a-text",
        "edges-not-a-list", "one-element-edge", "self-loop", "duplicate-edge", "leader-in-leaderless", "bad-box", "tolerances-not-an-object",
        "top-level-list", "missing-config", "undecodable-config", "env-without-value", "env-value-text",
        "tolerance-negative", "env-value-negative",
        "missing-trace", "trace-text-cell", "trace-underscore-cell", "trace-arabic-indic-digit", "trace-short-row",
        "trace-missing-samples", "trace-t-off-the-sample-times",
        "top-level-key-twice", "plant-key-twice", "tolerance-twice", "gains-key-twice", "initial-values-twice",
        "q-not-symmetric", "certificate-not-symmetric-trace-missing", "json-nested-too-deeply",
    ],
)
def test_each_parse_error_names_its_field_or_file(command, document, env, trace, expected, tmp_path, monkeypatch):
    # a document of None leaves the config file unwritten, as a trace of None does the trace file;
    # a str document is written as it is (JSON text a dict cannot hold, such as a key given twice),
    # and a bytes document byte for byte
    config_path, trace_path = tmp_path / "config.json", tmp_path / "trace.csv"
    if isinstance(document, bytes):
        config_path.write_bytes(document)
    elif document is not None:
        config_path.write_text(document if isinstance(document, str) else json.dumps(document), encoding="utf-8")
    if trace is not None:
        trace_path.write_text(trace, encoding="utf-8")
    monkeypatch.setenv(cli.TOLERANCE_ENV_VAR, env)
    argv = [command, str(config_path)] + ([str(trace_path)] if command == "verify" else [])
    code, out, err = run_cli(argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "error: " + expected.format(config=config_path, trace=trace_path) + "\n"


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


@pytest.mark.parametrize("command", ["synthesize", "simulate"])
def test_echo_config_writes_the_canonical_form_and_leaves_stdout_unchanged(command, tmp_path):
    config = scalar_pair_config(t_final=1.0, tolerances={"consensus": 5e-3}, initial_states={"seed": 4, "box": 0.5})
    path = write_config(tmp_path, config)
    echo = tmp_path / "echo.json"
    plain = run_cli([command, path])
    assert plain[0] == EXIT_OK
    assert run_cli([command, path, "--echo-config", str(echo)]) == plain
    assert echo.read_text(encoding="utf-8") == cli.render_config(cli.parse_config(path)) + "\n"
    assert cli.render_config(cli.parse_config(str(echo))) == cli.render_config(cli.parse_config(path))


@pytest.mark.parametrize("command", ["synthesize", "simulate"])
def test_echo_config_is_written_before_synthesis_fails(command, tmp_path):
    # the README plant cannot reach lambda_max <= 1e-9; both commands echo the parsed config first
    document = json.loads(Path(readme_config(tmp_path)).read_text(encoding="utf-8"))
    del document["gamma"]
    path = write_config(tmp_path, dict(document, delta=1e-9))
    echo = tmp_path / "echo.json"
    code, out, err = run_cli([command, path, "--echo-config", str(echo)])
    assert code == EXIT_SYNTHESIS
    assert "no gamma in [1e-06, 1e+12] achieves lambda_max <= 1e-09" in err
    assert echo.read_text(encoding="utf-8") == cli.render_config(cli.parse_config(path)) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["synthesize", "{config}", "--echo-config", "{absent}/echo.json"],
        ["simulate", "{config}", "--echo-config", "{absent}/echo.json"],
        ["simulate", "{config}", "--out", "{absent}/trace.csv"],
        ["simulate", "{config}", "--out", "{tmp}/trace.csv", "--plot-script", "{absent}/plot.gp"],
        ["demo", "example-1", "--out", "{absent}/trace.csv"],
    ],
    ids=["synthesize-echo-config", "simulate-echo-config", "simulate-out", "simulate-plot-script", "demo-out"],
)
def test_a_file_the_os_will_not_write_exits_parse_on_one_line_naming_it(argv, tmp_path):
    # the last argument is a path in a directory that does not exist
    config = write_config(tmp_path, scalar_pair_config(t_final=1.0))
    argv = [arg.format(config=config, tmp=tmp_path, absent=tmp_path / "no-such-dir") for arg in argv]
    code, _, err = run_cli(argv)
    assert code == EXIT_PARSE
    assert err == f"error: [Errno 2] No such file or directory: '{argv[-1]}'\n"


@pytest.mark.parametrize(
    "source, sha256",
    [
        ("README.md", "f4ede00d5f1b420971b96d255af75b19b1cb4ed5c148fcb783fe24c3ceadeb62"),
        ("example-1", "46716951e34677c2a600a71f0f296a7c0d3010e5168c73651061cd0b10e96ac1"),
        ("example-2", "8c117883a090caed82a385283bb637c3d29291fb7cd3d5150bab58547297cc37"),
    ],
)
def test_config_echo_bytes_are_pinned(source, sha256):
    # the echo's exact bytes on the README and demo configs; a new digest here is a change of the echo's format
    if source == "README.md":
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        [example] = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
        config = cli.parse_config_text(example, source=source)
    else:
        config = cli.demo_config(source)
    echoed = cli.render_config(config)
    assert hashlib.sha256(echoed.encode("utf-8")).hexdigest() == sha256, echoed


def comparable(config):
    """The fields of a RunConfig, with arrays as (shape, entries), for ==."""

    def plain(value):
        if isinstance(value, np.ndarray):
            return value.shape, value.tolist()
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value

    return {name: plain(getattr(config, name)) for name in config._fields}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_config_echo_round_trips_over_random_configs(data):
    mode = data.draw(st.sampled_from([LEADERLESS, LEADER_FOLLOWER]), label="mode")
    d, p = data.draw(st.integers(1, 3), label="d"), data.draw(st.integers(1, 2), label="p")
    n, edges, weights = draw_connected_graph(data)
    number = st.floats(-1e3, 1e3)

    def flat(rows, cols):
        return data.draw(st.lists(number, min_size=rows * cols, max_size=rows * cols))

    def symmetric(d):
        # the parser rejects a q or certificate that is not symmetric: mirror the drawn upper triangle
        m = flat(d, d)
        return [m[min(i, k) * d + max(i, k)] for i in range(d) for k in range(d)]

    topology = {"n": n, "edges": [list(e) for e in edges], "weights": [[i, k, w] for (i, k), w in weights.items()]}
    if mode == LEADER_FOLLOWER:
        topology["leader"] = 1
    dt = data.draw(st.sampled_from([1e-3, 2.5e-3, 0.01]), label="dt")
    doc = {
        "mode": mode,
        "plant": {"d": d, "p": p, "a": flat(d, d), "b": flat(d, p), "q": symmetric(d)},
        "topology": topology,
        "dt": dt,
        "t_final": dt * data.draw(st.integers(1, 5000), label="steps"),
        "sample_stride": data.draw(st.integers(1, 50), label="sample_stride"),
        "tolerances": data.draw(st.dictionaries(st.sampled_from(sorted(verify.DEFAULT_TOLERANCES)), st.floats(0, 1e3))),
    }
    if data.draw(st.booleans(), label="explicit initial states"):
        doc["initial_states"] = {"values": flat(n, d)}
    else:
        low = data.draw(st.floats(-10.0, 10.0))
        box = st.one_of(st.floats(1e-3, 10.0), st.just([low, low + data.draw(st.floats(1e-2, 10.0))]))
        doc["initial_states"] = {"seed": data.draw(st.integers(0, 2**32)), "box": data.draw(box, label="box")}
    if data.draw(st.booleans(), label="gains override"):
        doc["gains"] = {"certificate": symmetric(d)}
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


def test_readme_python_quick_start_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)[0]
    exec(compile(example, "README.md", "exec"), {})
    realized, bound, holds = re.fullmatch(r"(\S+) <= (\S+) (\S+)\n", capsys.readouterr().out).groups()
    assert float(realized) <= float(bound) and holds == "True"


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


@pytest.mark.parametrize("entries", ["consensus=1e-3, consensus=0.5", "consensus=0.5,bound_rel=1e-9, consensus =0.5"])
def test_env_tolerance_given_twice_exits_parse(entries, tmp_path, monkeypatch):
    # as in a config object, a name given twice is an error, not the last value silently kept
    path = write_config(tmp_path, scalar_pair_config(t_final=1.0))
    monkeypatch.setenv(cli.TOLERANCE_ENV_VAR, entries)
    code, out, err = run_cli(["synthesize", path])
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "error: CONSENSUSKIT_TOLERANCES entry 'consensus': given twice\n"


def test_env_overrides_config(monkeypatch, tmp_path):
    config = cli.parse_config_text(
        json.dumps(scalar_pair_config(tolerances={"consensus": 0.5}))
    )
    assert cli.merged_tolerances(config) == {"consensus": 0.5}
    monkeypatch.setenv(cli.TOLERANCE_ENV_VAR, "consensus=0.25")
    assert cli.merged_tolerances(config) == {"consensus": 0.25}


def test_a_consensus_tolerance_of_zero_passes_an_exact_consensus(tmp_path, monkeypatch):
    # every agent starts at the leader's state, so the follower errors stay
    # exactly zero; a tolerance of 0 is accepted, so it must be attainable
    config = dict(
        cli._DEMO_CONFIGS["example-1"],
        mode=LEADER_FOLLOWER,
        topology={"n": 3, "leader": 1, "edges": [[1, 2], [2, 3]]},
        initial_states={"values": [0.1, -0.2] * 3},
        t_final=0.1,
    )
    path = write_config(tmp_path, config)
    monkeypatch.setenv(cli.TOLERANCE_ENV_VAR, "consensus=0")
    code, out, err = run_cli(["simulate", path])
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert "final_disagreement = 0" in lines
    assert "consensus_achieved = true" in lines
    assert not [line for line in lines if line.startswith("warning_")]


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


def test_a_failed_stable_subspace_solve_exits_3(tmp_path, monkeypatch):
    # np.linalg.LinAlgError, which on its own would propagate as a program fault
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(matops.np.linalg, "lstsq", failing)
    code, out, err = run_cli(["synthesize", write_config(tmp_path, scalar_pair_config())])
    assert code == EXIT_SYNTHESIS
    assert err == (
        "error: synthesis infeasible: stable-subspace least-squares solve failed: "
        "SVD did not converge in Linear Least Squares\n"
    )


@pytest.mark.parametrize("scale", [1e160, 1e300])
@pytest.mark.parametrize("which", sorted(cli._DEMO_CONFIGS))
def test_a_b_whose_gamma_b_b_t_overflows_is_infeasible_naming_gamma(which, scale, tmp_path):
    # from about 1e155 on, B B^T overflows, as it did inside matops' argument check, which named its 'm'
    demo = cli._DEMO_CONFIGS[which]
    path = write_config(tmp_path, dict(demo, plant=dict(demo["plant"], b=[scale * v for v in demo["plant"]["b"]])))
    for command in ("synthesize", "simulate"):
        assert run_cli([command, path]) == (
            EXIT_SYNTHESIS, "", f"error: synthesis infeasible: gamma B B^T overflows at gamma {demo['gamma']:g}\n"
        )


def test_a_certificate_override_whose_residual_overflows_fails_its_check(tmp_path):
    # 1e300 I overflows the Riccati residual: its margin is inf, a failed check, in each command
    demo = cli._DEMO_CONFIGS["example-1"]
    csv_path = str(tmp_path / "designed.csv")
    assert run_cli(["simulate", write_config(tmp_path, demo, "designed.json"), "--out", csv_path])[0] == EXIT_OK
    path = write_config(tmp_path, dict(demo, gains={"certificate": [1e300, 0.0, 0.0, 1e300]}))
    # K_w = K_u^T K_u overflows too, on which NumPy warns in the gain and derivative products
    with np.errstate(over="ignore", invalid="ignore"):
        synthesized = run_cli(["synthesize", path])
        simulated = run_cli(["simulate", path])
        verified = run_cli(["verify", path, csv_path])
    assert (synthesized[0], synthesized[2]) == (EXIT_OK, "")
    assert (simulated[0], verified[0], verified[2]) == (EXIT_DIVERGENCE, EXIT_BOUND, "")
    # the infinite K_w turns the first step's row NaN, which exceeds no limit
    assert simulated[2] == "error: divergence: state is non-finite at t=0.001000\n"
    for out in (synthesized[1], verified[1]):
        assert "certificate_margin = inf\ncertificate_ok = false\n" in out


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
    # each section is printed as it is yielded: the gains block and x0 came before the divergence
    code, gains_block, _ = run_cli(["synthesize", path])
    assert code == EXIT_OK and stdout_keys(gains_block) == gain_keys(1)
    assert out == gains_block + "x0 | -1\nx0 | 1\n"


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


def test_plot_script_doubles_the_quotes_in_its_paths(tmp_path):
    # gnuplot reads '' inside a single-quoted string as one quote
    path = write_config(tmp_path, scalar_pair_config(t_final=1.0))
    csv_path = str(tmp_path / "it's.csv")
    script_path = str(tmp_path / "plot.gp")
    code, _, _ = run_cli(["simulate", path, "--out", csv_path, "--plot-script", script_path])
    assert code == EXIT_OK
    script = Path(script_path).read_text(encoding="utf-8")
    quoted = csv_path.replace("'", "''")
    assert f"plot '{quoted}' using 1:2 with lines title 'x1_1'" in script
    assert "set output 'it''s_states.png'" in script
    for line in script.splitlines():
        assert "'" not in re.sub(r"'(?:[^']|'')*'", "", line), line


@pytest.mark.parametrize(
    "argv, first, second",
    [
        (["simulate", "{config}", "--out", "same.txt", "--plot-script", "same.txt"], "--out", "--plot-script"),
        (["simulate", "{config}", "--echo-config", "t.csv", "--out", "./sub/../t.csv"], "--echo-config", "--out"),
        (
            ["simulate", "{seeded}", "--runs", "2", "--echo-config", "t-run1.csv", "--out", "t.csv"],
            "--echo-config",
            "--out",
        ),
        (["demo", "example-1", "--plot-script", "consensuskit-demo-example-1.csv"], "--out", "--plot-script"),
    ],
    ids=["out-and-plot-script", "echo-and-out-by-realpath", "echo-and-a-run-csv", "demo-default-csv"],
)
def test_two_outputs_naming_one_file_exit_parse_before_any_work(argv, first, second, tmp_path, monkeypatch):
    # the later write would leave only its own text, which verify then cannot read
    config = write_config(tmp_path, scalar_pair_config(t_final=1.0))
    seeded = write_config(tmp_path, scalar_pair_config(t_final=1.0, initial_states={"seed": 1, "box": 1.0}), "s.json")
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)

    def forbidden(*args):
        raise AssertionError("worked before the output paths were checked")

    monkeypatch.setattr(cli, "synthesize_gains", forbidden)
    monkeypatch.setattr(verify, "verify_reference_gains", forbidden)
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli([arg.format(config=config, seeded=seeded) for arg in argv])
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith(f"error: {first} and {second} name the same file ") and err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate", "t-run1.json", "--out", "t-run1.json"], "--out"),
        (["synthesize", "t-run1.json", "--echo-config", "./sub/../t-run1.json"], "--echo-config"),
        (["simulate", "t-run1.json", "--echo-config", "t-run1.json"], "--echo-config"),
        (["simulate", "t-run1.json", "--runs", "2", "--out", "t.json"], "--out"),
        (["simulate", "t-run1.json", "--out", "hard.json"], "--out"),
    ],
    ids=["simulate-out", "synthesize-echo-by-realpath", "simulate-echo", "a-run-csv", "simulate-out-by-hard-link"],
)
def test_an_output_naming_the_config_exits_parse_and_leaves_it_unchanged(argv, flag, tmp_path, monkeypatch):
    # the config would be replaced by the trace or its echo before it is read again
    write_config(tmp_path, scalar_pair_config(t_final=1.0, initial_states={"seed": 1, "box": 1.0}), "t-run1.json")
    os.link(tmp_path / "t-run1.json", tmp_path / "hard.json")  # another name of the config, with its own realpath
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)

    def forbidden(*args):
        raise AssertionError("worked before the output paths were checked")

    monkeypatch.setattr(cli, "synthesize_gains", forbidden)
    before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    code, out, err = run_cli(argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith(f"error: config and {flag} name the same file ") and err.count("\n") == 1
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before


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
    # a stride past the horizon's 3000 steps records steps 0 and 3000 only
    ends = dict(cli._DEMO_CONFIGS["example-1"], sample_stride=1e300)
    for name, config in (("pair", scalar_pair_config()), ("oscillator", oscillator), ("ends", ends)):
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


# Rows per formatting pass of the test's 9-column trace.
_PASS_ROWS = _g17._PASS_CELLS // 9

_SPECIAL_CELLS = [
    # a signed zero, the smallest subnormal, values near the top of the range, integral floats
    *(-0.0, 5e-324, 1e308, -1e308, 3.0, -42.0, 0.0, 1e16),
    # one ulp either side of powers of ten, where log10's exponent may be off by one,
    # within and just outside the NumPy path's range [1e-280, 1e280]
    *(np.nextafter(10.0**k, side) for k in (-280, -100, -5, -4, 0, 1, 16, 17, 37, 280) for side in (-np.inf, np.inf)),
    # the %g switch to e-notation below 1e-4 and at 17 integer digits
    *(1e-5, 9.9999999999999991e-05, 1e-4, 9999999999999998.0, 1e16, 99999999999999984.0, 1e17),
    # doubles just below 10**-14 and 10**98 whose 17 digits round up to that power
    *(1e-14, 1e98),
    # an exact tie, printed 2.9802322387695312e-08 by rounding half to even
    2.0**-25,
    float("nan"),
]


@pytest.mark.parametrize("samples", [1, 256, 257, 3001, _PASS_ROWS, _PASS_ROWS + 1])
def test_trace_csv_bytes_equal_savetxt(samples, tmp_path):
    # edges of the formatter's passes; from 256 rows on, every special cell appears at least once
    rng = np.random.default_rng(samples)
    n, d, edges = 2, 2, ((1, 2),)
    scales = 10.0 ** rng.integers(-300, 300, size=(samples, 1))
    columns = rng.normal(size=(samples, 1 + n * d + len(edges) + 3)) * scales
    flat = columns.ravel()
    picked = rng.choice(flat.size, size=min(flat.size, 2 * len(_SPECIAL_CELLS)), replace=False)
    flat[picked] = np.resize(_SPECIAL_CELLS, len(picked))
    times, states, weights, eta, j, jb = np.split(columns, [1, 1 + n * d, 1 + n * d + len(edges), -2, -1], axis=1)
    # the writer derives eta_norm from the states; the squares of rows scaled past 1e154 overflow to inf there
    with np.errstate(over="ignore", invalid="ignore"):
        eta[:, 0] = sim.disagreement_norms(states.reshape(-1, n, d), LEADERLESS)
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
    )
    path = tmp_path / "trace.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        cli.write_trace_csv(str(path), trace)
    expected = io.StringIO(newline="\n")
    header = ",".join(cli._trace_header(n, d, edges))
    np.savetxt(expected, columns, fmt="%.17g", delimiter=",", header=header, comments="")
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


_ANY_FLOAT = st.one_of(
    st.floats(),  # Hypothesis' own edge cases: zeros, subnormals, infinities, nan
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),  # every bit pattern
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ANY_FLOAT, min_size=1, max_size=60), st.integers(1, 4))
def test_g17_text_is_percent_17g_of_any_float(values, columns):
    cells = np.resize(np.array(values), (-(-len(values) // columns), columns))
    line = ",".join(["%.17g"] * columns) + "\n"
    expected = "".join(line % tuple(row) for row in cells.tolist()).encode()
    assert b"".join(bytes(text) for text in _g17.blocks((cells,))) == expected


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


def test_verify_derives_the_disagreement_from_the_states_not_the_eta_norm_column(tmp_path):
    # example-1 stopped at t = 0.1 is far from consensus; a zero written into
    # its last eta_norm cell changes neither the verdict nor any report line
    path = write_config(tmp_path, dict(cli._DEMO_CONFIGS["example-1"], t_final=0.1))
    csv_path = tmp_path / "trace.csv"
    assert run_cli(["simulate", path, "--out", str(csv_path)])[0] == EXIT_BOUND
    header, *rows = csv_path.read_text(encoding="utf-8").splitlines()
    cells = rows[-1].split(",")
    cells[header.split(",").index("eta_norm")] = "0"
    edited = tmp_path / "edited.csv"
    edited.write_text("\n".join([header] + rows[:-1] + [",".join(cells)]) + "\n", encoding="utf-8")
    untouched = run_cli(["verify", path, str(csv_path)])
    assert untouched[0] == EXIT_BOUND and "consensus_achieved = false" in untouched[1]
    assert run_cli(["verify", path, str(edited)]) == untouched


def test_verify_rejects_a_trace_that_is_not_utf8(tmp_path):
    path = write_config(tmp_path, scalar_pair_config(t_final=1.0))
    csv_path = tmp_path / "trace.csv"
    assert run_cli(["simulate", path, "--out", str(csv_path)])[0] == EXIT_OK
    header, body = csv_path.read_bytes().split(b"\n", 1)
    bad = tmp_path / "not-utf8.csv"
    bad.write_bytes(header + b"\n\xff\xfe" + body)
    code, out, err = run_cli(["verify", path, str(bad)])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith(f"error: trace {bad}: 'utf-8' codec can't decode byte 0xff")


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


def readme_config(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    path = tmp_path / "readme.json"
    path.write_text(example, encoding="utf-8")
    return str(path)


def count_certificate_checks(monkeypatch):
    calls = []
    original = synthesis.verify_riccati_certificate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(synthesis, "verify_riccati_certificate", counting)
    return calls


@pytest.mark.parametrize("command", ["synthesize", "simulate --runs 3", "verify"])
def test_each_command_checks_its_gain_set_certificate_once(command, tmp_path, monkeypatch):
    # the gains block and every run's report read one GainSet.certificate_margin
    path = readme_config(tmp_path)
    name, *flags = command.split()
    if name == "verify":
        csv_path = str(tmp_path / "trace.csv")
        assert run_cli(["simulate", path, "--out", csv_path])[0] == EXIT_OK
        flags = [csv_path]
    calls = count_certificate_checks(monkeypatch)
    code, out, err = run_cli([name, path] + flags)
    assert (code, err) == (EXIT_OK, "")
    assert len(calls) == 1


@pytest.mark.parametrize("source", ["leaderless", "leader-follower", "regulated", "override"])
def test_certificate_margin_is_the_certificate_checks_margin_read_once(source, monkeypatch):
    document = dict(cli._DEMO_CONFIGS["example-2" if source == "leader-follower" else "example-1"])
    if source == "regulated":
        del document["gamma"]
        document["delta"] = 300.0
    elif source == "override":
        designed = cli.synthesize_gains(cli.demo_config("example-1")).certificate
        document["gains"] = {"certificate": list((1 - 1e-6) * designed.ravel())}
    gains = cli.synthesize_gains(cli.parse_config_text(json.dumps(document)))
    margin = synthesis.verify_riccati_certificate(
        gains.certificate, gains.a, gains.b, gains.q, gains.gamma, gains.multiplier
    )
    calls = count_certificate_checks(monkeypatch)
    assert gains.certificate_margin == margin
    assert gains.certificate_margin == margin  # the second read makes no call
    assert len(calls) == 1


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


@pytest.mark.parametrize("command", ["synthesize", "simulate"])
def test_a_non_symmetric_certificate_fails_the_parse_before_the_echo_is_written(command, tmp_path):
    config = dict(cli._DEMO_CONFIGS["example-1"], gains={"certificate": [1.0, 2.0, 0.0, 1.0]})
    echo = tmp_path / "echo.json"
    code, out, err = run_cli([command, write_config(tmp_path, config), "--echo-config", str(echo)])
    assert (code, out) == (EXIT_PARSE, "")
    message = "certificate is not symmetric within 1e-10 relative tolerance"
    assert err == f"error: config field 'gains.certificate': {message}\n"
    assert not echo.exists()


@pytest.mark.parametrize("gains", ["designed", "override"])
def test_a_non_symmetric_q_exits_parse_before_any_output(gains, tmp_path):
    # a supplied certificate is checked against the plant's Q by the same rule a design applies
    config = dict(cli._DEMO_CONFIGS["example-1"], t_final=0.1)
    config["plant"] = dict(config["plant"], q=[1.0, 0.5, 0.0, 2.0])
    if gains == "override":
        designed = cli.synthesize_gains(cli.demo_config("example-1")).certificate
        config["gains"] = {"certificate": list(designed.ravel())}
    code, out, err = run_cli(["synthesize", write_config(tmp_path, config)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "error: config field 'plant.q': q is not symmetric within 1e-10 relative tolerance\n"


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


def test_a_divergence_in_run_1_exits_4_after_printing_run_0_in_full(tmp_path, monkeypatch):
    path = write_config(tmp_path, scalar_pair_config(initial_states={"seed": 21, "box": 0.5}, t_final=2.0))
    code, full, _ = run_cli(["simulate", path, "--runs", "2"])
    assert code == EXIT_OK
    run, calls = sim.run, []

    def diverging_second_call(*args):
        calls.append(args)
        if len(calls) == 2:
            raise sim.DivergenceError(time=1.0, magnitude=2e9)
        return run(*args)

    monkeypatch.setattr(sim, "run", diverging_second_call)
    code, out, err = run_cli(["simulate", path, "--runs", "2"])
    assert (code, len(calls)) == (EXIT_DIVERGENCE, 2) and err.startswith("error: divergence: ")
    run0 = ["initial_seed", "initial_box", "x0", "x0"] + REPORT_KEYS + ["warning_1"]
    run1 = ["initial_seed", "initial_box", "x0", "x0"]
    assert stdout_keys(out) == gain_keys(1) + [f"run0 :: {key}" for key in run0] + [f"run1 :: {key}" for key in run1]
    assert full.startswith(out)


def test_one_failed_run_of_three_exits_5_after_printing_every_report(tmp_path, monkeypatch):
    analyze, reports = verify.analyze, []

    def failing_second_report(*args):
        report = analyze(*args)
        reports.append(report.replace(bound_holds=False) if len(reports) == 1 else report)
        return reports[-1]

    monkeypatch.setattr(verify, "analyze", failing_second_report)
    path = write_config(tmp_path, scalar_pair_config(initial_states={"seed": 21, "box": 0.5}, t_final=2.0))
    code, out, err = run_cli(["simulate", path, "--runs", "3"])
    assert (code, err) == (EXIT_BOUND, "")
    assert [report.passed for report in reports] == [True, False, True]
    run_keys = ["initial_seed", "initial_box", "x0", "x0"] + REPORT_KEYS + ["warning_1"]
    labelled = [f"run{i} :: {key}" for i in range(3) for key in run_keys]
    assert stdout_keys(out) == gain_keys(1) + labelled + ["runs_passed"]
    assert [line for line in out.splitlines() if "bound_holds" in line] == [
        "run0 :: bound_holds = true", "run1 :: bound_holds = false", "run2 :: bound_holds = true",
    ]
    assert out.splitlines()[-1] == "runs_passed = 2/3"


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


@pytest.mark.parametrize("excess, holds", [(5e-10, True), (5e-9, False)], ids=["within-1e-9", "beyond-1e-9"])
def test_one_input_scaling_threshold_for_the_lmi_strict_regulation_and_the_demo(excess, holds, tmp_path, monkeypatch):
    # B = sqrt(1 + excess) B1 gives lambda_max(B B^T) = 1 + excess on either side of the 1 + 1e-9 threshold
    scale = math.sqrt(1.0 + excess)
    b = scale * np.array([[0.0], [1.0]])
    a, q = np.array([[0.0, 1.0], [-100.0, 0.0]]), np.diag([1.0, 2.0])
    report = synthesis.verify_lmi_corollary(np.eye(2), 2.0, a, b, q, 2, 200.0, strict=True)
    assert report.bbt_precondition_ok is holds
    if holds:
        synthesis.regulate_gain(a, b, q, 300.0, strict=True)
    else:
        with pytest.raises(synthesis.RegulationError, match="strict mode requires"):
            synthesis.regulate_gain(a, b, q, 300.0, strict=True)
    demo = json.loads(json.dumps(cli._DEMO_CONFIGS["example-1"]))
    demo["plant"]["b"] = [0.0, scale]
    monkeypatch.setitem(cli._DEMO_CONFIGS, "example-1", demo)
    code, out, err = run_cli(["demo", "example-1", "--out", str(tmp_path / "demo.csv")])
    assert (code, err) == (EXIT_OK, "")
    assert ("strict_gain_regulation_precondition = violated" in out) is not holds
    assert ("strict_gain_regulation_bbt_max_eigenvalue = " in out) is not holds


def test_demo_unknown_example():
    code, out, err = run_cli(["demo", "example-3"])
    assert code == EXIT_PARSE
    # argparse rejects the name first; demo_config's own check names the known demos
    with pytest.raises(cli.CliError, match="^unknown demo 'example-3'; expected 'example-1' or 'example-2'$"):
        cli.demo_config("example-3")


# ------------------------------------------------------------------- misc


FAILURE_CASES = [
    (sim.DivergenceError(time=1.5, magnitude=2e9), EXIT_DIVERGENCE, "error: divergence: "),
    (matops.NotStabilizableError("unstable mode"), EXIT_SYNTHESIS, "error: synthesis infeasible: "),
    (synthesis.SynthesisError("no gain"), EXIT_SYNTHESIS, "error: synthesis failed: "),
    (cli.CliError("bad"), EXIT_PARSE, "error: bad"),
    (OSError("bad"), EXIT_PARSE, "error: bad"),
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


# the library's own error types and NumPy's: the parser names the field of every input fault in a CliError,
# so one of these reaching main is a program fault, which propagates as a traceback
PROGRAM_FAULTS = [
    TopologyError("bad"),
    sim.ConfigurationError("bad"),
    verify.VerificationError("bad"),
    matops.LinearAlgebraError("bad"),
    ValueError("bad"),
    np.linalg.LinAlgError("bad"),
]


@pytest.mark.parametrize("exc", PROGRAM_FAULTS, ids=[type(exc).__name__ for exc in PROGRAM_FAULTS])
def test_main_propagates_each_library_error_as_a_program_fault(exc, tmp_path, monkeypatch):
    path = write_config(tmp_path, scalar_pair_config())

    def failing(config):
        raise exc

    monkeypatch.setattr(cli, "synthesize_gains", failing)
    with pytest.raises(type(exc)) as excinfo:
        run_cli(["synthesize", path])
    assert excinfo.value is exc


def test_a_numpy_fault_in_the_simulation_propagates_after_the_gains_block(tmp_path, monkeypatch):
    # a broadcast error standing in for a defect in the rate pass
    def broken(self, x):
        return np.ones(3) + np.ones(4)

    monkeypatch.setattr(sim._Protocol, "rates", broken)
    out, err = io.StringIO(), io.StringIO()
    with pytest.raises(ValueError, match=r"could not be broadcast together with shapes \(3,\) \(4,\)"):
        cli.main(["demo", "example-1", "--out", str(tmp_path / "demo.csv")], out=out, err=err)
    assert "certificate_ok = true" in out.getvalue()
    assert err.getvalue() == ""


def _paths(node, prefix=()):
    """The path of every node below ``node`` in a JSON document, containers first."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


# No positive number below 1e-3, the demos' dt: with t_final at most 0.2, a run takes at most 200 steps.
_MUTATIONS = (
    1e300, -1e300, 2**63, math.nan, math.inf, 0, -1, 1, 0.5, 1e-3, True, None, "x",
    [], [1.0, 2.0], [[1, 2]], {}, {"n": 2},
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_mutated_demo_config_exits_by_the_contract(data, tmp_path_factory):
    which = data.draw(st.sampled_from(sorted(cli._DEMO_CONFIGS)), label="demo")
    doc = dict(json.loads(json.dumps(cli._DEMO_CONFIGS[which])), t_final=0.2)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        *parents, key = data.draw(st.sampled_from(list(_paths(doc))), label="path")
        node = doc
        for part in parents:
            node = node[part]
        node[key] = json.loads(json.dumps(data.draw(st.sampled_from(_MUTATIONS), label="value")))
    t_final = doc.get("t_final")
    if isinstance(t_final, (int, float)) and not isinstance(t_final, bool) and t_final > 0.2:
        doc["t_final"] = 0.2
    directory = tmp_path_factory.mktemp("mutated")
    path = write_config(directory, doc)
    named = re.compile("|".join(("config field '", re.escape(path), cli.TOLERANCE_ENV_VAR, "--[a-z]")))
    for argv in (["synthesize", path], ["simulate", path, "--out", str(directory / "trace.csv")]):
        # a value of 1e300 overflows the gain and derivative products, on which NumPy warns
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(argv)
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_SYNTHESIS, EXIT_DIVERGENCE, EXIT_BOUND), (argv, err)
        if code == EXIT_PARSE:
            assert err.count("\n") == 1 and named.search(err), (doc, err)


def test_help_exits_zero(capsys):
    code, out, err = run_cli(["--help"])
    assert code == EXIT_OK
    # argparse writes to main's streams, not the process's
    assert out.startswith("usage: consensuskit") and err == ""
    assert capsys.readouterr() == ("", "")


def test_unknown_command_exits_parse(capsys):
    code, out, err = run_cli(["frobnicate"])
    assert code == EXIT_PARSE
    assert "invalid choice: 'frobnicate'" in err and out == ""
    assert capsys.readouterr() == ("", "")


def test_a_missing_argument_exits_parse_with_usage_on_mains_err(capsys):
    code, out, err = run_cli(["simulate"])
    assert code == EXIT_PARSE
    assert err.startswith("usage: consensuskit simulate")
    assert err.endswith("error: the following arguments are required: config\n") and out == ""
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_console_script_ends_quietly_when_stdout_is_closed(unbuffered, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has left before the demo writes its first line
    try:
        result = subprocess.run(
            [sys.executable, "-m", "consensuskit.cli", "demo", "example-1", "--out", str(tmp_path / "demo.csv")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (-signal.SIGPIPE, b"")
