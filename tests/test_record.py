import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from consensuskit import cli, graph, sim, synthesis, verify

# What omitting each defaulted field stands for; every other field is required.
DEFAULTS = {
    "Topology": {"weights": None, "leader": None},
    "GainSet": {"k_u": None, "k_w": None},
    "LmiReport": {},
    "SimConfig": {"dt": 1e-3, "sample_stride": 1},
    "Trace": {},
    "CostReport": {"warnings": ()},
    "RunConfig": {},
}


@pytest.fixture(scope="module")
def records():
    """One record of each type, built by the code that builds it in a run."""
    config = cli.parse_config_text(
        json.dumps(
            {
                "mode": "leaderless",
                "plant": {"d": 2, "p": 1, "a": [0.0, 1.0, -1.0, 0.0], "b": [0.0, 1.0], "q": [1.0, 0.0, 0.0, 1.0]},
                "gamma": 2.0,
                "topology": {"n": 3, "edges": [[1, 2], [2, 3]]},
                "initial_states": {"seed": 1, "box": 1.0},
                "t_final": 0.5,
                "sample_stride": 50,
            }
        )
    )
    gains = cli.synthesize_gains(config)
    sim_config = sim.SimConfig(x0=cli.initial_states(config), t_final=config.t_final, sample_stride=config.sample_stride)
    trace = sim.run(sim_config, gains, config.topology)
    report = verify.analyze(trace, gains, config.topology)
    lmi = synthesis.verify_lmi_corollary(gains.certificate, gains.gamma, config.a, config.b, config.q, 2, 10.0)
    return {type(record).__name__: record for record in (config.topology, gains, lmi, sim_config, trace, report, config)}


@pytest.mark.parametrize("name", list(DEFAULTS))
def test_each_record_type_keeps_the_dataclass_construction_contract(name, records):
    record = records[name]
    cls = type(record)
    values = {field: getattr(record, field) for field in cls._fields}
    assert repr(cls(**values)) == repr(cls(*values.values())) == repr(record.replace()) == repr(record)
    defaults = DEFAULTS[name]
    required = {field: value for field, value in values.items() if field not in defaults}
    assert repr(cls(**required)) == repr(cls(**required, **defaults))

    first = cls._fields[0]
    bad_calls = {
        "missing": ((), {field: value for field, value in required.items() if field != first}),
        "unknown": ((), {**values, "bogus": 1}),
        "repeated": ((values[first],), values),
        "too many positional": ((*values.values(), 1), {}),
    }
    for args, kwargs in bad_calls.values():
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    with pytest.raises(TypeError):
        record.replace(bogus=1)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
        setattr(record, first, values[first])
    with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.bogus = 1
    assert getattr(record, first) is values[first]
    assert repr(record).startswith(f"{name}({first}={values[first]!r}, ")


def test_replace_reruns_post_init_and_repr_eq_hash_match_the_dataclass_contract(records):
    topology = graph.Topology(3, ((3, 2), (2, 1)))
    assert repr(topology) == "Topology(n=3, edges=((1, 2), (2, 3)), weights={(1, 2): 1.0, (2, 3): 1.0}, leader=None)"
    moved = topology.replace(edges=((2, 1), (1, 3)), weights=None)
    assert (moved.edges, moved.weights) == (((1, 2), (1, 3)), {(1, 2): 1.0, (1, 3): 1.0})
    with pytest.raises(graph.TopologyError, match="need at least 2 agents"):
        topology.replace(n=1)
    assert topology == graph.Topology(3, ((1, 2), (2, 3)), {(2, 3): 1, (1, 2): 1.0})
    assert topology != graph.cycle_topology(3) and topology != "Topology"
    with pytest.raises(TypeError, match="unhashable"):
        hash(topology)  # its weights are a dict

    gains = records["GainSet"]
    k_w = 2.0 * gains.k_w
    doubled = gains.replace(k_w=k_w)
    assert doubled.k_u is gains.k_u and doubled.k_w is k_w
    derived = gains.replace(k_u=None, k_w=None)
    assert np.array_equal(derived.k_u, gains.k_u) and np.array_equal(derived.k_w, gains.k_w)
    with pytest.raises(ValueError, match="mode must be one of"):
        gains.replace(mode="pinned")

    report = records["CostReport"]
    assert hash(report) == hash(tuple(getattr(report, field) for field in report._fields))
    assert report.replace() == report and hash(report.replace()) == hash(report)
    assert report.replace(warnings=("late",)) != report

    config = records["RunConfig"]  # compared by identity, as before
    assert config == config and config != config.replace() and hash(config) == object.__hash__(config)


def test_importing_the_cli_loads_no_dataclasses():
    # the value types share one record base; no class body generates code at import,
    # and signal is imported by the console script's entry, not by the module
    code = "import sys, consensuskit.cli; print('dataclasses' in sys.modules, 'signal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False False"
