import importlib
import importlib.util
import sys
from pathlib import Path

from consensuskit import cli, sim, synthesis

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def load_bench_module(monkeypatch, path):
    """The benchmark module at path, in sys.modules while the test runs: its dataclasses look the module up."""
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_of_the_package(monkeypatch):
    # the benchmark's --trace pass wraps each (module, attr) in TRACED, so a
    # renamed or deleted function breaks it
    tracing = load_bench_module(monkeypatch, TRACING)
    assert tracing.TRACED
    for module_name, attr, _ in tracing.TRACED:
        module = importlib.import_module(f"consensuskit.{module_name}")
        assert callable(getattr(module, attr, None)), f"consensuskit.{module_name}.{attr}"


def test_each_benchmark_network_takes_its_lift_form(monkeypatch):
    # every network an end-to-end operation runs, and the two six-agent step
    # probes, take the dense lift; the three large probes take the four products
    workloads = load_bench_module(monkeypatch, WORKLOADS)
    cases = [("ensemble", "leaderless", workloads._topology(n, getattr(workloads, f"_{kind}")(n)))
             for kind, n, _ in workloads._LEADERLESS_CASES]
    cases += [("ensemble", "leader-follower", workloads._leader_follower_topology(k)) for k in range(5)]
    certify_n = workloads._CERTIFY_N
    cases.append(("cli-certify", "leaderless", workloads._topology(certify_n, workloads._cycle(certify_n))))
    cases += [(name, mode, topology) for name, mode, topology, _ in workloads.STEP_CASES]
    gains = {}
    for name, mode, topology in cases:
        plant, gamma = workloads._DESIGN[mode]
        init = {"seed": 0, "box": 0.25}
        config = cli.parse_config_text(workloads._config_doc(mode, plant, topology, 1.0, 1, gamma=gamma, init=init))
        if mode not in gains:
            design = synthesis.design_leaderless if mode == "leaderless" else synthesis.design_leader_follower
            gains[mode] = design(config.a, config.b, config.q, config.gamma)
        protocol = sim._Protocol(gains[mode], config.topology, mode)
        dense = protocol.lift.__self__ is not protocol
        assert dense == (name not in ("ll-cycle200", "ll-complete50", "lf-cycle100")), (name, topology)
