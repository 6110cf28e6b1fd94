"""Command-line entry point.

Subcommands:

- ``synthesize <cfg>``: design gains from a config and print the certificate.
- ``simulate <cfg> [--out csv] [--plot-script path] [--runs k]``: synthesize,
  integrate, verify, and emit the trace CSV plus a cost report.
- ``demo <example-1|example-2>``: run the reference-gain cross-check and the
  full pipeline on an embedded example system with a documented stand-in
  topology.
- ``verify <cfg> <trace.csv>``: re-verify a previously written trace.

Configs are JSON: nested sections with flat row-major numeric arrays and
explicit dimensions.  Exit codes: 0 success, 2 parse/config error,
3 synthesis infeasible, 4 divergence, 5 bound violated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import graph, matops, sim, synthesis, verify
from .graph import Topology, TopologyError
from .sim import SimConfig, Trace
from .synthesis import GainSet, LEADERLESS, LEADER_FOLLOWER

__all__ = [
    "EXIT_OK",
    "EXIT_PARSE",
    "EXIT_SYNTHESIS",
    "EXIT_DIVERGENCE",
    "EXIT_BOUND",
    "TOLERANCE_ENV_VAR",
    "CliError",
    "RunConfig",
    "parse_config",
    "parse_config_text",
    "render_config",
    "initial_states",
    "synthesize_gains",
    "write_trace_csv",
    "read_trace_csv",
    "write_plot_script",
    "cmd_synthesize",
    "cmd_simulate",
    "cmd_demo",
    "cmd_verify",
    "main",
    "entry",
]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SYNTHESIS = 3
EXIT_DIVERGENCE = 4
EXIT_BOUND = 5

TOLERANCE_ENV_VAR = "CONSENSUSKIT_TOLERANCES"


class CliError(Exception):
    """A command-line, config or trace-file error (exit code 2, see ``_FAILURES``)."""


@dataclass(eq=False)
class RunConfig:
    """Parsed run configuration.

    ``gamma`` and ``delta`` are mutually exclusive: a fixed translation
    factor versus a gain-factor target for regulation.  ``initial_seed`` and
    ``initial_box`` describe seeded uniform draws; ``initial_values`` is an
    explicit state array.  Exactly one initial-state form is set.
    """

    mode: str
    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    topology: Topology
    gamma: Optional[float] = None
    delta: Optional[float] = None
    initial_values: Optional[np.ndarray] = None
    initial_seed: Optional[int] = None
    initial_box: Optional[tuple[float, float]] = None
    dt: float = 1e-3
    t_final: float = 3.0
    sample_stride: int = 1
    tolerances: dict = field(default_factory=dict)
    gains_override: Optional[dict] = None

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def input_dim(self) -> int:
        return self.b.shape[1]


def _fail(field_name: str, message: str) -> CliError:
    return CliError(f"config field '{field_name}': {message}")


def _get(section: dict, field_name: str, qualified: str, required: bool = True, default=None):
    if field_name not in section:
        if required:
            raise _fail(qualified, "missing")
        return default
    return section[field_name]


def _as_int(value, qualified: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or int(value) != value:
        raise _fail(qualified, f"expected an integer, got {value!r}")
    return int(value)


def _as_float(value, qualified: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(qualified, f"expected a number, got {value!r}")
    return float(value)


def _as_matrix(value, rows: int, cols: int, qualified: str) -> np.ndarray:
    if not isinstance(value, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise _fail(qualified, "expected a flat list of numbers (row-major)")
    if len(value) != rows * cols:
        raise _fail(qualified, f"expected {rows * cols} numbers for a {rows}x{cols} matrix, got {len(value)}")
    return np.array(value, dtype=float).reshape(rows, cols)


def _parse_topology(section, qualified: str) -> Topology:
    if not isinstance(section, dict):
        raise _fail(qualified, "expected an object")
    n = _as_int(_get(section, "n", f"{qualified}.n"), f"{qualified}.n")
    raw_edges = _get(section, "edges", f"{qualified}.edges")
    if not isinstance(raw_edges, list):
        raise _fail(f"{qualified}.edges", "expected a list of [i, k] pairs")
    edges = []
    for idx, item in enumerate(raw_edges):
        if not isinstance(item, list) or len(item) != 2:
            raise _fail(f"{qualified}.edges[{idx}]", "expected a pair [i, k]")
        i = _as_int(item[0], f"{qualified}.edges[{idx}][0]")
        k = _as_int(item[1], f"{qualified}.edges[{idx}][1]")
        edges.append((i, k))
    leader = _get(section, "leader", f"{qualified}.leader", required=False)
    if leader is not None:
        leader = _as_int(leader, f"{qualified}.leader")
    weights = {graph.canonical_edge(i, k): 1.0 for i, k in edges}
    raw_weights = _get(section, "weights", f"{qualified}.weights", required=False, default=[])
    if not isinstance(raw_weights, list):
        raise _fail(f"{qualified}.weights", "expected a list of [i, k, weight] triples")
    for idx, item in enumerate(raw_weights):
        if not isinstance(item, list) or len(item) != 3:
            raise _fail(f"{qualified}.weights[{idx}]", "expected a triple [i, k, weight]")
        i = _as_int(item[0], f"{qualified}.weights[{idx}][0]")
        k = _as_int(item[1], f"{qualified}.weights[{idx}][1]")
        pair = graph.canonical_edge(i, k)
        if pair not in weights:
            raise _fail(f"{qualified}.weights[{idx}]", f"edge {pair} is not in the edge list")
        weights[pair] = _as_float(item[2], f"{qualified}.weights[{idx}][2]")
    try:
        topology = Topology(n=n, edges=tuple(edges), weights=weights, leader=leader)
    except TopologyError as exc:
        raise _fail(qualified, str(exc))
    return topology


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse a JSON config document into a RunConfig."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{source}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise CliError(f"{source}: top level must be an object")

    mode = _get(raw, "mode", "mode")
    if mode not in (LEADERLESS, LEADER_FOLLOWER):
        raise _fail("mode", f"expected '{LEADERLESS}' or '{LEADER_FOLLOWER}', got {mode!r}")

    plant = _get(raw, "plant", "plant")
    if not isinstance(plant, dict):
        raise _fail("plant", "expected an object")
    d = _as_int(_get(plant, "d", "plant.d"), "plant.d")
    p = _as_int(_get(plant, "p", "plant.p", required=False, default=1), "plant.p")
    if d < 1 or p < 1:
        raise _fail("plant.d", "state and input dimensions must be at least 1")
    a = _as_matrix(_get(plant, "a", "plant.a"), d, d, "plant.a")
    b = _as_matrix(_get(plant, "b", "plant.b"), d, p, "plant.b")
    q = _as_matrix(_get(plant, "q", "plant.q"), d, d, "plant.q")

    gamma = _get(raw, "gamma", "gamma", required=False)
    if gamma is not None:
        gamma = _as_float(gamma, "gamma")
        if not gamma > 0.0:
            raise _fail("gamma", f"must be positive, got {gamma}")
    delta = _get(raw, "delta", "delta", required=False)
    if delta is not None:
        delta = _as_float(delta, "delta")
        if not delta > 0.0:
            raise _fail("delta", f"must be positive, got {delta}")
    if gamma is None and delta is None:
        raise _fail("gamma", "either gamma or delta is required")
    if gamma is not None and delta is not None:
        raise _fail("gamma", "gamma and delta are mutually exclusive")

    topology = _parse_topology(_get(raw, "topology", "topology"), "topology")
    if mode == LEADER_FOLLOWER and topology.leader is None:
        raise _fail("topology.leader", "leader-follower mode requires a leader")

    init = _get(raw, "initial_states", "initial_states")
    if not isinstance(init, dict):
        raise _fail("initial_states", "expected an object")
    initial_values = None
    initial_seed = None
    initial_box = None
    if "values" in init:
        initial_values = _as_matrix(
            _get(init, "values", "initial_states.values"), topology.n, d, "initial_states.values"
        )
    else:
        initial_seed = _as_int(_get(init, "seed", "initial_states.seed"), "initial_states.seed")
        box = _get(init, "box", "initial_states.box")
        if isinstance(box, (int, float)) and not isinstance(box, bool):
            half = float(box)
            if not half > 0.0:
                raise _fail("initial_states.box", f"half-width must be positive, got {half}")
            initial_box = (-half, half)
        elif isinstance(box, list) and len(box) == 2:
            lo = _as_float(box[0], "initial_states.box[0]")
            hi = _as_float(box[1], "initial_states.box[1]")
            if not lo < hi:
                raise _fail("initial_states.box", f"need low < high, got [{lo}, {hi}]")
            initial_box = (lo, hi)
        else:
            raise _fail("initial_states.box", "expected a half-width number or a [low, high] pair")

    dt = _as_float(_get(raw, "dt", "dt", required=False, default=1e-3), "dt")
    t_final = _as_float(_get(raw, "t_final", "t_final", required=False, default=3.0), "t_final")
    stride = _as_int(_get(raw, "sample_stride", "sample_stride", required=False, default=1), "sample_stride")

    tolerances = _get(raw, "tolerances", "tolerances", required=False, default={})
    if not isinstance(tolerances, dict):
        raise _fail("tolerances", "expected an object of name -> value")
    tolerances = _checked_tolerances(tolerances, "config field 'tolerances.{}'")

    gains_override = None
    if "gains" in raw:
        section = raw["gains"]
        if not isinstance(section, dict):
            raise _fail("gains", "expected an object")
        gains_override = {
            "certificate": _as_matrix(_get(section, "certificate", "gains.certificate"), d, d, "gains.certificate")
        }
        if "k_u" in section:
            gains_override["k_u"] = _as_matrix(section["k_u"], p, d, "gains.k_u")
        if "k_w" in section:
            gains_override["k_w"] = _as_matrix(section["k_w"], d, d, "gains.k_w")

    known = {
        "mode", "plant", "gamma", "delta", "topology", "initial_states",
        "dt", "t_final", "sample_stride", "tolerances", "gains",
    }
    unknown = set(raw) - known
    if unknown:
        raise _fail(sorted(unknown)[0], "unknown field")

    config = RunConfig(
        mode=mode,
        a=a,
        b=b,
        q=q,
        topology=topology,
        gamma=gamma,
        delta=delta,
        initial_values=initial_values,
        initial_seed=initial_seed,
        initial_box=initial_box,
        dt=dt,
        t_final=t_final,
        sample_stride=stride,
        tolerances=tolerances,
        gains_override=gains_override,
    )
    if config.dt <= 0.0:
        raise _fail("dt", f"must be positive, got {config.dt}")
    try:
        sim.horizon_steps(config.t_final, config.dt)
    except sim.ConfigurationError as exc:
        raise _fail("t_final", str(exc))
    if config.sample_stride < 1:
        raise _fail("sample_stride", f"must be >= 1, got {config.sample_stride}")
    return config


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    return parse_config_text(text, source=path)


def render_config(config: RunConfig) -> str:
    """Canonical JSON echo of a RunConfig; re-parsing gives an equal config."""
    d = config.state_dim
    p = config.input_dim
    doc: dict = {
        "mode": config.mode,
        "plant": {
            "d": d,
            "p": p,
            "a": list(config.a.ravel()),
            "b": list(config.b.ravel()),
            "q": list(config.q.ravel()),
        },
        "topology": {
            "n": config.topology.n,
            "edges": [[i, k] for i, k in config.topology.edges],
            "weights": [[i, k, config.topology.weights[(i, k)]] for i, k in config.topology.edges],
        },
        "dt": config.dt,
        "t_final": config.t_final,
        "sample_stride": config.sample_stride,
    }
    if config.topology.leader is not None:
        doc["topology"]["leader"] = config.topology.leader
    if config.gamma is not None:
        doc["gamma"] = config.gamma
    if config.delta is not None:
        doc["delta"] = config.delta
    if config.initial_values is not None:
        doc["initial_states"] = {"values": list(config.initial_values.ravel())}
    else:
        doc["initial_states"] = {"seed": config.initial_seed, "box": list(config.initial_box)}
    if config.tolerances:
        doc["tolerances"] = dict(sorted(config.tolerances.items()))
    if config.gains_override is not None:
        section = {"certificate": list(config.gains_override["certificate"].ravel())}
        if "k_u" in config.gains_override:
            section["k_u"] = list(config.gains_override["k_u"].ravel())
        if "k_w" in config.gains_override:
            section["k_w"] = list(config.gains_override["k_w"].ravel())
        doc["gains"] = section
    return json.dumps(doc, indent=2, sort_keys=True)


def _checked_tolerances(entries: dict, where: str) -> dict:
    """Tolerance overrides as floats, each named in verify.DEFAULT_TOLERANCES.

    ``where`` names one entry in an error message, with ``{}`` for its name.
    """
    out = {}
    for name, value in entries.items():
        if name not in verify.DEFAULT_TOLERANCES:
            raise CliError(f"{where.format(name)}: unknown tolerance; known: {sorted(verify.DEFAULT_TOLERANCES)}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CliError(f"{where.format(name)}: expected a number, got {value!r}")
        out[name] = float(value)
    return out


def env_tolerances(environ=None) -> dict:
    """Tolerance overrides from the environment, e.g. 'consensus=1e-3,bound_rel=1e-9'."""
    environ = os.environ if environ is None else environ
    entries = {}
    for part in environ.get(TOLERANCE_ENV_VAR, "").split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise CliError(f"{TOLERANCE_ENV_VAR}: expected name=value, got {part.strip()!r}")
        name, _, text = part.partition("=")
        try:
            entries[name.strip()] = float(text)
        except ValueError:
            entries[name.strip()] = text  # _checked_tolerances reports it
    return _checked_tolerances(entries, f"{TOLERANCE_ENV_VAR} entry '{{}}'")


def merged_tolerances(config: RunConfig, environ=None) -> dict:
    """Config tolerances, overridden by the environment; analyze fills in the defaults."""
    return {**config.tolerances, **env_tolerances(environ)}


def initial_states(config: RunConfig, seed_offset: int = 0) -> np.ndarray:
    """Initial state block: explicit values or a seeded uniform draw."""
    if config.initial_values is not None:
        return config.initial_values.copy()
    lo, hi = config.initial_box
    rng = np.random.default_rng(config.initial_seed + seed_offset)
    return rng.uniform(lo, hi, size=(config.topology.n, config.state_dim))


def synthesize_gains(config: RunConfig) -> tuple[GainSet, Optional[float]]:
    """Gains from the config: supplied override, fixed gamma, or regulation.

    Returns the gain set and the regulated gamma (None unless delta mode).
    """
    if config.gains_override is not None:
        gamma = config.gamma if config.gamma is not None else 1.0
        try:
            gains = GainSet(
                mode=config.mode,
                a=config.a,
                b=config.b,
                q=config.q,
                gamma=gamma,
                certificate=config.gains_override["certificate"],
                k_u=config.gains_override.get("k_u"),
                k_w=config.gains_override.get("k_w"),
            )
        except (ValueError, matops.LinearAlgebraError) as exc:
            raise _fail("gains", str(exc))
        return gains, None
    if config.delta is not None:
        gamma, gains = synthesis.regulate_gain(
            config.a,
            config.b,
            config.q,
            synthesis.RegulationRequest(delta=config.delta),
            mode=config.mode,
        )
        return gains, gamma
    if config.mode == LEADERLESS:
        return synthesis.design_leaderless(config.a, config.b, config.q, config.gamma), None
    return synthesis.design_leader_follower(config.a, config.b, config.q, config.gamma), None


def _format(value: float) -> str:
    return format(float(value), ".17g")


def _matrix_lines(name: str, m: np.ndarray) -> list[str]:
    lines = []
    for row in np.atleast_2d(m):
        lines.append(f"{name} | " + " ".join(_format(v) for v in row))
    return lines


def _trace_header(n: int, d: int, edges) -> list[str]:
    """Trace CSV columns: t, agent-major states, adaptive weights, eta_norm, J columns."""
    return (
        ["t"]
        + [f"x{agent}_{comp}" for agent in range(1, n + 1) for comp in range(1, d + 1)]
        + [f"w{i}_{k}" for i, k in edges]
        + ["eta_norm", "J_realized", "J_bound_partial"]
    )


def write_trace_csv(path: str, trace: Trace) -> None:
    """Write the ``_trace_header`` line, then one %.17g row per sample."""
    rows = np.column_stack(
        (trace.times, trace.states, trace.weights, trace.eta_norm, trace.j_realized, trace.j_bound_integral)
    )
    header = ",".join(_trace_header(trace.n, trace.d, trace.adaptive_edges))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        np.savetxt(handle, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def read_trace_csv(path: str, config: RunConfig) -> Trace:
    """Rebuild a Trace from a CSV written by write_trace_csv plus its config."""
    n, d = config.topology.n, config.state_dim
    edges = sim.adaptive_edges(config.topology, config.mode)
    expected = _trace_header(n, d, edges)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header_line = handle.readline()
            while header_line and not header_line.strip():
                header_line = handle.readline()
            header = header_line.strip().split(",")
            start = handle.tell()
            if not any(line.strip() for line in iter(handle.readline, "")):
                raise CliError(f"trace {path}: need a header and at least one sample")
            if len(header) != len(expected):
                raise CliError(
                    f"trace {path}: header has {len(header)} columns, expected {len(expected)} for this config"
                )
            for col, (name, want) in enumerate(zip(header, expected), start=1):
                if name != want:
                    raise CliError(f"trace {path}: header column {col} is {name!r}, expected {want!r} for this config")
            handle.seek(start)
            arr = np.loadtxt(handle, delimiter=",", ndmin=2, comments=None)
    except OSError as exc:
        raise CliError(f"cannot read trace {path}: {exc}")
    except ValueError as exc:  # a cell that is not a number, a short row, or bytes that are not UTF-8
        raise CliError(f"trace {path}: {exc}")
    if arr.shape[1] != len(expected):
        raise CliError(f"trace {path}: rows have {arr.shape[1]} columns, expected {len(expected)} for this config")
    nd, m = n * d, len(edges)
    return Trace(
        mode=config.mode,
        n=n,
        d=d,
        adaptive_edges=edges,
        times=arr[:, 0],
        states=arr[:, 1 : 1 + nd],
        weights=arr[:, 1 + nd : 1 + nd + m],
        eta_norm=arr[:, -3],
        j_realized=arr[:, -2],
        j_bound_integral=arr[:, -1],
    )


def write_plot_script(path: str, csv_path: str, trace: Trace) -> None:
    """Gnuplot script plotting states, adaptive weights, and disagreement."""
    names = _trace_header(trace.n, trace.d, trace.adaptive_edges)
    base = os.path.splitext(os.path.basename(csv_path))[0]

    def plot(prefix: str) -> str:
        return "plot " + ", \\\n     ".join(
            f"'{csv_path}' using 1:{col} with lines title '{name}'"
            for col, name in enumerate(names, start=1)
            if name.startswith(prefix)
        )

    lines = [
        "# consensuskit trace plots",
        "set datafile separator ','",
        "set key outside",
        "set xlabel 't'",
        "set grid",
        "set terminal pngcairo size 1200,800",
        f"set output '{base}_states.png'",
        "set ylabel 'agent states'",
        plot("x"),
        f"set output '{base}_weights.png'",
        "set ylabel 'adaptive weights'",
        plot("w"),
        f"set output '{base}_disagreement.png'",
        "set ylabel 'disagreement norm'",
        f"plot '{csv_path}' using 1:{names.index('eta_norm') + 1} with lines title 'eta'",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _print_gains(gains: GainSet, out, regulated_gamma: Optional[float] = None) -> None:
    check = synthesis.verify_riccati_certificate(
        gains.certificate, gains.a, gains.b, gains.q, gains.gamma, gains.multiplier
    )
    lam_max = float(matops.sym_eig(gains.certificate).eigenvalues[-1])
    print(f"mode = {gains.mode}", file=out)
    if regulated_gamma is not None:
        print(f"regulated = true", file=out)
    print(f"gamma = {_format(gains.gamma)}", file=out)
    for line in _matrix_lines("certificate", gains.certificate):
        print(line, file=out)
    for line in _matrix_lines("k_u", gains.k_u):
        print(line, file=out)
    for line in _matrix_lines("k_w", gains.k_w):
        print(line, file=out)
    print(f"certificate_margin = {_format(check.margin)}", file=out)
    print(f"certificate_ok = {str(check.is_certificate).lower()}", file=out)
    print(f"certificate_max_eigenvalue = {_format(lam_max)}", file=out)


def _echo_config(path: Optional[str], config: RunConfig) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(render_config(config) + "\n")


def cmd_synthesize(args, out=sys.stdout) -> int:
    config = parse_config(args.config)
    merged_tolerances(config)  # a bad CONSENSUSKIT_TOLERANCES fails before any work
    gains, regulated = synthesize_gains(config)
    _echo_config(args.echo_config, config)
    _print_gains(gains, out, regulated)
    return EXIT_OK


def _print_report(report: verify.CostReport, out, label: str = "") -> int:
    """Print the report, each line prefixed with label; exit 5 when the bound fails."""
    text = verify.render_report(report)
    if label:
        text = "\n".join(label + line for line in text.splitlines())
    print(text, file=out)
    return EXIT_OK if report.bound_holds else EXIT_BOUND


def _suffixed(path: Optional[str], index: int, runs: int) -> Optional[str]:
    if path is None or runs == 1:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}-run{index}{ext}"


def _simulate(
    config: RunConfig, tolerances: dict, out, runs: int, csv_path: Optional[str], plot_path: Optional[str]
) -> int:
    """Synthesize and print the gains, then integrate, write and report each
    seeded run; returns the worst run's exit code."""
    gains, regulated = synthesize_gains(config)
    _print_gains(gains, out, regulated)
    codes = []
    for index in range(runs):
        label = f"run{index} :: " if runs > 1 else ""
        x0 = initial_states(config, index)
        if config.initial_seed is not None:
            print(f"{label}initial_seed = {config.initial_seed + index}", file=out)
            lo, hi = config.initial_box
            print(f"{label}initial_box = [{_format(lo)}, {_format(hi)}]", file=out)
        for line in _matrix_lines(f"{label}x0", x0):
            print(line, file=out)
        sim_config = SimConfig(x0=x0, t_final=config.t_final, dt=config.dt, sample_stride=config.sample_stride)
        trace = sim.run(sim_config, gains, config.topology)
        report = verify.analyze(trace, gains, config.topology, tolerances)
        run_csv, run_plot = _suffixed(csv_path, index, runs), _suffixed(plot_path, index, runs)
        if run_csv:
            write_trace_csv(run_csv, trace)
            print(f"{label}trace_csv = {run_csv}", file=out)
        if run_plot:
            write_plot_script(run_plot, run_csv, trace)
            print(f"{label}plot_script = {run_plot}", file=out)
        codes.append(_print_report(report, out, label))
    if runs > 1:
        print(f"runs_passed = {codes.count(EXIT_OK)}/{runs}", file=out)
    return max(codes)


def cmd_simulate(args, out=sys.stdout) -> int:
    config = parse_config(args.config)
    tolerances = merged_tolerances(config)
    if args.runs < 1:
        raise CliError(f"--runs must be >= 1, got {args.runs}")
    if args.runs > 1 and config.initial_seed is None:
        raise CliError("--runs > 1 requires seeded initial states")
    if args.plot_script and not args.out:
        raise CliError("--plot-script requires --out")
    _echo_config(args.echo_config, config)
    return _simulate(config, tolerances, out, args.runs, args.out, args.plot_script)


_DEMO_CONFIGS = {
    "example-1": {
        "mode": LEADERLESS,
        "plant": {
            "d": 2,
            "p": 1,
            "a": [0.0, 1.0, -100.0, 0.0],
            "b": [0.0, 1.0],
            "q": [1.0, 0.0, 0.0, 2.0],
        },
        "gamma": 2.0,
        "topology": {
            "n": 6,
            "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]],
        },
        "initial_states": {"seed": 1, "box": 1.0},
        "dt": 1e-3,
        "t_final": 3.0,
        "sample_stride": 10,
    },
    "example-2": {
        "mode": LEADER_FOLLOWER,
        "plant": {
            "d": 4,
            "p": 1,
            "a": [1.0, 1.0, 0.0, 0.0,
                  -30.0, -12.5, 30.0, 0.0,
                  0.0, 0.5, 0.0, 1.0,
                  16.0, 0.0, -16.0, 0.0],
            "b": [1.0, 19.0, 0.0, 0.0],
            "q": [0.30, 0.30, 0.20, 0.10,
                  0.30, 0.50, 0.10, 0.10,
                  0.20, 0.10, 0.50, 0.15,
                  0.10, 0.10, 0.15, 0.10],
        },
        "gamma": 0.2,
        "topology": {
            "n": 6,
            "leader": 1,
            "edges": [[1, 2], [1, 3], [2, 3], [3, 4], [4, 5], [5, 6]],
        },
        "initial_states": {"seed": 2, "box": 1.0},
        "dt": 1e-3,
        "t_final": 10.0,
        "sample_stride": 10,
    },
}

_DEMO_TOPOLOGY_NOTES = {
    "example-1": "stand-in topology: 6-agent cycle, all initial weights 1 (the reference scenario's graph is pictorial only)",
    "example-2": "stand-in topology: leader 1 linked to followers 2 and 3, follower chain 2-3-4-5-6, all initial weights 1 (the reference scenario's graph is pictorial only)",
}


def demo_config(which: str) -> RunConfig:
    if which not in _DEMO_CONFIGS:
        raise CliError(f"unknown demo {which!r}; expected 'example-1' or 'example-2'")
    return parse_config_text(json.dumps(_DEMO_CONFIGS[which]), source=f"demo:{which}")


def cmd_demo(args, out=sys.stdout) -> int:
    which = args.which
    config = demo_config(which)
    tolerances = merged_tolerances(config)
    gain_report = verify.verify_reference_gains(which)
    print(f"reference_gain_check = {which}", file=out)
    print(f"reference_k_u = " + " ".join(_format(v) for v in gain_report["k_u"]), file=out)
    print(f"reference_k_u_max_deviation = {_format(gain_report['k_u_max_deviation'])}", file=out)
    print(f"reference_k_w_max_deviation = {_format(gain_report['k_w_max_deviation'])}", file=out)
    print(f"reference_gain_check_passed = {str(gain_report['passed']).lower()}", file=out)
    print(f"reference_total_informational = {_format(gain_report['reference_total'])}", file=out)
    if which == "example-2":
        bbt_max = float(matops.sym_eig(config.b @ config.b.T).eigenvalues[-1])
        print(f"strict_gain_regulation_bbt_max_eigenvalue = {_format(bbt_max)}", file=out)
        if bbt_max > 1.0:
            print(
                f"strict_gain_regulation_precondition = violated "
                f"(lambda_max(B B^T) = {_format(bbt_max)} > 1; relaxed rescaling applies)",
                file=out,
            )
    print(f"note = {_DEMO_TOPOLOGY_NOTES[which]}", file=out)
    csv_path = args.out if args.out else f"consensuskit-demo-{which}.csv"
    return _simulate(config, tolerances, out, 1, csv_path, args.plot_script)


def cmd_verify(args, out=sys.stdout) -> int:
    config = parse_config(args.config)
    tolerances = merged_tolerances(config)
    trace = read_trace_csv(args.trace, config)
    gains, _ = synthesize_gains(config)
    return _print_report(verify.analyze(trace, gains, config.topology, tolerances), out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consensuskit",
        description="Gain synthesis, simulation, and certification for adaptive consensus protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="design gains from a config")
    p_syn.add_argument("config")
    p_syn.add_argument("--echo-config", default=None, help="write the canonical config echo to this path")
    p_syn.set_defaults(handler=cmd_synthesize)

    p_sim = sub.add_parser("simulate", help="synthesize, integrate, and verify a run")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default=None, help="trace CSV output path")
    p_sim.add_argument("--plot-script", default=None, help="gnuplot script output path (requires --out)")
    p_sim.add_argument("--runs", type=int, default=1, help="number of independent seeded runs")
    p_sim.add_argument("--echo-config", default=None, help="write the canonical config echo to this path")
    p_sim.set_defaults(handler=cmd_simulate)

    p_demo = sub.add_parser("demo", help="run an embedded example scenario end to end")
    p_demo.add_argument("which", choices=["example-1", "example-2"])
    p_demo.add_argument("--out", default=None, help="trace CSV output path")
    p_demo.add_argument("--plot-script", default=None, help="gnuplot script output path")
    p_demo.set_defaults(handler=cmd_demo)

    p_ver = sub.add_parser("verify", help="re-verify a previously written trace CSV")
    p_ver.add_argument("config")
    p_ver.add_argument("trace")
    p_ver.set_defaults(handler=cmd_verify)
    return parser


# (exception types, exit code, stderr prefix); the first matching row wins, so
# NotStabilizableError, a LinearAlgebraError, comes before the parse-error row.
# Any other exception propagates.
_FAILURES = (
    ((sim.DivergenceError,), EXIT_DIVERGENCE, "divergence: "),
    ((matops.NotStabilizableError,), EXIT_SYNTHESIS, "synthesis infeasible: "),
    ((synthesis.SynthesisError,), EXIT_SYNTHESIS, "synthesis failed: "),
    (
        (CliError, TopologyError, sim.ConfigurationError, verify.VerificationError, matops.LinearAlgebraError, ValueError),
        EXIT_PARSE,
        "",
    ),
)


def main(argv: Optional[Sequence[str]] = None, out=sys.stdout, err=sys.stderr) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args, out=out)
    except tuple(t for types, _, _ in _FAILURES for t in types) as exc:
        code, prefix = next((code, prefix) for types, code, prefix in _FAILURES if isinstance(exc, types))
        print(f"error: {prefix}{exc}", file=err)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
