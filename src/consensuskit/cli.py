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
3 synthesis infeasible, 4 divergence, 5 a verification check failed.
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
_CSV_CHUNK_ROWS = 256  # trace rows formatted per write


class CliError(Exception):
    """A command-line, config or trace-file error (exit code 2, see ``_FAILURES``)."""


@dataclass(eq=False)
class RunConfig:
    """Parsed run configuration.

    ``gamma`` and ``delta`` are mutually exclusive: a fixed translation
    factor versus a gain-factor target for regulation.  ``initial_seed`` and
    ``initial_box`` describe seeded uniform draws; ``initial_values`` is an
    explicit state array.  Exactly one initial-state form is set.
    ``gains_override`` maps certificate, k_u and k_w to matrices (or None) and needs ``gamma``.
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


_REQUIRED = object()


class _Section:
    """One JSON object of a config.  ``get`` names a key once and qualifies it
    with the section's name in errors; ``close`` rejects every key no ``get``
    asked for, so a misspelt field fails instead of leaving its default."""

    def __init__(self, value, name: str):
        if not isinstance(value, dict):
            raise _fail(name, "expected an object")
        self.value, self.prefix, self.read = value, f"{name}." if name else "", set()

    def get(self, key: str, convert, *args, default=_REQUIRED):
        """``convert(value, qualified_name, *args)``, or ``default`` when the key is absent."""
        self.read.add(key)
        if key not in self.value:
            if default is _REQUIRED:
                raise _fail(self.prefix + key, "missing")
            return default
        return convert(self.value[key], self.prefix + key, *args)

    def close(self) -> None:
        unknown = sorted(set(self.value) - self.read)
        if unknown:
            raise _fail(self.prefix + unknown[0], "unknown field")


def _as_int(value, qualified: str, minimum: Optional[int] = None) -> int:
    # float.is_integer is False for NaN and +-Infinity, which JSON also admits
    if isinstance(value, bool) or not (isinstance(value, int) or (isinstance(value, float) and value.is_integer())):
        raise _fail(qualified, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _fail(qualified, f"must be >= {minimum}, got {int(value)}")
    return int(value)


def _finite(value) -> bool:
    """False for NaN, +-Infinity and integers beyond the float range."""
    return abs(value) <= sys.float_info.max


def _as_float(value, qualified: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(qualified, f"expected a number, got {value!r}")
    if not _finite(value):
        raise _fail(qualified, f"expected a finite number, got {value!r}")
    return float(value)


def _as_positive(value, qualified: str) -> float:
    number = _as_float(value, qualified)
    if not number > 0.0:
        raise _fail(qualified, f"must be positive, got {number}")
    return number


def _as_mode(value, qualified: str) -> str:
    if value not in (LEADERLESS, LEADER_FOLLOWER):
        raise _fail(qualified, f"expected '{LEADERLESS}' or '{LEADER_FOLLOWER}', got {value!r}")
    return value


def _as_matrix(value, qualified: str, rows: int, cols: int) -> np.ndarray:
    if not isinstance(value, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise _fail(qualified, "expected a flat list of numbers (row-major)")
    if len(value) != rows * cols:
        raise _fail(qualified, f"expected {rows * cols} numbers for a {rows}x{cols} matrix, got {len(value)}")
    for idx, v in enumerate(value):
        if not _finite(v):
            raise _fail(f"{qualified}[{idx}]", f"expected a finite number, got {v!r}")
    return np.array(value, dtype=float).reshape(rows, cols)


def _as_edge_list(value, qualified: str, weighted: bool) -> list[tuple]:
    """[i, k] pairs as (i, k), or [i, k, weight] triples as (i, k, weight) when weighted."""
    kind, shape = ("triple", "[i, k, weight]") if weighted else ("pair", "[i, k]")
    if not isinstance(value, list):
        raise _fail(qualified, f"expected a list of {shape} {kind}s")
    rows = []
    for idx, item in enumerate(value):
        where = f"{qualified}[{idx}]"
        if not isinstance(item, list) or len(item) != (3 if weighted else 2):
            raise _fail(where, f"expected a {kind} {shape}")
        row = (_as_int(item[0], f"{where}[0]"), _as_int(item[1], f"{where}[1]"))
        rows.append(row + (_as_float(item[2], f"{where}[2]"),) if weighted else row)
    return rows


def _as_topology(value, qualified: str) -> Topology:
    section = _Section(value, qualified)
    n = section.get("n", _as_int)
    edges = section.get("edges", _as_edge_list, False)
    leader = section.get("leader", _as_int, default=None)
    weighted = section.get("weights", _as_edge_list, True, default=[])
    section.close()
    weights = {graph.canonical_edge(i, k): 1.0 for i, k in edges}
    given = set()
    for idx, (i, k, weight) in enumerate(weighted):
        pair = graph.canonical_edge(i, k)
        if pair not in weights:
            raise _fail(f"{qualified}.weights[{idx}]", f"edge {pair} is not in the edge list")
        if pair in given:
            raise _fail(f"{qualified}.weights[{idx}]", f"edge {pair} already has a weight")
        given.add(pair)
        weights[pair] = weight
    try:
        return Topology(n=n, edges=tuple(edges), weights=weights, leader=leader)
    except TopologyError as exc:
        raise _fail(qualified, str(exc))


def _as_box(value, qualified: str) -> tuple[float, float]:
    """A half-width h as (-h, h), or a [low, high] pair."""
    if isinstance(value, list) and len(value) == 2:
        lo, hi = _as_float(value[0], f"{qualified}[0]"), _as_float(value[1], f"{qualified}[1]")
        if not (lo < hi and _finite(hi - lo)):
            raise _fail(qualified, f"need low < high a finite distance apart, got [{lo}, {hi}]")
        return lo, hi
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        half = _as_positive(value, qualified)
        return -half, half
    raise _fail(qualified, "expected a half-width number or a [low, high] pair")


def _tolerances(entries: dict, where: str) -> dict:
    """verify.checked_tolerances(entries, where), raising its error as a CliError."""
    try:
        return verify.checked_tolerances(entries, where)
    except verify.VerificationError as exc:
        raise CliError(str(exc)) from None


def _as_tolerances(value, qualified: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(qualified, "expected an object of name -> value")
    return _tolerances(value, f"config field '{qualified}.{{}}'")


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse a JSON config document into a RunConfig."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{source}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise CliError(f"{source}: top level must be an object")
    top = _Section(raw, "")
    mode = top.get("mode", _as_mode)

    plant = top.get("plant", _Section)
    d = plant.get("d", _as_int, 1)
    p = plant.get("p", _as_int, 1, default=1)
    a = plant.get("a", _as_matrix, d, d)
    b = plant.get("b", _as_matrix, d, p)
    q = plant.get("q", _as_matrix, d, d)
    plant.close()

    gamma = top.get("gamma", _as_positive, default=None)
    delta = top.get("delta", _as_positive, default=None)
    if gamma is None and delta is None:
        raise _fail("gamma", "either gamma or delta is required")
    if gamma is not None and delta is not None:
        raise _fail("gamma", "gamma and delta are mutually exclusive")

    topology = top.get("topology", _as_topology)
    for check, field_name in ((sim.adaptive_edges, "topology.leader"), (sim.check_connected, "topology")):
        try:
            check(topology, mode)
        except sim.ConfigurationError as exc:
            raise _fail(field_name, str(exc))

    init = top.get("initial_states", _Section)
    initial_values = init.get("values", _as_matrix, topology.n, d, default=None)
    initial_seed = initial_box = None
    if initial_values is None:
        initial_seed = init.get("seed", _as_int, 0)
        initial_box = init.get("box", _as_box)
    elif "seed" in init.value or "box" in init.value:
        raise _fail("initial_states.values", "cannot be combined with seed or box")
    init.close()

    dt = top.get("dt", _as_positive, default=1e-3)
    t_final = top.get("t_final", _as_float, default=3.0)
    try:
        sim.horizon_steps(t_final, dt)
    except sim.ConfigurationError as exc:
        raise _fail("t_final", str(exc))
    stride = top.get("sample_stride", _as_int, 1, default=1)
    tolerances = top.get("tolerances", _as_tolerances, default={})

    gains_override = None
    gains = top.get("gains", _Section, default=None)
    if gains is not None:
        if delta is not None:
            raise _fail("delta", "a gains override takes gamma, not delta")
        gains_override = {
            "certificate": gains.get("certificate", _as_matrix, d, d),
            "k_u": gains.get("k_u", _as_matrix, p, d, default=None),
            "k_w": gains.get("k_w", _as_matrix, d, d, default=None),
        }
        gains.close()
    top.close()

    return RunConfig(
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
        doc["gains"] = {key: list(m.ravel()) for key, m in config.gains_override.items() if m is not None}
    return json.dumps(doc, indent=2, sort_keys=True)


def env_tolerances() -> dict:
    """Tolerance overrides from the environment, e.g. 'consensus=1e-3,bound_rel=1e-9'."""
    entries = {}
    for part in os.environ.get(TOLERANCE_ENV_VAR, "").split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise CliError(f"{TOLERANCE_ENV_VAR}: expected name=value, got {part.strip()!r}")
        name, _, text = part.partition("=")
        try:
            entries[name.strip()] = float(text)
        except ValueError:
            entries[name.strip()] = text  # checked_tolerances reports it
    return _tolerances(entries, f"{TOLERANCE_ENV_VAR} entry '{{}}'")


def merged_tolerances(config: RunConfig) -> dict:
    """Config tolerances, overridden by the environment; analyze fills in the defaults."""
    return {**config.tolerances, **env_tolerances()}


def initial_states(config: RunConfig, seed_offset: int = 0) -> np.ndarray:
    """Initial state block: explicit values or a seeded uniform draw."""
    if config.initial_values is not None:
        return config.initial_values.copy()
    lo, hi = config.initial_box
    rng = np.random.default_rng(config.initial_seed + seed_offset)
    return rng.uniform(lo, hi, size=(config.topology.n, config.state_dim))


def synthesize_gains(config: RunConfig) -> GainSet:
    """Gains from the config: supplied override, fixed gamma, or regulation by delta."""
    if config.gains_override is not None:
        certificate = config.gains_override["certificate"]
        try:
            matops._require_symmetric(certificate, "certificate")
        except matops.SymmetryError as exc:
            raise _fail("gains.certificate", str(exc))
        try:
            return GainSet(
                mode=config.mode,
                a=config.a,
                b=config.b,
                q=config.q,
                gamma=config.gamma,
                certificate=certificate,
                k_u=config.gains_override.get("k_u"),
                k_w=config.gains_override.get("k_w"),
            )
        except (ValueError, matops.LinearAlgebraError) as exc:
            raise _fail("gains", str(exc))
    if config.delta is not None:
        request = synthesis.RegulationRequest(delta=config.delta)
        return synthesis.regulate_gain(config.a, config.b, config.q, request, mode=config.mode)[1]
    if config.mode == LEADERLESS:
        return synthesis.design_leaderless(config.a, config.b, config.q, config.gamma)
    return synthesis.design_leader_follower(config.a, config.b, config.q, config.gamma)


def _trace_header(n: int, d: int, edges) -> list[str]:
    """Trace CSV columns: t, agent-major states, adaptive weights, eta_norm, J columns."""
    return (
        ["t"]
        + [f"x{agent}_{comp}" for agent in range(1, n + 1) for comp in range(1, d + 1)]
        + [f"w{i}_{k}" for i, k in edges]
        + ["eta_norm", "J_realized", "J_bound_partial"]
    )


def write_trace_csv(path: str, trace: Trace) -> None:
    """Write the ``_trace_header`` line, then one %.17g row per sample.

    The bytes are those of ``np.savetxt(fmt="%.17g")``.  One ``%`` formats
    each chunk of _CSV_CHUNK_ROWS rows as Python floats, which it formats
    faster than NumPy scalars; writing by chunks never holds the text of a
    long trace whole.
    """
    rows = np.column_stack(
        (trace.times, trace.states, trace.weights, trace.eta_norm, trace.j_realized, trace.j_bound_integral)
    )
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(_trace_header(trace.n, trace.d, trace.adaptive_edges)) + "\n")
        for start in range(0, len(rows), _CSV_CHUNK_ROWS):
            chunk = rows[start : start + _CSV_CHUNK_ROWS]
            handle.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


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
    if not np.isfinite(arr).all():
        row, col = np.argwhere(~np.isfinite(arr))[0]
        raise CliError(f"trace {path}: sample {row + 1} has {expected[col]} = {arr[row, col]}, expected a finite value")
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


def _print_gains(config: RunConfig, gains: GainSet, tolerances: dict, out) -> None:
    """Print the gains and their certificate check at the merged ``certificate`` tolerance."""
    tol = {**verify.DEFAULT_TOLERANCES, **tolerances}["certificate"]
    check = synthesis.verify_riccati_certificate(
        gains.certificate, gains.a, gains.b, gains.q, gains.gamma, gains.multiplier, tol=tol
    )
    pairs = [("mode", gains.mode)]
    if config.delta is not None:
        pairs.append(("regulated", True))
    pairs += [
        ("gamma", gains.gamma),
        ("certificate", gains.certificate),
        ("k_u", gains.k_u),
        ("k_w", gains.k_w),
        ("certificate_margin", check.margin),
        ("certificate_ok", check.is_certificate),
        ("certificate_max_eigenvalue", matops.sym_eig(gains.certificate)[-1]),
    ]
    print(verify.render_pairs(pairs), file=out)


def _echo_config(path: Optional[str], config: RunConfig) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(render_config(config) + "\n")


def cmd_synthesize(args, out=sys.stdout) -> int:
    config = parse_config(args.config)
    tolerances = merged_tolerances(config)  # a bad CONSENSUSKIT_TOLERANCES fails before any work
    gains = synthesize_gains(config)
    _echo_config(args.echo_config, config)
    _print_gains(config, gains, tolerances, out)
    return EXIT_OK


def _print_report(report: verify.CostReport, out, label: str = "") -> int:
    """Print the report; exit 5 when any of its four verdicts fails (warnings do not count)."""
    print(verify.render_report(report, label), file=out)
    checks = (report.bound_holds, report.weights_monotone, report.certificate_ok, report.consensus_achieved)
    return EXIT_OK if all(checks) else EXIT_BOUND


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
    gains = synthesize_gains(config)
    _print_gains(config, gains, tolerances, out)
    codes = []
    for index in range(runs):
        label = f"run{index}" if runs > 1 else ""
        x0 = initial_states(config, index)
        pairs = []
        if config.initial_seed is not None:
            lo, hi = map(verify.render_value, config.initial_box)
            pairs = [("initial_seed", config.initial_seed + index), ("initial_box", f"[{lo}, {hi}]")]
        print(verify.render_pairs(pairs + [("x0", x0)], label), file=out)
        sim_config = SimConfig(x0=x0, t_final=config.t_final, dt=config.dt, sample_stride=config.sample_stride)
        trace = sim.run(sim_config, gains, config.topology)
        report = verify.analyze(trace, gains, config.topology, tolerances)
        run_csv, run_plot = _suffixed(csv_path, index, runs), _suffixed(plot_path, index, runs)
        if run_csv:
            write_trace_csv(run_csv, trace)
            print(verify.render_pairs([("trace_csv", run_csv)], label), file=out)
        if run_plot:
            write_plot_script(run_plot, run_csv, trace)
            print(verify.render_pairs([("plot_script", run_plot)], label), file=out)
        codes.append(_print_report(report, out, label))
    if runs > 1:
        print(verify.render_pairs([("runs_passed", f"{codes.count(EXIT_OK)}/{runs}")]), file=out)
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
    pairs = [
        ("reference_gain_check", which),
        ("reference_k_u", gain_report["k_u"]),
        ("reference_k_u_max_deviation", gain_report["k_u_max_deviation"]),
        ("reference_k_w_max_deviation", gain_report["k_w_max_deviation"]),
        ("reference_gain_check_passed", gain_report["passed"]),
        ("reference_total_informational", gain_report["reference_total"]),
    ]
    if which == "example-2":
        bbt_max = matops.sym_eig(config.b @ config.b.T)[-1]
        pairs.append(("strict_gain_regulation_bbt_max_eigenvalue", bbt_max))
        if bbt_max > 1.0:
            text = f"violated (lambda_max(B B^T) = {verify.render_value(bbt_max)} > 1; relaxed rescaling applies)"
            pairs.append(("strict_gain_regulation_precondition", text))
    pairs.append(("note", _DEMO_TOPOLOGY_NOTES[which]))
    print(verify.render_pairs(pairs), file=out)
    csv_path = args.out if args.out else f"consensuskit-demo-{which}.csv"
    return _simulate(config, tolerances, out, 1, csv_path, args.plot_script)


def cmd_verify(args, out=sys.stdout) -> int:
    config = parse_config(args.config)
    tolerances = merged_tolerances(config)
    trace = read_trace_csv(args.trace, config)
    gains = synthesize_gains(config)
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
