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
explicit dimensions.  Each ``cmd_*`` yields (label, section) pairs, a section
being (key, value) pairs or a ``verify.CostReport``; ``main``, the one stdout
writer, prints each as it arrives.  Exit codes: 0 success, 2 parse, config or
file error, 3 synthesis infeasible, 4 divergence, 5 a report has not passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterator, Optional, Sequence

import numpy as np

from . import graph, matops, sim, synthesis, verify
from ._record import Record
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


class RunConfig(Record, eq=False):
    """Parsed run configuration.

    ``gamma`` and ``delta`` are mutually exclusive: a fixed translation
    factor versus a gain-factor target for regulation.  ``initial_seed`` and
    ``initial_box`` describe seeded uniform draws; ``initial_values`` is an
    explicit state array.  Exactly one initial-state form is set.
    ``gains_override`` holds GainSet's matrix arguments (a None is derived) and needs ``gamma``.
    ``echo`` holds every field the parser read, as it converted it; ``render_config`` writes it.
    """

    mode: str
    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    topology: Topology
    gamma: Optional[float]
    delta: Optional[float]
    initial_values: Optional[np.ndarray]
    initial_seed: Optional[int]
    initial_box: Optional[tuple[float, float]]
    dt: float
    t_final: float
    sample_stride: int
    tolerances: dict
    gains_override: Optional[dict]
    echo: dict

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]


def _fail(field_name: str, message: str) -> CliError:
    return CliError(f"config field '{field_name}': {message}")


_REQUIRED = object()


class _Repeats(dict):
    """A JSON object that gave the key ``repeated`` twice; a plain dict keeps only its last value."""

    def __init__(self, pairs: list):
        super().__init__(pairs)
        keys = [key for key, _ in pairs]
        self.repeated = next(key for key in keys if keys.count(key) > 1)


def _json_object(pairs: list) -> dict:
    """json.loads' object_pairs_hook: a dict, or a _Repeats when a key was given twice."""
    obj = dict(pairs)
    return obj if len(obj) == len(pairs) else _Repeats(pairs)


class _Section:
    """One JSON object of a config.  ``get`` names a key once and qualifies it
    with the section's name in errors; ``close`` rejects every key no ``get``
    asked for, so a misspelt field fails instead of leaving its default.
    ``echo`` maps each key ``get`` returned a value for, defaults included, to
    that value (a nested section to its own ``echo``)."""

    def __init__(self, value, name: str, expected: str = "expected an object"):
        self.value, self.prefix, self.read, self.echo = value, f"{name}." if name else "", set(), {}
        if not isinstance(value, dict):
            raise _fail(name, expected)
        if isinstance(value, _Repeats):
            raise _fail(self.prefix + value.repeated, "given twice")

    def get(self, key: str, convert, *args, default=_REQUIRED):
        """``convert(value, qualified_name, *args)``, or ``default`` when the key is absent."""
        self.read.add(key)
        if key in self.value:
            try:
                result = convert(self.value[key], self.prefix + key, *args)
            except (TopologyError, matops.LinearAlgebraError) as exc:  # a library rule's fault, named by its field
                raise _fail(self.prefix + key, str(exc)) from None
        elif default is _REQUIRED:
            raise _fail(self.prefix + key, "missing")
        else:
            result = default
        if result is not None:
            self.echo[key] = result.echo if isinstance(result, _Section) else result
        return result

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


def _as_symmetric(value, qualified: str, d: int) -> np.ndarray:
    return matops._symmetric(_as_matrix(value, qualified, d, d), qualified.rpartition(".")[2], d)


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
    return Topology(n=n, edges=tuple(edges), weights=weights, leader=leader)


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
    entries = _Section(value, qualified, "expected an object of name -> value").value
    return _tolerances(entries, f"config field '{qualified}.{{}}'")


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse a JSON config document into a RunConfig."""
    try:
        raw = json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise CliError(f"{source}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise CliError(f"{source}: JSON nested too deeply") from None
    if not isinstance(raw, dict):
        raise CliError(f"{source}: top level must be an object")
    top = _Section(raw, "")
    mode = top.get("mode", _as_mode)

    plant = top.get("plant", _Section)
    d = plant.get("d", _as_int, 1)
    p = plant.get("p", _as_int, 1, default=1)
    a = plant.get("a", _as_matrix, d, d)
    b = plant.get("b", _as_matrix, d, p)
    q = plant.get("q", _as_symmetric, d)
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
    drawn = _REQUIRED if initial_values is None else None  # a draw needs both seed and box
    initial_seed = init.get("seed", _as_int, 0, default=drawn)
    initial_box = init.get("box", _as_box, default=drawn)
    if initial_values is not None and (initial_seed is not None or initial_box is not None):
        raise _fail("initial_states.values", "cannot be combined with seed or box")
    init.close()

    dt = top.get("dt", _as_positive, default=1e-3)
    t_final = top.get("t_final", _as_float, default=3.0)
    try:
        sim.horizon_steps(t_final, dt)
    except sim.ConfigurationError as exc:
        raise _fail("t_final", str(exc))
    stride = top.get("sample_stride", _as_int, 1, default=1)
    tolerances = top.get("tolerances", _as_tolerances, default=None)

    gains_override = None
    gains = top.get("gains", _Section, default=None)
    if gains is not None:
        if delta is not None:
            raise _fail("delta", "a gains override takes gamma, not delta")
        gains_override = {
            "certificate": gains.get("certificate", _as_symmetric, d),
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
        tolerances=tolerances or {},
        gains_override=gains_override,
        echo=top.echo,
    )


def parse_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:  # the one read error whose text names no file
        raise CliError(f"{path}: {exc}")
    return parse_config_text(text, source=path)


def _as_json(value):
    """json.dumps' ``default`` for the echo: a matrix row-major, a topology with every edge's weight."""
    if isinstance(value, np.ndarray):
        return value.ravel().tolist()
    edges = value.edges
    doc = {"n": value.n, "edges": [list(e) for e in edges], "weights": [[*e, value.weights[e]] for e in edges]}
    return doc if value.leader is None else dict(doc, leader=value.leader)


def render_config(config: RunConfig) -> str:
    """Canonical JSON echo of a RunConfig; re-parsing gives an equal config."""
    return json.dumps(config.echo, indent=2, sort_keys=True, default=_as_json)


def env_tolerances() -> dict:
    """Tolerance overrides from the environment, e.g. 'consensus=1e-3,bound_rel=1e-9'."""
    entries = {}
    for part in os.environ.get(TOLERANCE_ENV_VAR, "").split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise CliError(f"{TOLERANCE_ENV_VAR}: expected name=value, got {part.strip()!r}")
        name, _, text = part.partition("=")
        name = name.strip()
        if name in entries:
            raise CliError(f"{TOLERANCE_ENV_VAR} entry '{name}': given twice")
        try:
            entries[name] = float(text)
        except ValueError:
            entries[name] = text  # checked_tolerances reports it
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
        return GainSet(config.mode, config.a, config.b, config.q, config.gamma, **config.gains_override)
    if config.delta is not None:
        return synthesis.regulate_gain(config.a, config.b, config.q, config.delta, mode=config.mode)
    if config.mode == LEADERLESS:
        return synthesis.design_leaderless(config.a, config.b, config.q, config.gamma)
    return synthesis.design_leader_follower(config.a, config.b, config.q, config.gamma)


def _trace_header(n: int, d: int, edges) -> list[str]:
    """Trace CSV columns: t, agent-major states, adaptive weights, eta_norm (of the states), J columns."""
    return (
        ["t"]
        + [f"x{agent}_{comp}" for agent in range(1, n + 1) for comp in range(1, d + 1)]
        + [f"w{i}_{k}" for i, k in edges]
        + ["eta_norm", "J_realized", "J_bound_partial"]
    )


def write_trace_csv(path: str, trace: Trace) -> None:
    """Write the ``_trace_header`` line, then one %.17g row per sample.

    The bytes are those of ``np.savetxt(fmt="%.17g")``.  ``_g17``, imported
    on the first call so that commands writing no trace never load it, forms
    each cell's |x| * 10**(16 - e) in double-double arithmetic to within
    about 1e-14, so rounding it gives the correctly rounded 17 digits
    whenever its fraction lies farther than 1e-6 from 1/2, and prints a zero
    as 1.0 with its digit cleared.  Every other cell (inf, nan, |x| outside
    [1e-280, 1e280], near and exact ties) goes through Python's
    ``'%.17g' %``.  The rows are formatted and written a block at a time, so
    the text of a long trace is never held whole.
    """
    from . import _g17

    eta = sim.disagreement_norms(trace.states.reshape(-1, trace.n, trace.d), trace.mode)
    parts = (trace.times[:, None], trace.states, trace.weights, eta[:, None])
    parts += (trace.j_realized[:, None], trace.j_bound_integral[:, None])
    with open(path, "wb") as handle:
        handle.write((",".join(_trace_header(trace.n, trace.d, trace.adaptive_edges)) + "\n").encode())
        for text in _g17.blocks(parts):
            handle.write(text)


def _unreadable_sample(path: str, expected: list[str]) -> Optional[str]:
    """The first sample after the header that loadtxt cannot read, by number and column name."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    start = next(i for i, line in enumerate(lines) if line.strip()) + 1
    for sample, line in enumerate(filter(None, lines[start:]), start=1):
        cells = line.split(",")
        if len(cells) != len(expected):
            return f"sample {sample} has {len(cells)} columns, expected {len(expected)}"
        try:  # loadtxt's own number rule, which unlike float's rejects '1_0' and non-ASCII digits
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            for name, cell in zip(expected, cells):
                try:  # "0," keeps a blank cell from reading as no data, on which loadtxt warns
                    np.loadtxt(["0," + cell], delimiter=",", comments=None)
                except ValueError:
                    return f"sample {sample} has {name} = {cell.strip()!r}, expected a number"
    return None


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
    except UnicodeDecodeError as exc:
        raise CliError(f"trace {path}: {exc}")
    except ValueError as exc:  # a cell that is not a number or a row of another width
        raise CliError(f"trace {path}: {_unreadable_sample(path, expected) or exc}")
    if arr.shape[1] != len(expected):
        raise CliError(f"trace {path}: rows have {arr.shape[1]} columns, expected {len(expected)} for this config")
    if not np.isfinite(arr).all():
        row, col = np.argwhere(~np.isfinite(arr))[0]
        raise CliError(f"trace {path}: sample {row + 1} has {expected[col]} = {arr[row, col]}, expected a finite value")
    nsteps, stride = sim.horizon_steps(config.t_final, config.dt), config.sample_stride
    count = -(-nsteps // stride) + 1  # the length of sim.sample_steps, which a long horizon makes too large to build
    if len(arr) != count:
        raise CliError(f"trace {path}: has {len(arr)} samples, expected {count} for this config")
    times = sim.sample_steps(nsteps, stride) * config.dt  # the bits run writes, which %.17g keeps
    if not np.array_equal(arr[:, 0], times):
        k = int(np.flatnonzero(arr[:, 0] != times)[0])
        raise CliError(f"trace {path}: sample {k + 1} has t = {arr[k, 0]}, expected {times[k]}")
    nd, m = n * d, len(edges)
    return Trace(
        mode=config.mode,
        n=n,
        d=d,
        adaptive_edges=edges,
        times=arr[:, 0],
        states=arr[:, 1 : 1 + nd],
        weights=arr[:, 1 + nd : 1 + nd + m],
        j_realized=arr[:, -2],
        j_bound_integral=arr[:, -1],
    )


def write_plot_script(path: str, csv_path: str, trace: Trace) -> None:
    """Gnuplot script plotting states, adaptive weights, and disagreement."""
    names = _trace_header(trace.n, trace.d, trace.adaptive_edges)
    # gnuplot's single-quoted strings escape a quote by doubling it
    csv_path = csv_path.replace("'", "''")
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


def _gain_pairs(config: RunConfig, gains: GainSet, tolerances: dict) -> list:
    """The gains and their certificate check at the merged ``certificate`` tolerance."""
    tol = {**verify.DEFAULT_TOLERANCES, **tolerances}["certificate"]
    regulated = [("regulated", True)] if config.delta is not None else []
    return [("mode", gains.mode)] + regulated + [
        ("gamma", gains.gamma),
        ("certificate", gains.certificate),
        ("k_u", gains.k_u),
        ("k_w", gains.k_w),
        ("certificate_margin", gains.certificate_margin),
        ("certificate_ok", gains.certificate_margin <= tol),
        ("certificate_max_eigenvalue", matops.sym_eig(gains.certificate)[-1]),
    ]


def _echo_config(path: Optional[str], config: RunConfig) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(render_config(config) + "\n")


def cmd_synthesize(args) -> Iterator[tuple]:
    config = parse_config(args.config)
    tolerances = merged_tolerances(config)  # a bad CONSENSUSKIT_TOLERANCES fails before any work
    _check_outputs(args.config, 1, args.echo_config, None, None)
    _echo_config(args.echo_config, config)
    yield "", _gain_pairs(config, synthesize_gains(config), tolerances)


def _suffixed(path: Optional[str], index: int, runs: int) -> Optional[str]:
    if path is None or runs == 1:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}-run{index}{ext}"


def _check_outputs(
    config: Optional[str], runs: int, echo: Optional[str], csv_path: Optional[str], plot_path: Optional[str]
) -> None:
    """Raise CliError when an output flag names the config being read, or two
    name one file: the later write would replace the earlier one.  A path
    that exists is its (device, inode), so a hard link is the file it links;
    any other path is its realpath."""
    outputs = [("config", config), ("--echo-config", echo)] + [
        (flag, _suffixed(path, index, runs))
        for index in range(runs)
        for flag, path in (("--out", csv_path), ("--plot-script", plot_path))
    ]
    seen = {}
    for flag, path in outputs:
        if path:
            try:
                status = os.stat(path)
                key = (status.st_dev, status.st_ino)
            except OSError:
                key = os.path.realpath(path)
            if seen.setdefault(key, flag) != flag:
                raise CliError(f"{seen[key]} and {flag} name the same file {path!r}")


def _simulate(
    config: RunConfig, tolerances: dict, runs: int, csv_path: Optional[str], plot_path: Optional[str]
) -> Iterator[tuple]:
    """Synthesize and yield the gains, then integrate, write and yield the
    sections of each seeded run, and with several runs how many passed."""
    gains = synthesize_gains(config)
    yield "", _gain_pairs(config, gains, tolerances)
    passed = 0
    for index in range(runs):
        label = f"run{index}" if runs > 1 else ""
        x0 = initial_states(config, index)
        pairs = []
        if config.initial_seed is not None:
            lo, hi = map(verify.render_value, config.initial_box)
            pairs = [("initial_seed", config.initial_seed + index), ("initial_box", f"[{lo}, {hi}]")]
        yield label, pairs + [("x0", x0)]
        sim_config = SimConfig(x0=x0, t_final=config.t_final, dt=config.dt, sample_stride=config.sample_stride)
        trace = sim.run(sim_config, gains, config.topology)
        report = verify.analyze(trace, gains, config.topology, tolerances)
        run_csv, run_plot = _suffixed(csv_path, index, runs), _suffixed(plot_path, index, runs)
        if run_csv:
            write_trace_csv(run_csv, trace)
            yield label, [("trace_csv", run_csv)]
        if run_plot:
            write_plot_script(run_plot, run_csv, trace)
            yield label, [("plot_script", run_plot)]
        yield label, report
        passed += report.passed
    if runs > 1:
        yield "", [("runs_passed", f"{passed}/{runs}")]


def cmd_simulate(args) -> Iterator[tuple]:
    config = parse_config(args.config)
    tolerances = merged_tolerances(config)
    if args.runs < 1:
        raise CliError(f"--runs must be >= 1, got {args.runs}")
    if args.runs > 1 and config.initial_seed is None:
        raise CliError("--runs > 1 requires seeded initial states")
    if args.plot_script and not args.out:
        raise CliError("--plot-script requires --out")
    _check_outputs(args.config, args.runs, args.echo_config, args.out, args.plot_script)
    _echo_config(args.echo_config, config)
    yield from _simulate(config, tolerances, args.runs, args.out, args.plot_script)


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
        raise CliError(f"unknown demo {which!r}; expected {' or '.join(map(repr, _DEMO_CONFIGS))}")
    return parse_config_text(json.dumps(_DEMO_CONFIGS[which]), source=f"demo:{which}")


def cmd_demo(args) -> Iterator[tuple]:
    which = args.which
    csv_path = args.out if args.out else f"consensuskit-demo-{which}.csv"
    _check_outputs(None, 1, None, csv_path, args.plot_script)
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
    bbt_max, bbt_ok = synthesis._input_scaling(config.b)
    if not bbt_ok:
        text = f"violated (lambda_max(B B^T) = {verify.render_value(bbt_max)} > 1; relaxed rescaling applies)"
        pairs.append(("strict_gain_regulation_bbt_max_eigenvalue", bbt_max))
        pairs.append(("strict_gain_regulation_precondition", text))
    yield "", pairs + [("note", _DEMO_TOPOLOGY_NOTES[which])]
    yield from _simulate(config, tolerances, 1, csv_path, args.plot_script)


def cmd_verify(args) -> Iterator[tuple]:
    config = parse_config(args.config)
    tolerances = merged_tolerances(config)
    trace = read_trace_csv(args.trace, config)
    gains = synthesize_gains(config)
    yield "", verify.analyze(trace, gains, config.topology, tolerances)


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
    p_demo.add_argument("which", choices=list(_DEMO_CONFIGS))
    p_demo.add_argument("--out", default=None, help="trace CSV output path")
    p_demo.add_argument("--plot-script", default=None, help="gnuplot script output path")
    p_demo.set_defaults(handler=cmd_demo)

    p_ver = sub.add_parser("verify", help="re-verify a previously written trace CSV")
    p_ver.add_argument("config")
    p_ver.add_argument("trace")
    p_ver.set_defaults(handler=cmd_verify)
    return parser


# (exception types, exit code, stderr prefix).  The parser names the field of
# every input fault in a CliError, and an OSError's own text names its file.
# Any other exception is a program fault and propagates.
_FAILURES = (
    ((sim.DivergenceError,), EXIT_DIVERGENCE, "divergence: "),
    ((matops.NotStabilizableError,), EXIT_SYNTHESIS, "synthesis infeasible: "),
    ((synthesis.SynthesisError,), EXIT_SYNTHESIS, "synthesis failed: "),
    ((CliError, OSError), EXIT_PARSE, ""),
)


def main(argv: Optional[Sequence[str]] = None, out=sys.stdout, err=sys.stderr) -> int:
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    failed = False
    try:
        for label, section in args.handler(args):
            is_report = isinstance(section, verify.CostReport)
            failed = failed or (is_report and not section.passed)
            render = verify.render_report if is_report else verify.render_pairs
            print(render(section, label), file=out)
        return EXIT_BOUND if failed else EXIT_OK
    except tuple(t for types, _, _ in _FAILURES for t in types) as exc:
        code, prefix = next((code, prefix) for types, code, prefix in _FAILURES if isinstance(exc, types))
        print(f"error: {prefix}{exc}", file=err)
        return code


def entry() -> None:
    import signal  # here, its one user, so that importing the CLI does not load it
    if hasattr(signal, "SIGPIPE"):
        # a reader that stops early (``| head``) ends the process by SIGPIPE, with nothing on stderr
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
