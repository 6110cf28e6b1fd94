"""consensuskit benchmark: one closed-loop client per workload.

Usage (from the repository root):

    python3 bench/run.py --workload ensemble --seed 0 --seconds 50 --trace 0

``--trace 0`` sets the program up ``SETUP_REPEATS`` times (fresh import of
``src/consensuskit`` each time), then runs operations back to back, each one
starting after the previous one ends, until ``--seconds`` have passed, sets
up ``SETUP_REPEATS`` more times, and prints the end-to-end metrics.  A fixed
calibration pass runs before and after every timed segment (a set-up, or one
phase of an operation); each segment's wall time is scaled by how much slower
or faster than ``REFERENCE_PASS_S`` the passes on either side of it ran, so
the end-to-end times read in seconds at one reference host speed.  The
unscaled wall-clock figures are printed beside them.
``--trace 1`` runs a fixed list of operations untraced, then again with every
layer's public functions wrapped, checks that both passes gave bit-identical
outputs, and prints the per-layer metrics.
Every operation's outputs are checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread keeps timings steady on a shared machine; set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CONSENSUSKIT_TOLERANCES", None)

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracing import PROBE, Tracer, layer_metrics
from workloads import WORKLOADS, check_recorded, step_probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("graph", "matops", "synthesis", "sim", "verify", "cli")
SETUP_REPEATS = 10  # before the timed loop, and again after it
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
MAX_REPORTED_ERRORS = 5
CALIBRATION_REPS = 2000
# Seconds one calibration pass takes at the reference speed: about its time on
# the 2-core host the benchmark was defined on, when uncontended (see
# notes.json, "noise").
REFERENCE_PASS_S = 0.025


def calibration_pass() -> float:
    """Wall seconds of a fixed piece of work of the program's own kind (small
    NumPy calls from a Python loop, float formatting and parsing) that calls
    nothing in the program, so it tracks only how fast the host runs now."""
    start = time.perf_counter()
    state = np.linspace(-1.0, 1.0, 12).reshape(6, 2)
    coupling = np.eye(6) * 0.5 + 0.01
    total = 0.0
    for k in range(CALIBRATION_REPS):
        state = state + 1e-3 * (coupling @ state - state.mean(axis=0))
        total += float("%.17g" % (float(np.sum(state * state)) + k)) - k
    if not math.isfinite(total):
        raise ArithmeticError("calibration pass diverged")
    return time.perf_counter() - start


class ReferenceClock:
    """Times an interval in segments, running a calibration pass between
    segments, and scales each segment by the passes just before and after it:
    ``scaled`` is the interval in seconds at reference speed, ``wall`` its
    wall time, and ``passes`` every calibration pass so far."""

    def __init__(self):
        self.passes = [calibration_pass()]
        self.start()

    def start(self) -> None:
        self.wall = self.scaled = 0.0
        self.mark = time.perf_counter()

    def lap(self) -> None:
        """Ends the current segment and starts the next."""
        elapsed = time.perf_counter() - self.mark
        before = self.passes[-1]
        self.passes.append(calibration_pass())
        self.wall += elapsed
        self.scaled += elapsed * 2.0 * REFERENCE_PASS_S / (before + self.passes[-1])
        self.mark = time.perf_counter()


def load_program() -> SimpleNamespace:
    """Import ``consensuskit`` from this checkout's ``src``, afresh."""
    for name in [m for m in sys.modules if m == "consensuskit" or m.startswith("consensuskit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("consensuskit")
    if Path(package.__file__).resolve().parent != SRC / "consensuskit":
        raise ImportError(f"consensuskit imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"consensuskit.{m}") for m in MODULES})


def load_recorded(workload: str, seed: int):
    """Rows that record.py stored for this seed, or None."""
    path = HERE / "expected" / f"{workload}.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["seeds"].get(str(seed))


class Checker:
    """Checks each operation: recorded values, and bit-identical repeats."""

    def __init__(self, draws: int, recorded):
        self.draws = draws
        self.recorded = recorded
        self.first = {}
        self.errors = []

    def check(self, j: int, result) -> str:
        draw = j % self.draws
        outputs = (result.values, result.digest)
        message = ""
        if draw in self.first and self.first[draw] != outputs:
            message = f"op {j} repeats draw {draw} with different outputs"
        self.first.setdefault(draw, outputs)
        if not message and self.recorded is not None:
            message = check_recorded(self.recorded[draw], result.values)
        return message

    def note(self, j: int, message: str) -> None:
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(f"op {j}: {message}")


def run_op(workload, j: int, checker: Checker):
    """Operation j's result, or None after noting in the checker why it failed.
    ``workload.lap()`` ends the operation's last timed segment."""
    try:
        result = workload.op(j)
    except Exception:
        workload.lap()
        checker.note(j, traceback.format_exc(limit=3).strip().splitlines()[-1])
        return None
    workload.lap()
    message = checker.check(j, result)
    if message:
        checker.note(j, message)
        return None
    return result


def timed_setups(cls, seed, workdir, clock, setups, walls):
    """Set up ``SETUP_REPEATS`` times; appends each set-up's time at reference
    speed to ``setups`` and its wall time to ``walls``."""
    for _ in range(SETUP_REPEATS):
        # Each fresh import leaves the previous copy of the package as cyclic
        # garbage; collecting it outside the timed region keeps it from
        # slowing the next set-up and the operations (by a third on cli-certify).
        gc.collect()
        clock.start()
        workload = cls(load_program(), seed, workdir)
        clock.lap()
        setups.append(clock.scaled)
        walls.append(clock.wall)
    gc.collect()
    return workload


def measure(args, cls, workdir) -> dict:
    calibration_pass()  # warm-up: first-call costs stay out of every scale
    clock = ReferenceClock()
    setups, setup_walls = [], []
    workload = timed_setups(cls, args.seed, workdir, clock, setups, setup_walls)
    checker = Checker(cls.draws, load_recorded(cls.name, args.seed))
    workload.lap = clock.lap
    latencies, walls = [], []
    passed_steps = failed = 0
    start = time.perf_counter()
    while len(latencies) <= TAIL_BEYOND or time.perf_counter() - start < args.seconds:
        clock.start()
        result = run_op(workload, len(latencies), checker)
        latencies.append(clock.scaled)
        walls.append(clock.wall)
        if result is None:
            failed += 1
        else:
            passed_steps += result.agent_steps
    # Half the set-ups run after the loop, so their median spans the run.
    timed_setups(cls, args.seed, workdir, clock, setups, setup_walls)

    ordered = sorted(latencies)
    tail_index = len(ordered) - 1 - TAIL_BEYOND
    busy = sum(latencies)  # operation time at reference speed, passes excluded
    passed = len(latencies) - failed
    extras = {
        "ops": len(latencies),
        "op_fail_ratio": failed / len(latencies),
        "op_tail_percentile": 100.0 * tail_index / (len(ordered) - 1),
        "host_speed": REFERENCE_PASS_S / statistics.median(clock.passes),
        "wall_setup_s": statistics.median(setup_walls),
        "wall_op_p50_s": statistics.median(walls),
        "wall_op_tail_s": sorted(walls)[tail_index],
        "wall_ops_per_s": passed / sum(walls),
        "value_check": "recorded" if checker.recorded is not None else "repeat-only",
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": ordered[tail_index],
        "ops_per_s": passed / busy,
        "agent_steps_per_s": passed_steps / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"metrics": metrics, "extras": extras, "attempted": len(latencies), "failed": failed,
            "errors": checker.errors}


def trace(args, cls, workdir) -> dict:
    ck = load_program()
    ops = max(cls.trace_min_ops, int(args.seconds / (2.0 * cls.nominal_op_s)))
    recorded = load_recorded(cls.name, args.seed)
    walls = {}
    failed = 0
    tracer = Tracer()
    probes = step_probes(ck, args.seed)
    for _, thunk in probes:  # untimed warm-up at every problem size
        thunk()
    # The traced pass repeats the untraced pass's draws, so the checker also
    # requires its outputs to be bit-identical to the untraced ones.
    checker = Checker(cls.draws, recorded)
    for traced in (False, True):
        if traced:
            tracer.install(ck)
        try:
            tracer.op = "setup"
            workload = cls(ck, args.seed, workdir)
            start = time.perf_counter()
            for j in range(ops):
                tracer.op = f"op{j}"
                failed += run_op(workload, j, checker) is None
            walls[traced] = time.perf_counter() - start
            if traced:
                for name, thunk in probes:
                    tracer.op = PROBE + name
                    thunk()
        finally:
            tracer.restore()

    tracer.write(str(HERE / "_out" / f"spans-{cls.name}-seed{args.seed}.jsonl"))
    metrics = layer_metrics(tracer)
    metrics["trace_overhead_ratio"] = walls[True] / walls[False] - 1.0
    extras = {"ops_per_pass": ops, "spans": len(tracer.spans),
              "value_check": "recorded" if recorded is not None else "repeat-only"}
    return {"metrics": metrics, "extras": extras, "attempted": 2 * ops, "failed": failed,
            "errors": checker.errors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    cls = WORKLOADS[args.workload]
    workdir = str(HERE / "_work" / f"{args.workload}-{os.getpid()}")
    try:
        outcome = (trace if args.trace else measure)(args, cls, workdir)
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in outcome["metrics"]]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 3
    metrics = {}
    for m in declared:
        value = outcome["metrics"][m["name"]]
        if isinstance(value, float) and not math.isfinite(value):
            print(f"error: metric {m['name']} is {value}", file=sys.stderr)
            return 3
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value} {m['unit']}")
    for key, value in outcome["extras"].items():
        print(f"{key} = {value}")
    for error in outcome["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
