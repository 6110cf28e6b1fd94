"""Record each draw's outputs for the given seeds into ``expected/<workload>.json``.

Run at the commit whose values later commits must reproduce:

    python3 bench/record.py --workload ensemble --seeds 0 1 2

``run.py`` compares every operation of a recorded seed against these rows
within ``workloads.RECORDED_RTOL``; other seeds are checked by their
verdicts and by bit-identical repeats only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

from run import HERE, load_program
from workloads import WORKLOADS


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    path = HERE / "expected" / f"{args.workload}.json"
    table = {"seeds": {}}
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            table = json.load(handle)
    ck = load_program()
    cls = WORKLOADS[args.workload]
    workdir = str(HERE / "_work" / f"record-{args.workload}-{os.getpid()}")
    try:
        for seed in args.seeds:
            workload = cls(ck, seed, workdir)
            table["seeds"][str(seed)] = [list(workload.op(i).values) for i in range(cls.draws)]
            print(f"{args.workload} seed {seed}: {cls.draws} draws", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
