"""Benchmark of the otpwallet package: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload lifetime --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` runs rounds in pairs,
untraced then traced on the same seed, checks that both land on the same
state, and prints the per-layer metrics and the tracing overhead. Without
`--workload` every workload runs, each in its own process. The last line of
a single-workload run is one JSON object; the exit code is 1 when any
correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_all(args, names) -> int:
    """Every workload in its own process; a table of the results."""
    rows, status = [], 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1]
                        if not line.startswith("record ")))
        if proc.returncode != 0:
            status = 1
            print(proc.stderr, file=sys.stderr)
        if lines:
            rows.append((name, json.loads(lines[-1])))
    if args.trace == 0 and rows:
        metrics = list(rows[0][1]["metrics"])
        print("\n" + " | ".join(["workload"] + metrics + ["fail_ratio"]))
        for name, res in rows:
            cells = [f"{res['metrics'][m]['value']:.4g}" for m in metrics]
            print(" | ".join([name] + cells
                             + [f"{res['failed'] / res['attempted']:.4g}"]))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "otpwallet" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'otpwallet'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    if args.workload is None:
        return run_all(args, list(measure.WORKLOADS))
    if args.workload not in measure.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(measure.WORKLOADS)}")
    return measure.run_one(args)


if __name__ == "__main__":
    sys.exit(main())
