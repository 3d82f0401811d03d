"""Print every metric of each workload by name, with its unit.

    python3 bench/report.py [--seed N] [--seconds S] [--trace 0|1] [--tiny]

Runs run.py once per workload, each in its own process so that peak RSS
is per workload.  Every run checks each operation against the reference;
the command exits with 1 if any run is incorrect or fails.  With --trace 0
it prints the end-to-end metrics and the detail figures (error rate and
probe latency per class); with --trace 1 the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from workloads import HERE, ROOT, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + ["--tiny"] * args.tiny
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        metrics = result["metrics"]
        if args.trace == 0:
            metrics = {**metrics, **json.loads(lines[-2])}
        for name, m in metrics.items():
            print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
        if not result["correct"]:
            sys.stderr.write(done.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
