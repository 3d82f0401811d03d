"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload grid_fields --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: each operation starts when the last
one ends.  Passes of the workload repeat for --seconds (at least
MIN_PASSES).  Every operation's outcome is checked against the reference
recorded by record.py; an operation fails when it raises, exits with
another code than recorded, or leaves a field's tolerance.

The last line of stdout is the result: --trace 0 gives the end-to-end
metrics; --trace 1 runs one untraced pass, one span pass and one count
pass (see tracer.py) and gives the per-layer metrics.  With --trace 0 the
line before it holds detail figures that are not gated.  --tiny runs the small variant of
a workload in seconds and, with --trace 1, also checks that the layers the
workload is meant to bypass stay idle.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import REFERENCE, ROOT, SRC, WORKLOADS, build_ops, mismatches, reference_outcomes

MIN_PASSES = 2
# setup_s is the time for a fresh interpreter to import neutralsurf, with
# numpy's share fixed at NUMPY_IMPORT_S: numpy's own import swings between
# about 0.09 and 0.16 s with the host's state over minutes, while the rest of
# the import does not.  Fresh interpreters time both parts, IMPORTS_PER_PASS
# before each pass and after the last, so that they spread over the run.
IMPORTS_PER_PASS = 4
NUMPY_IMPORT_S = 0.15
IMPORT_CODE = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
               "import neutralsurf; print(t1 - t0, time.perf_counter() - t1)")

# layers each workload must leave idle (checked by --tiny --trace 1)
IDLE_LAYERS = {
    "grid_fields": ("curvature.canonical_equality_frame.calls", "curvature.connection_forms.calls",
                    "curvature.structure_equation_check.calls", "curvature.codazzi_residual.calls"),
    "point_probe": ("fields.sample_surface.calls",),
}


class SpeedProbe:
    """Samples the host's speed with a fixed reference loop.

    The host's speed drifts by tens of percent over seconds to minutes.  An
    operation's time divided by the loop's time at that moment measures the
    operation in units of the loop, which drift far less.  While running()
    is active, a timer signal runs the loop every PERIOD_S seconds; Python
    runs the handler between bytecodes, so operations that take seconds are
    sampled from inside, and the handler's own time is taken out of them.
    """

    PERIOD_S = 0.25
    LOOPS = 4000  # about 20 ms of work

    def __init__(self):
        import numpy as np

        self._np = np
        self._weights = np.array([-1.0, -1.0, 1.0, 1.0])
        self.samples: list[tuple[float, float]] = []  # (start, end) of each loop run
        self._busy = False

    def tick(self, *_signal) -> None:
        """Run the reference loop once: small tuples and arrays, float math, tiny dots."""
        if self._busy:  # the timer fired during an explicit tick
            return
        self._busy = True
        np, weights = self._np, self._weights
        start = time.perf_counter()
        acc = 0.0
        for i in range(self.LOOPS):
            x = (float(i), 0.5 * i, math.sinh(i * 1e-3), math.exp(-i * 1e-3))
            v = np.array(x)
            acc += float(np.dot(weights * v, v)) + sum(a * b for a, b in zip(x, x[::-1]))
        self.samples.append((start, time.perf_counter()))
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def split(self, start: float, end: float) -> tuple[float, float]:
        """Work seconds in [start, end] without the samples taken inside it, and
        the loop's mean time inside it (or on either side when none fell inside)."""
        starts = [s for s, _ in self.samples]
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
        inside = [e - s for s, e in self.samples[lo:hi]]
        around = inside or [e - s for s, e in self.samples[max(lo - 1, 0):lo + 1]]
        return end - start - sum(inside), statistics.fmean(around)


class Runner:
    """Times operations, checks their outcomes and keeps the tallies."""

    def __init__(self, ops, reference: dict):
        self.ops = ops
        self.reference = reference
        self.speed = SpeedProbe()
        self.attempted = 0
        self.failed = 0
        self.nonzero_exits = 0
        self.errors = 0  # nonzero exits, raised errors and reference mismatches
        self.latencies: dict[str, list[float]] = {}

    def run_pass(self) -> tuple[float, float]:
        """Run every operation once; return the pass's seconds and reference units."""
        timings = []
        self.speed.tick()
        for op in self.ops:
            end = None
            start = time.perf_counter()
            try:
                result = op.call()
                end = time.perf_counter()
                got = op.outcome(result)
            except Exception as exc:  # an escaped error or unreadable output is a failure
                end = end or time.perf_counter()
                got = {"raised": f"{type(exc).__name__}: {exc}"}
            timings.append((op.kind, start, end))
            self.attempted += 1
            self.nonzero_exits += got.get("exit", 0) != 0
            bad = mismatches(got, self.reference.get(op.key, {"missing reference": True}))
            if bad:
                self.failed += 1
                print(f"reference mismatch in {op.key}: {'; '.join(bad[:5])}", file=sys.stderr)
            self.errors += bool(bad) or got.get("exit", 0) != 0 or "error" in got
        self.speed.tick()
        wall = ref = 0.0
        for kind, start, end in timings:
            elapsed, loop = self.speed.split(start, end)
            self.latencies.setdefault(kind, []).append(elapsed)
            wall += elapsed
            ref += elapsed / loop
        return wall, ref


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def import_seconds() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import numpy, then the rest of neutralsurf."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    numpy_s, rest_s = map(float, done.stdout.split())
    return numpy_s, rest_s


def end_to_end(runner: Runner, seconds: float, tiny: bool) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and detail figures printed beside them."""
    import_seconds()  # warm-up: the first import may compile bytecode
    imports, passes = [], []
    start = time.perf_counter()
    # stop before a pass that would end more than half a pass past --seconds
    while len(passes) < (1 if tiny else MIN_PASSES) or (
        not tiny and time.perf_counter() - start + passes[-1][0] / 2 < seconds
    ):
        imports += [import_seconds() for _ in range(IMPORTS_PER_PASS)]
        with runner.speed.running():
            passes.append(runner.run_pass())
    imports += [import_seconds() for _ in range(IMPORTS_PER_PASS)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (NUMPY_IMPORT_S + statistics.median(rest for _, rest in imports), "s"),
        "wall_ref": (statistics.median(ref for _, ref in passes), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "error_rate": (runner.errors / runner.attempted, "ratio"),
        "wall_s": (statistics.median(wall for wall, _ in passes), "s"),
        "import_s": (statistics.median(numpy + rest for numpy, rest in imports), "s"),
        "passes": (len(passes), "count"),
    }
    for kind, values in sorted(runner.latencies.items()):
        if kind != "cli":
            details[f"probe_{kind}_p50_ms"] = (1000.0 * statistics.median(values), "ms")
            details[f"probe_{kind}_p95_ms"] = (1000.0 * percentile(values, 0.95), "ms")
            details[f"probe_{kind}_count"] = (len(values), "count")
    return metrics, details


def per_layer(runner: Runner) -> dict:
    from tracer import CountTracer, SpanTracer, layer_metrics

    untraced, _ = runner.run_pass()
    exits_before = runner.nonzero_exits
    with SpanTracer() as spans:
        traced, _ = runner.run_pass()
    nonzero = runner.nonzero_exits - exits_before
    with CountTracer() as counts:
        runner.run_pass()
    metrics = layer_metrics(spans, counts)
    metrics["cli.main.nonzero_exits"] = nonzero
    metrics["trace.overhead_s"] = traced - untraced
    units = {"self_s": "s", "overhead_s": "s", "per_node": "calls/node",
             "useful_ratio": "ratio", "bytes": "bytes"}
    return {name: (value, units.get(name.rsplit(".", 1)[1], "count")) for name, value in metrics.items()}


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small self-test variant")
    args = parser.parse_args(argv)

    if not (SRC / "neutralsurf" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"error: no neutralsurf sources under {SRC} or no {REFERENCE.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import neutralsurf

    if not neutralsurf.__file__.startswith(str(SRC)):
        print(f"error: imported neutralsurf from {neutralsurf.__file__}", file=sys.stderr)
        return 2
    reference_file = json.loads(REFERENCE.read_text(encoding="utf-8"))
    reference = reference_outcomes(reference_file, args.tiny)

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        ops = build_ops(args.workload, args.seed, args.tiny, reference_file, Path(tmp))
        runner = Runner(ops, reference)
        if args.trace:
            metrics, details = per_layer(runner), None
        else:
            metrics, details = end_to_end(runner, args.seconds, args.tiny)

    status = 0
    if args.tiny and args.trace:
        busy = [name for name in IDLE_LAYERS.get(args.workload, ()) if metrics[name][0]]
        if busy:
            print(f"error: {args.workload} should leave idle: {', '.join(busy)}", file=sys.stderr)
            status = 1
    if details:
        print(json.dumps(as_json(details)))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": as_json(metrics),
    }))
    return status


if __name__ == "__main__":
    sys.exit(main())
