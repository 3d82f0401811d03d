"""Regenerate the ROADMAP baseline table: per-call cost of each layer and CLI command.

    python3 bench/baseline.py

Prints the machine (nproc, Python, numpy, CPU model, load average at start)
and a markdown table of median milliseconds per call.  Layer calls are timed
at interior points of phi_h42 (the H = 0 canonical branch) and of
random_polynomial seed 7 (the closed branch); CLI commands run in-process
through neutralsurf.cli.main with stdout captured.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

from workloads import OUT, ROOT, SRC, cli_op, probe_points

POINTS = 10


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def per_call_ms(fn, args_list) -> float:
    times = []
    for args in args_list:
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def main() -> int:
    load = os.getloadavg()
    sys.path.insert(0, str(SRC))
    import numpy as np

    from neutralsurf import catalog, curvature, fields

    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {np.__version__}, "
          f"CPU {cpu_model()}, loadavg {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}")
    rows = []
    rng = random.Random(0)
    for label, imm in (("phi_h42", catalog.catalog_get("phi_h42")),
                       ("random_polynomial seed 7", catalog.catalog_get("random_polynomial", {"seed": 7}))):
        pts = probe_points(imm, POINTS, rng)
        frames = [curvature.build_frames(imm, p) for p in pts]
        hs = [curvature.second_fundamental_form(imm, p, f) for p, f in zip(pts, frames)]
        ops = [curvature.shape_operators(h, f) for h, f in zip(hs, frames)]
        reps = [curvature.invariants(a3, a4, f, imm.ambient.curvature) for (a3, a4), f in zip(ops, frames)]
        branch = "H = 0 branch" if label == "phi_h42" else "closed branch"
        rows += [
            (f"`imm.evaluate` ({label})", per_call_ms(imm.evaluate, pts)),
            (f"`build_frames` ({label})", per_call_ms(curvature.build_frames, [(imm, p) for p in pts])),
            (f"`second_fundamental_form` ({label})",
             per_call_ms(curvature.second_fundamental_form, [(imm, p, f) for p, f in zip(pts, frames)])),
            (f"`shape_operators` ({label})", per_call_ms(curvature.shape_operators, zip(hs, frames))),
            (f"`invariants` ({label})", per_call_ms(
                curvature.invariants, [(a3, a4, f, imm.ambient.curvature) for (a3, a4), f in zip(ops, frames)])),
            (f"`ellipse_of_curvature` ({label})",
             per_call_ms(curvature.ellipse_of_curvature, [(h, r.H) for h, r in zip(hs, reps)])),
            (f"`canonical_equality_frame`, {branch}", per_call_ms(curvature.canonical_equality_frame, ops)),
            (f"`point_report` ({label})", per_call_ms(curvature.point_report, [(imm, p) for p in pts])),
            (f"`structure_equation_check` ({label})",
             per_call_ms(curvature.structure_equation_check, [(imm, p) for p in pts])),
            (f"`codazzi_residual` ({label})", per_call_ms(curvature.codazzi_residual, [(imm, p) for p in pts])),
        ]
    phi = catalog.catalog_get("phi_h42")
    rows += [
        ("`sample_surface` 33x33 (phi_h42)", per_call_ms(fields.sample_surface, [(phi, (33, 33))] * 3)),
        ("`sample_surface` 65x65 (phi_h42)", per_call_ms(fields.sample_surface, [(phi, (65, 65))])),
        ("`catalog_get holomorphic_graph`", per_call_ms(catalog.catalog_get, [("holomorphic_graph", {"f": "z^2/2"})] * 3)),
        ("`catalog_get random_polynomial` seed 7", per_call_ms(catalog.catalog_get, [("random_polynomial", {"seed": 7})] * 3)),
    ]

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        for argv, repeat in ((["verify", "phi_h42"], 3), (["verify", "random_polynomial", "--seed", "7"], 3),
                             (["laplacian-check", "phi_h42", "hyperbolic", "--grid", "65x65"], 1),
                             (["defect-map", "random_polynomial", "--seed", "7", "--grid", "129x129",
                               "--out", OUT], 1)):
            op = cli_op(argv, Path(tmp))
            rows.append((f"`neutralsurf {op.key}`", per_call_ms(op.call, [()] * repeat)))

    print("\n| layer / command | ms per call |\n|---|---|")
    for label, ms in rows:
        print(f"| {label} | {ms:.3g} |" if ms < 100 else f"| {label} | {ms:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
