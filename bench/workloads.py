"""Benchmark workloads: the operations of one pass and their reference check.

Every operation calls a public neutralsurf entry point from outside the
package: CLI operations go through ``neutralsurf.cli.main(argv)`` in-process
with stdout captured, probes call the curvature functions directly.  The
workload seed picks the ``random_polynomial`` seeds and the probe points
from the pools recorded in ``data/reference.json``; ``record.py`` records
the reference outcome of every pool entry, so any seed can be checked.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "data" / "reference.json"
SURFACE_FILE = HERE / "data" / "phi_h42.txt"

WORKLOADS = ("grid_fields", "verify_catalog", "point_probe")

# random_polynomial seeds with recorded CLI outcomes
RP_SEEDS = tuple(range(16))
# probe pools: class -> (surface keys, points per surface)
PROBE_POOLS = {
    "minimal": (("phi_h42", "holomorphic_graph f=z^2/2"), 128),
    "generic": (tuple(f"random_polynomial seed={s}" for s in range(8)), 32),
}
PROBES_PER_PASS = {False: 100, True: 4}  # per class
PROBE_INSET = 0.1
OUT = "{out}"  # placeholder for the defect-map output path

# tolerance class -> (absolute, relative); |got - want| <= abs + rel * |want|
TOLERANCES = {
    "value": (1e-9, 1e-9),  # pointwise analytic values and their grid statistics
    "membership": (1e-11, 0.0),  # |<x,x> - 1/c|, roundoff level by construction
    "canonical": (1e-8, 0.0),  # equality residual; the CLI tolerance of the check
    "fd": (1e-6, 0.0),  # finite-difference structure and Codazzi values
    "laplacian": (1e-6, 1e-6),  # nested-difference Laplacian, roundoff grows as 1/h^2
}


def tolerance_class(field: str) -> str:
    if "codazzi" in field or "structure" in field:
        return "fd"
    if "canonical" in field:
        return "canonical"
    if "membership" in field:
        return "membership"
    if field.startswith("laplacian."):
        return "laplacian"
    return "value"


def mismatches(got: dict, want: dict) -> list[str]:
    """Fields of an outcome that leave their tolerance or differ exactly."""
    bad = []
    for field in sorted(set(got) | set(want)):
        if field not in got or field not in want:
            bad.append(f"{field}: missing")
            continue
        g, w = got[field], want[field]
        numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (g, w))
        if numeric and isinstance(w, float) and math.isfinite(w):
            tol_abs, tol_rel = TOLERANCES[tolerance_class(field)]
            ok = abs(g - w) <= tol_abs + tol_rel * abs(w)
        else:
            ok = g == w
        if not ok:
            bad.append(f"{field}: got {g!r}, reference {w!r}")
    return bad


# -- operations ----------------------------------------------------------


@dataclass
class Op:
    key: str  # reference key
    kind: str  # "cli" or a probe class
    call: Callable[[], object]  # the timed work
    outcome: Callable[[object], dict]  # checked fields of the result


def _verify_outcome(rc: int, out: str) -> dict:
    rep = json.loads(out)
    got = {"exit": rc, "passed": rep["passed"], "membership_residual": rep["membership_residual"]}
    for key in ("minimal", "equality", "totally_geodesic", "kd_equals_2k"):
        got[key] = rep[key]
    for key, stats in rep["summary"].items():
        for stat, value in stats.items():
            got[f"summary.{key}.{stat}"] = value
    for key, value in rep["ellipse"].items():
        got[f"ellipse.{key}"] = value
    for check in rep["checks"]:
        got[f"check.{check['name']}.value"] = check["value"]
        got[f"check.{check['name']}.passed"] = check["passed"]
    return got


def _laplacian_outcome(rc: int, out: str) -> dict:
    rep = json.loads(out)
    # relative_residual is left out: with a roundoff-level right side it is a
    # ratio of two roundoff values; both sides are checked on their own
    got = {"exit": rc, "passed": rep["passed"], "verdict": rep["verdict"], "quantity": rep["quantity"]}
    for key in ("max_abs_lhs", "max_abs_rhs", "max_abs_residual"):
        got[f"laplacian.{key}"] = rep[key]
    return got


def _defect_map_outcome(rc: int, text: str) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], [[float(x) for x in row] for row in rows[1:]]
    got = {"exit": rc, "header": ",".join(header), "rows": len(data)}
    for col, name in enumerate(header):
        column = [row[col] for row in data]
        got[f"defect.{name}.min"] = min(column)
        got[f"defect.{name}.max"] = max(column)
        got[f"defect.{name}.mean"] = math.fsum(column) / len(column)
    n = math.isqrt(len(data))
    step = max(1, (n - 1) // 4)
    for i in range(0, n, step):
        for j in range(0, n, step):
            got[f"defect.node.{i}.{j}"] = data[i * n + j][2]
    return got


def cli_op(argv: list[str], tmpdir: Path) -> Op:
    from neutralsurf import cli

    key = " ".join(a for a in argv if a != OUT and a != "--out")
    if "--file" in argv:
        key = key.replace(str(SURFACE_FILE), SURFACE_FILE.name)
    out_path = tmpdir / "defect.csv"
    argv = [str(out_path) if a == OUT else a for a in argv]

    def call():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        return rc, stdout.getvalue()

    def outcome(result):
        rc, out = result
        if rc not in (0, 1):
            return {"exit": rc}
        if argv[0] == "verify":
            return _verify_outcome(rc, out)
        if argv[0] == "laplacian-check":
            return _laplacian_outcome(rc, out)
        text = out_path.read_text(encoding="utf-8")
        out_path.unlink()
        return _defect_map_outcome(rc, text)

    return Op(key, "cli", call, outcome)


def surface(key: str):
    """Immersion for a probe surface key such as 'random_polynomial seed=3'."""
    from neutralsurf import catalog_get

    name, _, param = key.partition(" ")
    params = {}
    if param:
        k, v = param.split("=")
        params[k] = int(v) if k == "seed" else v
    return catalog_get(name, params)


def probe_op(cls: str, key: str, imm, p: tuple[float, float]) -> Op:
    from neutralsurf import curvature
    from neutralsurf.errors import NeutralSurfError

    def call():
        try:
            rep = curvature.point_report(imm, p)
            k, kd = curvature.structure_equation_check(imm, p)
            codazzi = curvature.codazzi_residual(imm, p)
        except NeutralSurfError as exc:
            return {"error": type(exc).__name__}
        return {
            "K": rep.K,
            "KD": rep.KD,
            "H2": rep.H2,
            "defect": rep.defect,
            "canonical_residual": rep.canonical.residual,
            "structure_K": k,
            "structure_KD": kd,
            "codazzi": codazzi,
        }

    return Op(f"{key} @ {p[0]!r},{p[1]!r}", cls, call, dict)


def probe_points(imm, n: int, rng: random.Random) -> list[tuple[float, float]]:
    """n points drawn uniformly from the domain inset by PROBE_INSET per side."""
    d = imm.domain
    ds, dt = PROBE_INSET * (d.s1 - d.s0), PROBE_INSET * (d.t1 - d.t0)
    return [(rng.uniform(d.s0 + ds, d.s1 - ds), rng.uniform(d.t0 + dt, d.t1 - dt)) for _ in range(n)]


# -- workloads -------------------------------------------------------------


def cli_argvs(workload: str, rp_seeds: list[int], tiny: bool) -> list[list[str]]:
    """Argument lists of one pass of a CLI workload."""
    if workload == "grid_fields":
        grid = "9x9" if tiny else "65x65"
        return [
            ["laplacian-check", "phi_h42", "hyperbolic", "--grid", grid, "--format", "json"],
            ["laplacian-check", "holomorphic_graph", "flat", "--param", "f=z^2/2",
             "--grid", grid, "--format", "json"],
            ["defect-map", "random_polynomial", "--seed", str(rp_seeds[0]), "--grid", grid, "--out", OUT],
        ]
    grid = "9x9" if tiny else "33x33"
    surfaces = [["phi_h42"], ["flat_L"], ["totally_geodesic_h42"],
                ["holomorphic_graph", "--param", "f=z^2/2"], ["umbilical_flat"]]
    surfaces += [["random_polynomial", "--seed", str(s)] for s in rp_seeds]
    surfaces += [["--file", str(SURFACE_FILE)]]
    return [["verify", *s, "--grid", grid, "--format", "json"] for s in surfaces]


def all_cli_argvs(tiny: bool) -> list[list[str]]:
    """Every CLI operation any seed can pick, for recording the reference."""
    seen = {}
    for s in RP_SEEDS:
        for workload in ("grid_fields", "verify_catalog"):
            for argv in cli_argvs(workload, [s, s], tiny):
                seen[" ".join(argv)] = argv
    return list(seen.values())


def build_ops(workload: str, seed: int, tiny: bool, reference: dict, tmpdir: Path) -> list[Op]:
    """The operations of one pass, chosen by the workload seed."""
    rng = random.Random(seed)
    if workload in ("grid_fields", "verify_catalog"):
        picks = rng.sample(RP_SEEDS, 2)
        return [cli_op(argv, tmpdir) for argv in cli_argvs(workload, picks, tiny)]
    entries = {cls: rng.sample(pool, PROBES_PER_PASS[tiny]) for cls, pool in reference["probes"].items()}
    keys = sorted({e[0] for picked in entries.values() for e in picked})
    imms = {key: surface(key) for key in keys}
    # alternate the classes so that a slow spell of the machine hits both alike
    pairs = zip(*([probe_op(cls, key, imms[key], (s, t)) for key, s, t, _ in picked]
                  for cls, picked in entries.items()))
    return [op for pair in pairs for op in pair]


def reference_outcomes(reference: dict, tiny: bool) -> dict:
    """Reference key -> recorded outcome, for the CLI operations and probes."""
    table = dict(reference["cli"]["tiny" if tiny else "full"])
    for cls, entries in reference["probes"].items():
        for key, s, t, outcome in entries:
            table[f"{key} @ {s!r},{t!r}"] = outcome
    return table
