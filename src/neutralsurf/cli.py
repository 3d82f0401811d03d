"""Command-line interface: catalog listing, verification reports, field export.

Exit codes: 0 all checks pass, 1 a check failed its tolerance, 2 argument
or I/O error, 3 precondition or degeneracy error.  Reports are
deterministic for identical arguments (seeds included).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

import numpy as np

from .ambient import DomainRect
from .catalog import (
    Immersion,
    _membership_residual,
    catalog_entries,
    catalog_get,
    from_definition,
)
from .curvature import _FD_STEP, _nested_stencil, _stencil_checks
from .errors import (
    DegeneracyError,
    FieldDomainError,
    InputMismatchError,
    NeutralSurfError,
    PreconditionError,
    SingularityError,
)
from .fields import (
    _sample,
    grid_csv_chunks,
    grid_json_chunks,
    resolve_identity,
    sample_field,
    verify_identity,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

DEFAULT_TOLERANCES = {
    "membership": 1e-10,
    "defect_lower": 1e-8,
    "equality": 1e-8,
    "expected": 1e-8,
    "canonical": 1e-8,
    "structure": 1e-3,
    "codazzi": 1e-4,
    "identity_abs": 1e-3,
    "identity_rel": 5e-3,
    "fd_step": _FD_STEP,
}


def _parse_grid(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"grid must look like 33x33, got {text!r}")
    nx, ny = int(m.group(1)), int(m.group(2))
    if nx < 2 or ny < 2:
        raise argparse.ArgumentTypeError("grid must be at least 2x2")
    return nx, ny


# the shape of a --domain value, s0:s1,t0:t1
_DOMAIN = re.compile(r"([^:,]+):([^,]+),([^:]+):(.+)")


def _parse_domain(text: str) -> DomainRect:
    m = _DOMAIN.fullmatch(text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"domain must look like s0:s1,t0:t1, got {text!r}"
        )
    try:
        return DomainRect(*(float(g) for g in m.groups()))
    except (ValueError, InputMismatchError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_kv(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def _coerce_param(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _collect_params(args) -> dict:
    params = {}
    for kv in args.param or []:
        key, value = kv
        params[key] = _coerce_param(value)
    if getattr(args, "seed", None) is not None:
        params["seed"] = args.seed
    return params


def _collect_tolerances(args) -> dict:
    tols = dict(DEFAULT_TOLERANCES)
    for kv in getattr(args, "tol", None) or []:
        key, value = kv
        if key not in tols:
            raise InputMismatchError(
                f"unknown tolerance {key!r}; known: {', '.join(sorted(tols))}"
            )
        try:
            tols[key] = float(value)
        except ValueError:
            raise InputMismatchError(f"tolerance {key} must be a number, got {value!r}") from None
    if not (np.isfinite(tols["fd_step"]) and tols["fd_step"] > 0):
        raise InputMismatchError(f"tolerance fd_step must be finite and > 0, got {tols['fd_step']}")
    # no value passes a NaN tolerance; inf and negative values are meaningful
    for key, value in tols.items():
        if np.isnan(value):
            raise InputMismatchError(f"tolerance {key} must not be nan")
    return tols


def _resolve_surface(args) -> Immersion:
    if getattr(args, "file", None):
        from .expr import parse_surface

        path = Path(args.file)
        text = path.read_text(encoding="utf-8")
        defn = parse_surface(text, name=path.stem)
        return from_definition(defn)
    if not args.surface:
        raise InputMismatchError("a surface name or --file is required")
    return catalog_get(args.surface, _collect_params(args))


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# -- list ---------------------------------------------------------------


def cmd_list(args) -> int:
    entries = catalog_entries()
    if args.format == "json":
        payload = [
            {
                "name": e.name,
                "parameters": e.param_schema,
                "default_domain": list(catalog_get(e.name, _default_params(e.name)).domain.as_tuple()),
                "note": e.note,
            }
            for e in entries
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_PASS
    print(f"built-in surfaces ({len(entries)}):")
    for e in entries:
        dom = catalog_get(e.name, _default_params(e.name)).domain
        print(f"  {e.name}")
        print(f"    parameters: {e.param_schema}")
        print(
            f"    default domain: [{dom.s0:g},{dom.s1:g}] x [{dom.t0:g},{dom.t1:g}]"
        )
        print(f"    {e.note}")
    return EXIT_PASS


def _default_params(name: str) -> dict:
    # holomorphic_graph has no default polynomial; use the annulus example
    return {"f": "z^2/2"} if name == "holomorphic_graph" else {}


# -- verify ---------------------------------------------------------------


def _fd_sample_points(domain: DomainRect, step: float) -> tuple[np.ndarray, np.ndarray]:
    """(s, t) arrays of a deterministic 3x3 interior sample, s-major, inset for FD stencils."""
    inset_s = max(4.0 * step, 0.05 * (domain.s1 - domain.s0))
    inset_t = max(4.0 * step, 0.05 * (domain.t1 - domain.t0))
    ss = np.linspace(domain.s0 + inset_s, domain.s1 - inset_s, 3)
    ts = np.linspace(domain.t0 + inset_t, domain.t1 - inset_t, 3)
    return np.repeat(ss, 3), np.tile(ts, 3)


def _stats(arr: np.ndarray) -> dict:
    return {
        "min": float(np.min(arr)),
        "max": float(np.max(arr)),
        "mean": float(np.mean(arr)),
    }


def build_verification_report(
    imm: Immersion,
    grid: tuple[int, int],
    domain: DomainRect | None,
    tols: dict,
) -> dict:
    domain = domain or imm.domain
    step = tols["fd_step"]
    # the FD points are inset by at least 4 steps, and their stencils reach
    # 2 steps out: inside the domain while 8 steps fit across it
    limit = min(domain.s1 - domain.s0, domain.t1 - domain.t0) / 8.0
    if step > limit:
        raise InputMismatchError(
            f"tolerance fd_step must be at most 1/8 of the domain's width and height ({limit!r}), got {step!r}"
        )
    fd_points = _fd_sample_points(domain, step)
    # one pipeline pass: the grid with the nested FD stencils of the FD points
    # in its last block; the grid's positions serve the membership check
    sample, positions, nested = _sample(
        imm, grid, domain, _nested_stencil(fd_points, step), positions=not imm.ambient.is_flat
    )
    checks: list[dict] = []

    def add_check(name: str, value: float, tolerance: float, passed: bool):
        checks.append(
            {
                "name": name,
                "value": float(value),
                "tolerance": float(tolerance),
                "passed": bool(passed),
            }
        )

    min_defect = float(np.min(sample.defect))
    max_defect = float(np.max(sample.defect))
    add_check(
        "wintgen-inequality (min defect >= -tol)",
        min_defect,
        tols["defect_lower"],
        min_defect >= -tols["defect_lower"],
    )

    membership = None
    if not imm.ambient.is_flat:
        membership = _membership_residual(imm, positions[:: max(1, grid[0] // 8), :: max(1, grid[1] // 8)])
        add_check(
            "membership (|<x,x> - 1/c| max)",
            membership,
            tols["membership"],
            membership <= tols["membership"],
        )

    equality = max_defect <= tols["equality"]
    kd2k = float(np.max(np.abs(sample.KD - 2.0 * sample.K)))

    expected = imm.expected
    for key in ("K", "KD", "H2"):
        if key in expected:
            err = float(np.max(np.abs(getattr(sample, key) - expected[key])))
            add_check(
                f"{key} matches expected {expected[key]:.6g}",
                err,
                tols["expected"],
                err <= tols["expected"],
            )
    for key, verdict in (
        ("minimal", sample.minimal),
        ("equality", equality),
        ("totally_geodesic", sample.totally_geodesic),
    ):
        if key in expected:
            add_check(
                f"{key} verdict matches expected {expected[key]}",
                float(verdict == expected[key]),
                1.0,
                verdict == expected[key],
            )

    # equality points must have circular or degenerate ellipse of curvature
    eq_mask = sample.defect <= tols["equality"]
    circle_or_point = sample.ellipse_circle | sample.ellipse_point
    if bool(np.any(eq_mask)):
        ok = bool(np.all(circle_or_point[eq_mask]))
        add_check(
            "ellipse circular/point at equality nodes",
            float(np.count_nonzero(eq_mask & ~circle_or_point)),
            0.0,
            ok,
        )

    rep, (kw, kdw), codazzi = _stencil_checks(nested, fd_points, step)
    # canonical frame residual where the surface achieves equality
    if equality:
        canonical_max = float(np.max(rep.canonical.residual))
        add_check(
            "canonical equality-frame residual",
            canonical_max,
            tols["canonical"],
            canonical_max <= tols["canonical"],
        )

    # finite-difference consistency checks on an interior subsample
    structure_k = float(np.max(np.abs(kw - rep.K)))
    structure_kd = float(np.max(np.abs(kdw - rep.KD)))
    codazzi_max = float(np.max(codazzi))
    add_check(
        "structure equation K agreement",
        structure_k,
        tols["structure"],
        structure_k <= tols["structure"],
    )
    add_check(
        "structure equation KD agreement",
        structure_kd,
        tols["structure"],
        structure_kd <= tols["structure"],
    )
    add_check(
        "codazzi residual",
        codazzi_max,
        tols["codazzi"],
        codazzi_max <= tols["codazzi"],
    )

    report = {
        "surface": imm.name,
        "params": {k: (v if not isinstance(v, list) else [str(c) for c in v]) for k, v in imm.params.items()},
        "ambient": imm.ambient.describe(),
        "curvature": imm.ambient.curvature,
        "domain": list(domain.as_tuple()),
        "grid": list(grid),
        "summary": {
            "K": _stats(sample.K),
            "KD": _stats(sample.KD),
            "H2": _stats(sample.H2),
            "defect": _stats(sample.defect),
        },
        "membership_residual": membership,
        "minimal": sample.minimal,
        "totally_geodesic": sample.totally_geodesic,
        "equality": equality,
        "kd_equals_2k": kd2k <= tols["expected"],
        "ellipse": {
            "circle_nodes": int(np.count_nonzero(sample.ellipse_circle)),
            "point_nodes": int(np.count_nonzero(sample.ellipse_point)),
        },
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    return report


def _print_verify_text(report: dict) -> None:
    print(f"surface: {report['surface']}  ({report['ambient']})")
    if report["params"]:
        print(f"params: {json.dumps(report['params'], sort_keys=True)}")
    d = report["domain"]
    print(
        f"grid: {report['grid'][0]}x{report['grid'][1]} on "
        f"[{_fmt(d[0])},{_fmt(d[1])}] x [{_fmt(d[2])},{_fmt(d[3])}]"
    )
    for key in ("K", "KD", "H2", "defect"):
        s = report["summary"][key]
        print(
            f"{key:>7}: min {_fmt(s['min'])}  max {_fmt(s['max'])}  mean {_fmt(s['mean'])}"
        )
    if report["membership_residual"] is not None:
        print(f"membership residual: {_fmt(report['membership_residual'])}")
    print(
        f"verdicts: minimal={report['minimal']}  equality={report['equality']}  "
        f"totally_geodesic={report['totally_geodesic']}  KD=2K: {report['kd_equals_2k']}"
    )
    print("checks:")
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(
            f"  [{status}] {c['name']}: value {_fmt(c['value'])} "
            f"(tolerance {_fmt(c['tolerance'])})"
        )
    print(f"result: {'PASS' if report['passed'] else 'FAIL'}")


def cmd_verify(args) -> int:
    tols = _collect_tolerances(args)
    imm = _resolve_surface(args)
    report = build_verification_report(imm, args.grid, args.domain, tols)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_verify_text(report)
    if not report["passed"]:
        return EXIT_CHECK_FAILED
    return EXIT_PASS


# -- defect-map ------------------------------------------------------------


def cmd_defect_map(args) -> int:
    imm = _resolve_surface(args)
    field = sample_field(imm, "defect", grid=args.grid, domain=args.domain)
    # the map is written in pieces, never held as one text
    chunks = (grid_json_chunks if args.format == "json" else grid_csv_chunks)(field)
    out = Path(args.out)
    try:
        with out.open("w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(
        f"wrote {args.format} defect map ({field.nx}x{field.ny}) to {out}: "
        f"min {_fmt(float(np.min(field.values)))}, "
        f"max {_fmt(float(np.max(field.values)))}"
    )
    return EXIT_PASS


# -- laplacian-check --------------------------------------------------------


def cmd_laplacian_check(args) -> int:
    tols = _collect_tolerances(args)
    imm = _resolve_surface(args)
    name = resolve_identity(args.identity)
    report = verify_identity(
        imm, name, grid=args.grid, domain=args.domain, threshold=tols["identity_abs"]
    )
    passed = (
        report.max_abs_residual <= tols["identity_abs"]
        or report.relative_residual <= tols["identity_rel"]
    )
    payload = {
        "surface": imm.name,
        "identity": name,
        "quantity": report.quantity,
        "grid": [report.nx, report.ny],
        "max_abs_lhs": report.max_abs_laplacian,
        "max_abs_rhs": report.max_abs_rhs,
        "max_abs_residual": report.max_abs_residual,
        "relative_residual": report.relative_residual,
        "verdict": report.verdict,
        "tolerance_abs": tols["identity_abs"],
        "tolerance_rel": tols["identity_rel"],
        "passed": passed,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"surface: {imm.name}   identity: {name} [{report.quantity}]")
        print(f"grid: {report.nx}x{report.ny} (interior margin {report.margin})")
        print(
            f"max |laplacian side| {_fmt(report.max_abs_laplacian)}   "
            f"max |algebraic side| {_fmt(report.max_abs_rhs)}"
        )
        print(
            f"max |residual| {_fmt(report.max_abs_residual)}   "
            f"relative {_fmt(report.relative_residual)}   verdict: {report.verdict}"
        )
        print(f"result: {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


# -- entry point -------------------------------------------------------------


def _add_surface_options(
    p: argparse.ArgumentParser, default_grid: str, formats: tuple = ("text", "json")
) -> None:
    """Options shared by the surface commands; the first of formats is the default."""
    p.add_argument("surface", nargs="?", help="catalog surface name (or use --file)")
    p.add_argument("--file", help="surface definition file")
    p.add_argument("--grid", type=_parse_grid, default=_parse_grid(default_grid))
    p.add_argument("--domain", type=_parse_domain, default=None)
    p.add_argument(
        "--param",
        action="append",
        type=_parse_kv,
        metavar="KEY=VALUE",
        help="surface parameter (repeatable), e.g. f=z^2/2",
    )
    p.add_argument("--seed", type=int, default=None, help="seed for random_polynomial")
    p.add_argument(
        "--tol",
        action="append",
        type=_parse_kv,
        metavar="NAME=VALUE",
        help="override a named tolerance (repeatable)",
    )
    p.add_argument("--format", choices=formats, default=formats[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neutralsurf",
        description=(
            "numerical verification of space-like surfaces in 4-dimensional "
            "neutral pseudo-Riemannian space forms"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list built-in surfaces")
    p_list.add_argument("--format", choices=["text", "json"], default="text")
    p_list.set_defaults(func=cmd_list)

    p_verify = sub.add_parser("verify", help="run the verification report")
    _add_surface_options(p_verify, "33x33")
    p_verify.set_defaults(func=cmd_verify)

    p_map = sub.add_parser("defect-map", help="export the pointwise defect field")
    _add_surface_options(p_map, "33x33", formats=("csv", "json"))
    p_map.add_argument("--out", required=True, help="output file path")
    p_map.set_defaults(func=cmd_defect_map)

    p_lap = sub.add_parser("laplacian-check", help="check a Laplacian identity")
    _add_surface_options(p_lap, "65x65")
    p_lap.add_argument(
        "identity",
        help="identity id: hyperbolic, flat, spherical (aliases eq5_11, eq6_6, eq7_7)",
    )
    p_lap.set_defaults(func=cmd_laplacian_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: parse_args does not change it."""
    return build_parser()


def _joined_domains(argv: list[str]) -> list[str]:
    """argv with each '--domain VALUE' joined into '--domain=VALUE' when VALUE
    has the s0:s1,t0:t1 shape; '--dom VALUE' and the other abbreviations
    argparse accepts are joined alike.

    argparse takes a separate value that starts with '-' and is not a
    number for an option, so '--domain -0.5:0.5,-1:1' would lack its
    value; a VALUE of another shape is left as it is, and so is its error.
    """
    out = []
    for arg in argv:
        if out and len(out[-1]) > 2 and "--domain".startswith(out[-1]) and _DOMAIN.fullmatch(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _joined_domains(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args)
    except (DegeneracyError, PreconditionError, FieldDomainError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (NeutralSurfError, OSError, MemoryError, RecursionError) as exc:
        # an input too large or too deeply nested for this process is an argument error
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
