"""Curvature fields on parameter grids and intrinsic Laplacian checks.

The Laplacian is the metric divergence of the gradient,

    lap f = (1/sqrt(g)) d_i ( sqrt(g) g^{ij} d_j f ),   sqrt(g) = sqrt(E G - F^2),

discretized with nested central differences on a uniform grid (interior
margin of two nodes).  The sign convention is div(grad .): positive on
convex bumps of a flat metric, so the subharmonicity statements checked
here read as "laplacian >= 0".

The identity checks compare lap(ln(K + shift)) against 2(2K - KD) on
minimal equality-case surfaces, with shift +1, 0, -1 for ambient curvature
-1, 0, +1 respectively.

A grid sample forms only the fields its caller selects (sample_surface's
select): sample_field takes its quantity and the metric, and
verify_identity, whose KD sign comes from the equality condition, takes
|KD| in place of KD.  So neither forms KD's sign, the ellipse of
curvature or max |h_ij|, which verify reads.
"""

from __future__ import annotations

import math

import numpy as np

from .ambient import DomainRect
from .catalog import Immersion
from .curvature import point_report
from .errors import FieldDomainError, InputMismatchError, PreconditionError
from .pseudo_linalg import PVector
from .records import Record

# log quantity -> shift in ln(K + shift)
_LOG_SHIFTS = {"ln(K+1)": 1.0, "ln(K)": 0.0, "ln(K-1)": -1.0}

QUANTITIES = ("K", "KD", "H2", "defect", *_LOG_SHIFTS)

# identity id -> (required ambient kind, curvature, log quantity)
IDENTITIES = {
    "hyperbolic": ("pseudo_hyperbolic", -1.0, "ln(K+1)"),
    "flat": ("flat", 0.0, "ln(K)"),
    "spherical": ("pseudo_sphere", 1.0, "ln(K-1)"),
}
# compatibility aliases accepted by the library and the CLI
IDENTITY_ALIASES = {"eq5_11": "hyperbolic", "eq6_6": "flat", "eq7_7": "spherical"}

MINIMAL_H2_TOL = 1e-9
MINIMAL_H_TOL = 1e-6
EQUALITY_TOL = 1e-6

# Nodes per point_report call in sample_surface.  The pipeline keeps a few
# dozen arrays of this many nodes alive at once, and a pass keeps one
# block's at a time: a 257x257 defect map grows a fresh process by about
# 10 MB (41 MB when each block's report lived to the end of the pass), and
# a 65x65 sample traces a peak of 2.0-3.5 MB (3.0-5.2 MB then).
_BLOCK_NODES = 4096


class GridField(Record):
    """Scalar samples and metric coefficients on a uniform parameter grid."""

    __slots__ = _fields = ("domain", "nx", "ny", "values", "E", "F", "G", "quantity")

    def __init__(
        self,
        domain: DomainRect,
        nx: int,
        ny: int,
        values: np.ndarray,
        E: np.ndarray,
        F: np.ndarray,
        G: np.ndarray,
        quantity: str = "value",
    ):
        for name, arr in (("values", values), ("E", E), ("F", F), ("G", G)):
            if arr.shape != (nx, ny):
                raise InputMismatchError(f"{name} has shape {arr.shape}, expected {(nx, ny)}")
        self.domain = domain
        self.nx = nx
        self.ny = ny
        self.values = values
        self.E = E
        self.F = F
        self.G = G
        self.quantity = quantity

    @property
    def hs(self) -> float:
        return (self.domain.s1 - self.domain.s0) / (self.nx - 1)

    @property
    def ht(self) -> float:
        return (self.domain.t1 - self.domain.t0) / (self.ny - 1)

    def node_coords(self):
        return self.domain.grid(self.nx, self.ny)


class SurfaceSample(Record):
    """Pointwise invariants of an immersion over a grid, one array per field
    (None for a field that sample_surface was not asked to select)."""

    __slots__ = _fields = (
        "imm", "domain", "nx", "ny", "K", "KD", "H2", "defect", "E", "F", "G",
        "H_norm", "h_max", "ellipse_circle", "ellipse_point",
    )

    def grid_field(self, values: np.ndarray, quantity: str) -> GridField:
        return GridField(self.domain, self.nx, self.ny, values, self.E, self.F, self.G, quantity)

    @property
    def minimal(self) -> bool:
        return (
            float(np.max(np.abs(self.H2))) <= MINIMAL_H2_TOL
            and float(np.max(self.H_norm)) <= MINIMAL_H_TOL
        )

    @property
    def totally_geodesic(self) -> bool:
        return float(np.max(self.h_max)) <= 1e-8

    def kd_equality_signed(self) -> np.ndarray:
        """KD with the sign for which K + KD comes closest to H2 + c.

        It reads |KD| alone, so it serves a sample whose KD field holds |KD|
        (sample_surface's "|KD|").  With X = K - H2 - c, it is +|KD| where
        |X + |KD|| <= |X - |KD||, ties included, and -|KD| elsewhere.  A tie
        needs X or |KD| at roundoff against the other, so at an equality
        node, where the defect X - |KD| is at most EQUALITY_TOL, it needs X
        below about EQUALITY_TOL.
        """
        c, abs_kd = self.imm.ambient.curvature, np.abs(self.KD)
        plus = np.abs(self.K + abs_kd - self.H2 - c)
        minus = np.abs(self.K - abs_kd - self.H2 - c)
        return np.where(plus <= minus, abs_kd, -abs_kd)


# What each SurfaceSample array field is sampled from, per block report,
# under the name that selects it; "|KD|" fills the KD field with |KD|,
# which needs no sign (curvature.CurvatureReport.KD).
_SAMPLED = {
    "K": lambda rep: rep.K,
    "KD": lambda rep: rep.KD,
    "|KD|": lambda rep: rep.abs_KD,
    "H2": lambda rep: rep.H2,
    "defect": lambda rep: rep.defect,
    "E": lambda rep: rep.frames.metric.E,
    "F": lambda rep: rep.frames.metric.F,
    "G": lambda rep: rep.frames.metric.G,
    "H_norm": lambda rep: rep.H.euclid_norm(),
    "h_max": lambda rep: np.max([v.euclid_norm() for v in rep.h.components()], axis=0),
    "ellipse_circle": lambda rep: rep.ellipse.is_circle,
    "ellipse_point": lambda rep: rep.ellipse.is_point,
}
# every array field of a SurfaceSample, sample_surface's default selection
SAMPLE_FIELDS = SurfaceSample._fields[4:]
_METRIC = ("E", "F", "G")


def sample_surface(
    imm: Immersion,
    grid: tuple[int, int] = (33, 33),
    domain: DomainRect | None = None,
    *,
    select: tuple[str, ...] = SAMPLE_FIELDS,
) -> SurfaceSample:
    """Evaluate the pointwise curvature pipeline on every grid node.

    select names the SurfaceSample fields to sample, every one by default;
    "|KD|" in place of "KD" fills KD with |KD|, which needs no sign.  A
    field not selected is None and is never formed: without "KD" no sign
    of KD, without "ellipse_circle" and "ellipse_point" no ellipse of
    curvature.  The grid is covered in blocks of whole s-rows, at most
    _BLOCK_NODES nodes each (one row per block when a row alone is
    larger), with one batched point_report call per block.  Blocks are
    consecutive s-rows, so an error names the first offending node in
    s-major order.
    """
    return _sample(imm, grid, domain, select=select)[0]


def _sample(
    imm: Immersion,
    grid: tuple[int, int],
    domain: DomainRect | None,
    extra: tuple | None = None,
    positions: bool = False,
    select: tuple[str, ...] = SAMPLE_FIELDS,
) -> tuple:
    """sample_surface, with the grid's positions and the report at extra nodes.

    Each block is one flat batch of its nodes in s-major order; the nodes
    of extra, an (s, t) pair of arrays, join the last block after its grid
    nodes, so the whole pass makes one point_report call per block.  A
    node's values do not depend on its batch, and an error names the first
    offending grid node before any extra node.  Returns (sample, positions
    as an (nx, ny) PVector when asked, else None, the invariants, frames
    and h at extra in its shape, as a CurvatureReport, else None).
    """
    domain = domain or imm.domain
    nx, ny = grid
    ss, ts = domain.grid(nx, ny)
    # the selected fields by SurfaceSample field, then the positions
    sampled = {"KD" if name == "|KD|" else name: _SAMPLED[name] for name in select}
    out = {name: np.empty(nx * ny, bool if name.startswith("ellipse") else float) for name in sampled}
    if positions:
        sampled["x"] = lambda rep: rep.frames.jets.table[0]
        out["x"] = np.empty((nx * ny, imm.ambient.signature.total_dim))
    taken, done = None, 0
    chunks = np.array_split(ss, min(nx, math.ceil(nx * ny / _BLOCK_NODES)))
    for k, rows in enumerate(chunks, 1):
        s, t = (x.ravel() for x in np.meshgrid(rows, ts, indexing="ij"))
        n = s.size
        last = extra is not None and k == len(chunks)
        if last:
            s, t = (np.concatenate([a, np.ravel(b)]) for a, b in zip((s, t), extra))
        rep = point_report(imm, (s, t))
        # copies, not views: a kept view would keep its whole base array alive
        for name, field_of in sampled.items():
            out[name][done : done + n] = field_of(rep)[:n]
        done += n
        if last:
            taken = rep._take(n + np.arange(np.size(extra[0])).reshape(np.shape(extra[0])))
        # no array of this block may live through the next block's build
        del rep
    out = {name: o.reshape(nx, ny, *o.shape[1:]) for name, o in out.items()}
    x = PVector(out.pop("x"), imm.ambient.signature) if positions else None
    sample = SurfaceSample(imm, domain, nx, ny, *(out.get(name) for name in SAMPLE_FIELDS))
    return sample, x, taken


def _log_field(base: np.ndarray, shift: float, sample: SurfaceSample, label: str) -> np.ndarray:
    arg = base + shift
    if np.any(arg <= 0.0):
        i, j = np.unravel_index(int(np.argmin(arg)), arg.shape)
        ss, ts = sample.domain.grid(sample.nx, sample.ny)
        raise FieldDomainError(
            f"{label} undefined at node ({i},{j}), (s,t)=({ss[i]:.6g},{ts[j]:.6g}): "
            f"argument {arg[i, j]:.6g} <= 0"
        )
    return np.log(arg)


def sample_field(
    imm: Immersion,
    quantity: str,
    grid: tuple[int, int] = (33, 33),
    domain: DomainRect | None = None,
) -> GridField:
    """Sample one curvature quantity (or its shifted logarithm) on a grid."""
    if quantity not in QUANTITIES:
        raise InputMismatchError(
            f"unknown quantity {quantity!r}; choose from {', '.join(QUANTITIES)}"
        )
    base = quantity if quantity not in _LOG_SHIFTS else "K"
    sample = sample_surface(imm, grid, domain, select=(base, *_METRIC))
    if quantity not in _LOG_SHIFTS:
        return sample.grid_field(getattr(sample, quantity).copy(), quantity)
    values = _log_field(sample.K, _LOG_SHIFTS[quantity], sample, quantity)
    return sample.grid_field(values, quantity)


class LaplacianReport(Record):
    """Intrinsic Laplacian of a grid field, with optional identity residual.

    laplacian covers interior nodes only (margin nodes dropped from each
    edge); for identity checks, lhs/rhs/residual hold the two sides and
    their difference on the same interior.
    """

    __slots__ = _fields = (
        "quantity", "domain", "nx", "ny", "margin", "laplacian", "lhs", "rhs", "residual",
        "threshold",
    )
    _defaults = {"lhs": None, "rhs": None, "residual": None, "threshold": 1e-3}

    @property
    def max_abs_laplacian(self) -> float:
        return float(np.max(np.abs(self.laplacian)))

    @property
    def min_laplacian(self) -> float:
        return float(np.min(self.laplacian))

    @property
    def max_abs_residual(self) -> float:
        if self.residual is None:
            return 0.0
        return float(np.max(np.abs(self.residual)))

    @property
    def max_abs_rhs(self) -> float:
        if self.rhs is None:
            return 0.0
        return float(np.max(np.abs(self.rhs)))

    @property
    def relative_residual(self) -> float:
        if self.residual is None:
            return 0.0
        return self.max_abs_residual / max(self.max_abs_rhs, 1e-30)

    @property
    def verdict(self) -> str:
        return harmonicity_verdict(self, self.threshold)


def harmonicity_verdict(report: LaplacianReport, tol: float) -> str:
    """Classify the Laplacian field: log-harmonic, subharmonic, or neither."""
    if report.max_abs_laplacian <= tol:
        return "log-harmonic"
    if report.min_laplacian >= -tol:
        return "subharmonic"
    return "neither"


def intrinsic_laplacian(f: GridField, threshold: float = 1e-3) -> LaplacianReport:
    """Metric Laplacian of a grid field by nested central differences."""
    if f.nx < 5 or f.ny < 5:
        raise InputMismatchError(f"grid {f.nx}x{f.ny} too small; need at least 5x5")
    hs, ht = f.hs, f.ht
    det = f.E * f.G - f.F * f.F
    w = np.sqrt(det)
    g11 = f.G / det
    g12 = -f.F / det
    g22 = f.E / det
    # first derivatives on the inner (margin-1) region
    fs = (f.values[2:, 1:-1] - f.values[:-2, 1:-1]) / (2.0 * hs)
    ft = (f.values[1:-1, 2:] - f.values[1:-1, :-2]) / (2.0 * ht)
    mid = (slice(1, -1), slice(1, -1))
    flux_s = w[mid] * (g11[mid] * fs + g12[mid] * ft)
    flux_t = w[mid] * (g12[mid] * fs + g22[mid] * ft)
    # divergence on the margin-2 interior
    div = (flux_s[2:, 1:-1] - flux_s[:-2, 1:-1]) / (2.0 * hs) + (
        flux_t[1:-1, 2:] - flux_t[1:-1, :-2]
    ) / (2.0 * ht)
    lap = div / w[2:-2, 2:-2]
    return LaplacianReport(
        quantity=f.quantity,
        domain=f.domain,
        nx=f.nx,
        ny=f.ny,
        margin=2,
        laplacian=lap,
        threshold=threshold,
    )


def resolve_identity(which: str) -> str:
    name = IDENTITY_ALIASES.get(which, which)
    if name not in IDENTITIES:
        options = sorted(IDENTITIES) + sorted(IDENTITY_ALIASES)
        raise InputMismatchError(
            f"unknown identity {which!r}; choose from {', '.join(options)}"
        )
    return name


def verify_identity(
    imm: Immersion,
    which: str,
    grid: tuple[int, int] = (65, 65),
    domain: DomainRect | None = None,
    threshold: float = 1e-3,
) -> LaplacianReport:
    """Check lap(ln(K + shift)) = 2(2K - KD) on a minimal equality surface.

    Preconditions (violations raise PreconditionError): the ambient kind
    and curvature match the identity, the surface is minimal and satisfies
    the equality case on the grid, and the logarithm argument is positive.
    KD enters with the equality-achieving sign.
    """
    name = resolve_identity(which)
    kind, c_required, label = IDENTITIES[name]
    if imm.ambient.kind != kind or imm.ambient.curvature != c_required:
        raise PreconditionError(
            f"identity {name!r} needs ambient kind {kind} with curvature "
            f"{c_required:g}; surface {imm.name!r} sits in {imm.ambient.describe()}"
        )
    # kd_equality_signed reads |KD| alone
    sample = sample_surface(imm, grid, domain, select=("K", "|KD|", "H2", "defect", "H_norm", *_METRIC))
    if not sample.minimal:
        raise PreconditionError(
            f"surface {imm.name!r} is not minimal: max |H2| = "
            f"{float(np.max(np.abs(sample.H2))):.3g}, max |H| = "
            f"{float(np.max(sample.H_norm)):.3g}"
        )
    max_defect = float(np.max(sample.defect))
    if max_defect > EQUALITY_TOL:
        raise PreconditionError(
            f"surface {imm.name!r} does not satisfy the equality case: "
            f"max defect = {max_defect:.3g}"
        )
    try:
        values = _log_field(sample.K, _LOG_SHIFTS[label], sample, label)
    except FieldDomainError as exc:
        raise PreconditionError(str(exc)) from exc
    lnf = sample.grid_field(values, label)
    base = intrinsic_laplacian(lnf, threshold)
    kd = sample.kd_equality_signed()
    rhs_full = 2.0 * (2.0 * sample.K - kd)
    rhs = rhs_full[2:-2, 2:-2]
    return LaplacianReport(
        quantity=f"{label} identity ({name})",
        domain=base.domain,
        nx=base.nx,
        ny=base.ny,
        margin=base.margin,
        laplacian=base.laplacian,
        lhs=base.laplacian,
        rhs=rhs,
        residual=base.laplacian - rhs,
        threshold=base.threshold,
    )


# -- serialization -------------------------------------------------------


def grid_to_csv(f: GridField) -> str:
    """CSV with one row per node: s, t, value, E, F, G (round-trip exact).

    Each float's text is repr's: orjson writes the ones with x = +-0.0 or
    1e-4 <= |x| < 1e16, where the two texts agree, and repr the rest.
    """
    return "".join(grid_csv_chunks(f))


def grid_csv_chunks(f: GridField):
    """grid_to_csv's text in pieces: the header, then the lines of one s-row at a time.

    One orjson call formats each column of an s-row; repr rewrites its cells
    outside x = +-0.0 and 1e-4 <= |x| < 1e16, where the texts differ.
    """
    ss, ts = f.node_coords()
    # each s is formatted once per row and each t once per column
    (s_texts,), (t_texts,) = _float_rows(ss[None]), _float_rows(ts[None])
    t_text = [f",{t}," for t in t_texts]
    yield "s,t,value,E,F,G\n"
    for s_text, *cells in zip(s_texts, *map(_float_rows, (f.values, f.E, f.F, f.G))):
        yield "".join([f"{s_text}{t}{value},{E},{F},{G}\n" for t, value, E, F, G in zip(t_text, *cells)])


def _float_rows(a):
    """The repr texts of a 2-D array's entries, one list per row, cast to
    float (an integer or bool array prints as floats).

    orjson writes a row's shortest round-trip digits in one call, and its
    text is repr's for x = +-0.0 and 1e-4 <= |x| < 1e16.  Outside that
    range the texts differ (0.00001 for 1e-05, 1e16 for 1e+16, null for nan
    and inf), so repr rewrites those cells.
    """
    # imported on first use: its own imports cost a fresh interpreter about 10 ms
    import orjson

    # a one-byte mask of the cells repr rewrites; rows are cast one at a
    # time, so the writer makes no float copy of the grid
    odd = ~((np.abs(a) >= 1e-4) & (np.abs(a) < 1e16)) & (a != 0)
    for row, row_odd, any_odd in zip(a, odd, odd.any(axis=1).tolist()):
        row = np.ascontiguousarray(row, dtype=float)
        text = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1]
        texts = text.split(",") if text else []
        if any_odd:
            where = np.flatnonzero(row_odd)
            for i, x in zip(where.tolist(), row[where].tolist()):
                texts[i] = repr(x)
        yield texts


def grid_to_json(f: GridField) -> str:
    return "".join(grid_json_chunks(f))


def grid_json_chunks(f: GridField):
    """grid_to_json's text in the pieces json's indenting encoder yields.

    The payload holds the grids as arrays, and the encoder turns each one
    into nested lists (default) only when it reaches it, so one grid's lists
    are alive at a time; the text is that of the lists' payload.
    """
    # imported on first use, like orjson: only this writer needs it
    import json

    payload = {
        "quantity": f.quantity,
        "domain": list(f.domain.as_tuple()),
        "nx": f.nx,
        "ny": f.ny,
        "values": f.values,
        "E": f.E,
        "F": f.F,
        "G": f.G,
    }
    return json.JSONEncoder(indent=2, sort_keys=True, default=np.ndarray.tolist).iterencode(payload)
