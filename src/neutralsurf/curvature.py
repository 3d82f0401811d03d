"""Pointwise extrinsic invariants of space-like surfaces in neutral 4-space forms.

The pipeline at a point is: adapted orthonormal frame (space-like tangent
pair, time-like normal pair), second fundamental form by normal projection
of the jet second derivatives, shape operators, then the scalar invariants
K, KD, H, <H,H> and the inequality defect

    defect = K - |KD| - <H,H> - c  (minimum over the normal-orientation flip),

which is nonnegative for every space-like surface and zero exactly on the
equality cases.  Frame-derivative quantities (connection forms, structure
equations, Codazzi residual) are estimated by central differences of the
deterministic frame field.

Every stage takes a point or a batch of nodes alike: p = (s, t) may hold
floats or arrays, and each field then holds one value per node.  The
finite-difference checks evaluate the stencils of all their points in one
batched call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Immersion, JetPoint, MetricCoeffs, metric_from_velocities
from .errors import DegeneracyError, first_flagged
from .pseudo_linalg import (
    SPACE_LIKE,
    TIME_LIKE,
    LIGHTLIKE_RTOL,
    SPAN_RTOL,
    PVector,
    Sym2,
    eigen_sym2,
    inner,
    orthonormalize,
    rotate_sym2,
)
from .records import Record

# Normal frames are completed from the ambient basis by a deterministic scan
# and then e4 is oriented so the full ambient frame determinant has a fixed
# sign per ambient kind.  Keeps the normal-curvature sign reproducible and
# smooth, and makes the built-in equality surfaces report KD in their
# equality-achieving orientation (KD = -2/3 on the hyperbolic-plane
# immersion, KD = -K on holomorphic graphs).
_ORIENT_SIGN = {"flat": 1.0, "pseudo_sphere": -1.0, "pseudo_hyperbolic": -1.0}

_DUALITY_TOL = 1e-8

# Below this norm of (tr A3, tr A4) the mean curvature is treated as zero.
_TRACE_TOL = 1e-9

# Ellipse of curvature: relative tolerance of the circle test, and the
# size below which the ellipse is a point.
_CIRCLE_TOL = 1e-6
_POINT_TOL = 1e-8

# Finite-difference stencils as offsets in units of the step.  The 5-point
# stencil is (center, +s, -s, +t, -t); the structure equations nest it: the
# 5-point stencils around the four neighbours, as indices (stencil, neighbour)
# into their 13 distinct nodes.
_STENCIL = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
_NESTED_NODES = sorted({(i + k, j + l) for i, j in _STENCIL for k, l in _STENCIL[1:]})
_NESTED = np.array(
    [[_NESTED_NODES.index((i + k, j + l)) for k, l in _STENCIL[1:]] for i, j in _STENCIL]
)
_NESTED_CENTER = _NESTED_NODES.index((0, 0))


@dataclass(frozen=True)
class FrameData:
    """Adapted orthonormal frame at a point, or one per node of a batch.

    e1, e2 span the tangent plane (<ei,ej> = delta_ij); e3, e4 span the
    normal plane inside the space form (<e3,e3> = <e4,e4> = -1) and are
    orthogonal to the position vector for a non-flat ambient.  scan records
    which ambient basis vectors seeded the normal pair (shape (..., 2));
    flipped records the orientation normalization applied to e4.  jets are
    the jets the frame was built from, so later stages do not evaluate the
    immersion again.
    """

    e1: PVector
    e2: PVector
    e3: PVector
    e4: PVector
    metric: MetricCoeffs
    scan: tuple | np.ndarray
    flipped: bool | np.ndarray
    jets: JetPoint | None = None


class SecondFF(Record):
    """Normal-valued second fundamental form components in the frame basis."""

    __slots__ = _fields = ("h11", "h12", "h22")

    def __init__(self, h11: PVector, h12: PVector, h22: PVector):
        self.h11 = h11
        self.h12 = h12
        self.h22 = h22

    def components(self) -> tuple[PVector, PVector, PVector]:
        return (self.h11, self.h12, self.h22)


class CanonicalFrame(Record):
    """Parameters of the rotated frame with diagonal A3 and trace-free A4.

    residual is the Frobenius distance to the nearest exact equality-case
    pair (A3 = diag(2*gamma + mu, mu), A4 = offdiag(gamma)); at H = 0 it
    equals sigma1 - sigma2 of the trace-free parts, i.e. the axis gap
    a - b of the ellipse of curvature.  flip records whether e4 was negated
    (both normal orientations are evaluated, since only one of them can
    realize the equality form).
    """

    __slots__ = _fields = ("alpha", "gamma", "delta", "mu", "theta", "rho", "residual", "flip")

    def __init__(
        self,
        alpha: float,
        gamma: float,
        delta: float,
        mu: float,
        theta: float,
        rho: float,
        residual: float,
        flip: bool = False,
    ):
        self.alpha = alpha
        self.gamma = gamma
        self.delta = delta
        self.mu = mu
        self.theta = theta
        self.rho = rho
        self.residual = residual
        self.flip = flip


class EllipseInfo(Record):
    """Ellipse of curvature descriptor: {h(v,v) : |v| = 1} in the normal plane.

    Axis lengths use the positive normal metric -<.,.>; the center is H.
    """

    __slots__ = _fields = ("a", "b", "center", "is_circle", "is_point")

    def __init__(self, a: float, b: float, center: PVector, is_circle: bool, is_point: bool):
        self.a = a
        self.b = b
        self.center = center
        self.is_circle = is_circle
        self.is_point = is_point


class CurvatureReport(Record):
    """Invariants at a point or per node; point_report also keeps the frames and h."""

    __slots__ = _fields = (
        "A3", "A4", "H", "H2", "K", "KD", "defect", "canonical", "ellipse", "frames", "h",
    )

    def __init__(
        self,
        A3: Sym2,
        A4: Sym2,
        H: PVector,
        H2: float,
        K: float,
        KD: float,
        defect: float,
        canonical: CanonicalFrame | None = None,
        ellipse: EllipseInfo | None = None,
        frames: FrameData | None = None,
        h: SecondFF | None = None,
    ):
        self.A3 = A3
        self.A4 = A4
        self.H = H
        self.H2 = H2
        self.K = K
        self.KD = KD
        self.defect = defect
        self.canonical = canonical
        self.ellipse = ellipse
        self.frames = frames
        self.h = h


@dataclass(frozen=True)
class ConnectionSample:
    """Connection 1-forms evaluated on the tangent frame at a point."""

    w12_e1: float
    w12_e2: float
    w34_e1: float
    w34_e2: float


def build_frames(imm: Immersion, p: tuple) -> FrameData:
    """Deterministic adapted frame at p, a node (s, t) or a batch of nodes.

    e1 follows the s-velocity; e2 completes the tangent pair with the (s,t)
    orientation; the normal pair comes from Gram-Schmidt over the first two
    ambient basis vectors carrying a direction outside the tangent (and
    position) span, in coordinate order, then e4 is sign-normalized so the
    full ambient frame has determinant sign +1.  Over a batch every node
    runs its own scan, with masks, and the scan stops once every node has
    its pair; errors, from Gram-Schmidt too, name the first offending node.
    """
    jp = imm.evaluate(*p)
    sig = imm.ambient.signature
    vs, vt = jp.velocity_s(), jp.velocity_t()
    metric = metric_from_velocities(imm, p, vs, vt)
    base: list[PVector] = []
    chars: list[str] = []
    if not imm.ambient.is_flat:
        base.append(jp.position())
        chars.append(TIME_LIKE if imm.ambient.curvature < 0 else SPACE_LIKE)
    try:
        frame = orthonormalize(base + [vs, vt], chars + [SPACE_LIKE, SPACE_LIKE])
    except DegeneracyError as exc:
        raise DegeneracyError(f"{exc} at (s,t)={first_flagged(exc.nodes, *p)}") from exc
    # the ambient basis vectors (leading axis) with the frame projected off
    dim = sig.total_dim
    rest = PVector(np.eye(dim).reshape((dim,) + (1,) * len(jp.shape) + (dim,)), sig)
    for w in frame:
        rest = rest - (inner(rest, w) / inner(w, w)) * w
    # normals not found yet are zero, found ones have <n,n> = -1, so adding
    # <r,n> n projects r off the normals a node already has
    normals = [PVector(np.zeros(jp.shape + (dim,)), sig) for _ in range(2)]
    found = np.zeros(jp.shape, dtype=int)
    scan = np.zeros(jp.shape + (2,), dtype=int)
    for i in range(dim):
        r = rest[i]
        for n in normals:
            r = r + inner(r, n) * n
        scale = np.sum(r.coords * r.coords, axis=-1)
        q = r.self_inner()
        # basis vectors in the current span are skipped
        take = (found < 2) & (scale > SPAN_RTOL)
        light = take & (np.abs(q) < LIGHTLIKE_RTOL * scale)
        if np.any(light):
            raise DegeneracyError(
                f"degenerate normal plane at (s,t)={first_flagged(light, *p)}: "
                "light-like remainder"
            )
        spacelike = take & (q > 0)
        if np.any(spacelike):
            raise DegeneracyError(
                f"normal plane is not negative definite at (s,t)={first_flagged(spacelike, *p)}"
            )
        unit = r * (1.0 / np.sqrt(np.where(take, -q, 1.0)))
        for k in range(2):
            now = take & (found == k)
            normals[k] = PVector(np.where(now[..., None], unit.coords, normals[k].coords), sig)
            scan[..., k] = np.where(now, i, scan[..., k])
        found = found + take
        if np.all(found == 2):
            break
    if np.any(found < 2):
        raise DegeneracyError(
            f"could not complete a normal frame at (s,t)={first_flagged(found < 2, *p)}"
        )
    e1, e2 = frame[-2], frame[-1]
    e3, e4 = normals
    rows = np.stack([v.coords for v in frame[: len(base)] + [e1, e2, e3, e4]], axis=-2)
    flipped = np.linalg.det(rows) * _ORIENT_SIGN[imm.ambient.kind] < 0
    e4 = np.where(flipped, -1.0, 1.0) * e4
    return FrameData(e1, e2, e3, e4, metric, scan, flipped, jp)


def _tangent_coeffs(metric: MetricCoeffs) -> tuple:
    """Coefficients expressing the frame in coordinate velocities.

    e1 = a * psi_s,  e2 = b * psi_s + c * psi_t.
    """
    a = 1.0 / np.sqrt(metric.E)
    nu = np.sqrt(metric.G - metric.F * metric.F / metric.E)
    b = -metric.F / (metric.E * nu)
    c = 1.0 / nu
    return a, b, c


def _normal_project(w: PVector, e3: PVector, e4: PVector) -> PVector:
    """Projection onto the normal plane span(e3, e4) (time-like unit normals)."""
    return -inner(w, e3) * e3 - inner(w, e4) * e4


def second_fundamental_form(imm: Immersion, p: tuple, frames: FrameData) -> SecondFF:
    """h(ei, ej): normal projections of the second coordinate derivatives.

    The jets are the ones frames was built from at p.  For a non-flat
    ambient the projection onto span(e3, e4) also removes the
    position-direction (umbilical) term, so h is the second fundamental
    form of the surface inside the space form.
    """
    jp = frames.jets
    hss = _normal_project(jp.accel_ss(), frames.e3, frames.e4)
    hst = _normal_project(jp.accel_st(), frames.e3, frames.e4)
    htt = _normal_project(jp.accel_tt(), frames.e3, frames.e4)
    a, b, c = _tangent_coeffs(frames.metric)
    h11 = (a * a) * hss
    h12 = a * (b * hss + c * hst)
    h22 = (b * b) * hss + (2.0 * b * c) * hst + (c * c) * htt
    return SecondFF(h11, h12, h22)


def shape_operators(h: SecondFF, frames: FrameData) -> tuple[Sym2, Sym2]:
    """A3, A4 with <h(ei,ej), er> = <A_er ei, ej>, verified by reconstruction."""
    a3 = Sym2(
        inner(h.h11, frames.e3), inner(h.h12, frames.e3), inner(h.h22, frames.e3)
    )
    a4 = Sym2(
        inner(h.h11, frames.e4), inner(h.h12, frames.e4), inner(h.h22, frames.e4)
    )
    # duality check: h must be recovered from the operators and the normal frame
    scale = np.maximum(1.0, np.max([v.euclid_norm() for v in h.components()], axis=0))
    for hij, a3ij, a4ij in (
        (h.h11, a3.a11, a4.a11),
        (h.h12, a3.a12, a4.a12),
        (h.h22, a3.a22, a4.a22),
    ):
        rebuilt = -a3ij * frames.e3 - a4ij * frames.e4
        if np.any((rebuilt - hij).euclid_norm() > _DUALITY_TOL * scale):
            raise DegeneracyError(
                "second fundamental form is not normal-valued; frame is inconsistent"
            )
    return a3, a4


def invariants(a3: Sym2, a4: Sym2, frames: FrameData, c: float) -> CurvatureReport:
    """Scalar invariants from the shape operators.

    K comes from the Gauss equation (K = c - det A3 - det A4 under the
    negative-definite normal metric), KD from the commutator form of the
    Ricci equation, H from the traces.  The defect takes the minimum over
    the e4 -> -e4 flip, so it is orientation-free.
    """
    k = c - a3.det - a4.det
    # KD = <[A3, A4] e1, e2>
    kd = (a3.a12 * a4.a11 + a3.a22 * a4.a12) - (a4.a12 * a3.a11 + a4.a22 * a3.a12)
    h = -0.5 * (a3.trace * frames.e3 + a4.trace * frames.e4)
    h2 = -0.25 * (a3.trace ** 2 + a4.trace ** 2)
    defect = k - abs(kd) - h2 - c
    return CurvatureReport(A3=a3, A4=a4, H=h, H2=h2, K=k, KD=kd, defect=defect)


def _mix_sym2(a3: Sym2, a4: Sym2, rho) -> tuple[Sym2, Sym2]:
    """Shape-operator pair after rotating the normal frame by rho."""
    cr, sr = np.cos(rho), np.sin(rho)
    mixed3 = Sym2(
        cr * a3.a11 + sr * a4.a11,
        cr * a3.a12 + sr * a4.a12,
        cr * a3.a22 + sr * a4.a22,
    )
    mixed4 = Sym2(
        -sr * a3.a11 + cr * a4.a11,
        -sr * a3.a12 + cr * a4.a12,
        -sr * a3.a22 + cr * a4.a22,
    )
    return mixed3, mixed4


def _canonical_at_rho(a3: Sym2, a4: Sym2, rho, flip: bool) -> CanonicalFrame:
    mixed3, mixed4 = _mix_sym2(a3, a4, rho)
    if flip:
        mixed4 = Sym2(-mixed4.a11, -mixed4.a12, -mixed4.a22)
    (alpha, mu), theta = eigen_sym2(mixed3)
    rotated4 = rotate_sym2(mixed4, theta)
    delta, gamma = rotated4.a11, rotated4.a12
    residual = np.sqrt(
        0.25 * (2.0 * gamma + mu - alpha) ** 2 + 2.0 * delta * delta
    )
    return CanonicalFrame(alpha, gamma, delta, mu, theta, rho, residual, flip)


def canonical_equality_frame(a3: Sym2, a4: Sym2) -> CanonicalFrame:
    """Frame rotations bringing the pair to diagonal A3 / trace-free A4 form.

    The normal angle rho is closed-form.  A nonzero mean curvature fixes it:
    e3 aligns with the H direction.  With H = 0 every normal angle keeps
    both operators trace-free; write the trace-free parts as the rows
    u = ((a11 - a22)/2, a12) of A3 and w of A4.  Aligning e3 with the top
    left singular vector of [u; w],

        rho = atan2(2 u.w, |u|^2 - |w|^2) / 2,

    makes the rotated rows orthogonal with lengths sigma1 >= sigma2, so
    the equality residual is sigma1 - sigma2.  These are the semi-axes
    a, b of the ellipse of curvature: equality is the circle condition.
    Both e4 orientations are evaluated at that rho and the unflipped one
    wins ties.
    """
    u1, u2 = 0.5 * (a3.a11 - a3.a22), a3.a12
    w1, w2 = 0.5 * (a4.a11 - a4.a22), a4.a12
    rho = np.where(
        np.hypot(a3.trace, a4.trace) > _TRACE_TOL,
        np.arctan2(a4.trace, a3.trace),
        0.5 * np.arctan2(2.0 * (u1 * w1 + u2 * w2), u1 * u1 + u2 * u2 - w1 * w1 - w2 * w2),
    )[()]
    plain = _canonical_at_rho(a3, a4, rho, flip=False)
    flipped = _canonical_at_rho(a3, a4, rho, flip=True)
    keep = plain.residual <= flipped.residual
    fields = CanonicalFrame._fields
    return CanonicalFrame(
        *(np.where(keep, getattr(plain, f), getattr(flipped, f))[()] for f in fields)
    )


def ellipse_of_curvature(h: SecondFF, center: PVector) -> EllipseInfo:
    """Semi-axes and degeneracy flags of the ellipse of curvature.

    The spanning vectors are u = (h11 - h22)/2 and v = h12; squared lengths
    use -<.,.> since the normal plane is negative definite.  The circle
    test compares |u|^2 with |v|^2 and checks <u,v> = 0, at _CIRCLE_TOL
    relative to the ellipse scale; the ellipse is a point when
    sqrt(|u|^2 + |v|^2) <= _POINT_TOL.
    """
    u = 0.5 * (h.h11 - h.h22)
    v = h.h12
    uu = -inner(u, u)
    vv = -inner(v, v)
    uv = -inner(u, v)
    gram = Sym2(uu, uv, vv)
    (lam1, lam2), _ = eigen_sym2(gram)
    a = np.sqrt(np.maximum(lam1, 0.0))
    b = np.sqrt(np.maximum(lam2, 0.0))
    is_point = np.sqrt(np.maximum(uu + vv, 0.0)) <= _POINT_TOL
    tol = _CIRCLE_TOL * np.maximum(1.0, uu + vv)
    is_circle = ~is_point & (np.abs(uu - vv) <= tol) & (np.abs(uv) <= tol)
    return EllipseInfo(a=a, b=b, center=center, is_circle=is_circle, is_point=is_point)


def point_report(
    imm: Immersion,
    p: tuple,
    with_canonical: bool = True,
    with_ellipse: bool = True,
) -> CurvatureReport:
    """Full pointwise pipeline at a node or a batch: frames, h, shape operators, invariants."""
    frames = build_frames(imm, p)
    h = second_fundamental_form(imm, p, frames)
    a3, a4 = shape_operators(h, frames)
    rep = invariants(a3, a4, frames, imm.ambient.curvature)
    return CurvatureReport(
        rep.A3,
        rep.A4,
        rep.H,
        rep.H2,
        rep.K,
        rep.KD,
        rep.defect,
        canonical=canonical_equality_frame(a3, a4) if with_canonical else None,
        ellipse=ellipse_of_curvature(h, rep.H) if with_ellipse else None,
        frames=frames,
        h=h,
    )


# -- frame-derivative quantities ----------------------------------------


def _stencil_nodes(p: tuple, step: float, offsets: list) -> tuple:
    """(s, t) arrays of the nodes p + step * offset, shape (offsets,) + batch shape."""
    di, dj = np.transpose(offsets)
    s, t = np.broadcast_arrays(*p)
    return np.add.outer(step * di, s), np.add.outer(step * dj, t)


def _require_one_branch(same, p: tuple) -> None:
    """A scan branch change within a stencil cannot be repaired; same holds per point of p."""
    if not np.all(same):
        raise DegeneracyError(
            f"frame branch switch within the stencil at (s,t)={first_flagged(~same, *p)}"
        )


def _central(v: PVector, step: float, plus: int, minus: int) -> PVector:
    """Central difference between two stencil nodes (stencil axis first)."""
    return (1.0 / (2.0 * step)) * (v[plus] - v[minus])


def _tangent_forms(e1: PVector, e2: PVector, step: float) -> tuple:
    """w12 on the coordinate directions (d_s, d_t) at 5-point stencil centers.

    The frame vectors carry the stencil axis first (center, +s, -s, +t,
    -t); the forms are central differences.  Negating the tangent pair (a
    rotation by pi) leaves every frame invariant we compute unchanged, so
    e1 is first sign-matched to the center; this only removes angle
    wrap-arounds of derived frame fields.
    """
    e1 = np.where(inner(e1, e1[0]) < 0, -1.0, 1.0) * e1
    return inner(_central(e1, step, 1, 2), e2[0]), inner(_central(e1, step, 3, 4), e2[0])


def _normal_forms(e3: PVector, e4: PVector, step: float) -> tuple:
    """w34 on (d_s, d_t) at 5-point stencil centers, as in _tangent_forms."""
    return -inner(_central(e3, step, 1, 2), e4[0]), -inner(_central(e3, step, 3, 4), e4[0])


def _on_frame(fr: FrameData, w_s, w_t) -> tuple:
    """(w(e1), w(e2)) of the coordinate form (w(d_s), w(d_t)) at the stencil center."""
    vs, vt = fr.jets.velocity_s()[0], fr.jets.velocity_t()[0]
    E, F, G = fr.metric.E[0], fr.metric.F[0], fr.metric.G[0]
    det = E * G - F * F

    def on_coordinates(e: PVector) -> tuple:
        """(a, b) with e = a d_s + b d_t, from the Gram system of the velocities."""
        x, y = inner(e, vs), inner(e, vt)
        return (G * x - F * y) / det, (E * y - F * x) / det

    a1, b1 = on_coordinates(fr.e1[0])
    a2, b2 = on_coordinates(fr.e2[0])
    return a1 * w_s + b1 * w_t, a2 * w_s + b2 * w_t


def connection_forms(imm: Immersion, p: tuple, step: float = 1e-3) -> ConnectionSample:
    """Connection forms of the tangent and normal bundles on (e1, e2).

    Defined by nabla_X e1 = w12(X) e2 and D_X e3 = w34(X) e4; with the
    time-like normals this evaluates as w34(X) = -<D_X e3, e4>, in the
    frame field build_frames gives.  p is a point or a batch of points;
    one batched call builds the five stencil frames of every point, and
    each stencil must share one Gram-Schmidt branch.
    """
    fr = build_frames(imm, _stencil_nodes(p, step, _STENCIL))
    _require_one_branch(np.all(fr.scan == fr.scan[0], axis=(0, -1)), p)
    w12 = _on_frame(fr, *_tangent_forms(fr.e1, fr.e2, step))
    w34 = _on_frame(fr, *_normal_forms(fr.e3, fr.e4, step))
    return ConnectionSample(*w12, *w34)


def structure_equation_check(
    imm: Immersion, p: tuple, step: float = 1e-3
) -> tuple[float, float]:
    """Curvatures recovered from the structure equations.

    Estimates the exterior derivatives of the connection forms by nested
    central differences and returns (-d w12 / area form, -d w34 / area
    form) at each point of p, which must reproduce K and KD.  One batched
    call builds the frames of the 13 distinct nested-stencil nodes of every point.
    """
    fr = build_frames(imm, _stencil_nodes(p, step, _NESTED_NODES))
    c = _NESTED_CENTER
    same_scan = np.all(fr.scan == fr.scan[c], axis=(0, -1))
    _require_one_branch(same_scan & np.all(fr.flipped[_NESTED[0]] == fr.flipped[c], axis=0), p)
    # forms at the neighbours (+s, -s, +t, -t) of p
    e1, e2, e3, e4 = (v[_NESTED] for v in (fr.e1, fr.e2, fr.e3, fr.e4))
    w12_s, w12_t = _tangent_forms(e1, e2, step)
    w34_s, w34_t = _normal_forms(e3, e4, step)
    inv2h = 1.0 / (2.0 * step)
    # d(P ds + Q dt) = (dQ/ds - dP/dt) ds^dt, evaluated for both forms
    d_w12 = inv2h * (w12_t[0] - w12_t[1]) - inv2h * (w12_s[2] - w12_s[3])
    d_w34 = inv2h * (w34_t[0] - w34_t[1]) - inv2h * (w34_s[2] - w34_s[3])
    area = np.sqrt(fr.metric.det[c])
    return -d_w12 / area, -d_w34 / area


def codazzi_residual(imm: Immersion, p: tuple, step: float = 1e-3) -> float:
    """Finite-difference residual of the Codazzi symmetry of the covariant
    derivative of h.

    Compares (nabla-bar_{e1} h)(e2, .) against (nabla-bar_{e2} h)(e1, .) on
    both tangent slots and returns the larger coordinate norm per point of
    p; O(step^2) for a genuine immersion.  One batched call builds the five
    stencil frames of every point for h and w12.  h, D h and w12 do not
    depend on the normal basis, so the stencil needs no common scan branch.
    """
    nodes = _stencil_nodes(p, step, _STENCIL)
    fr = build_frames(imm, nodes)
    h = second_fundamental_form(imm, nodes, fr)
    e3, e4 = fr.e3[0], fr.e4[0]

    def derivative(plus: int, minus: int) -> tuple:
        return tuple(_normal_project(_central(v, step, plus, minus), e3, e4) for v in h.components())

    dh_s = derivative(1, 2)  # (D_s h11, D_s h12, D_s h22)
    dh_t = derivative(3, 4)
    a, b, c = (x[0] for x in _tangent_coeffs(fr.metric))
    d_e1 = tuple(a * v for v in dh_s)
    d_e2 = tuple(b * vs + c * vt for vs, vt in zip(dh_s, dh_t))
    w12_e1, w12_e2 = _on_frame(fr, *_tangent_forms(fr.e1, fr.e2, step))
    h11, h12, h22 = (v[0] for v in h.components())
    # (nabla-bar_{e1} h)(e2, e1) - (nabla-bar_{e2} h)(e1, e1)
    r1 = d_e1[1] + w12_e1 * h11 - w12_e1 * h22 - d_e2[0] + 2.0 * w12_e2 * h12
    # (nabla-bar_{e1} h)(e2, e2) - (nabla-bar_{e2} h)(e1, e2)
    r2 = d_e1[2] + 2.0 * w12_e1 * h12 - d_e2[1] + w12_e2 * h22 - w12_e2 * h11
    return np.maximum(r1.euclid_norm(), r2.euclid_norm())
