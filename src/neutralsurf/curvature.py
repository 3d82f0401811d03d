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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import Immersion, MetricCoeffs, metric_from_velocities
from .errors import DegeneracyError
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


@dataclass(frozen=True)
class FrameData:
    """Adapted orthonormal frame at a point.

    e1, e2 span the tangent plane (<ei,ej> = delta_ij); e3, e4 span the
    normal plane inside the space form (<e3,e3> = <e4,e4> = -1) and are
    orthogonal to the position vector for a non-flat ambient.  scan records
    which ambient basis vectors seeded the normal pair; flipped records the
    orientation normalization applied to e4.
    """

    e1: PVector
    e2: PVector
    e3: PVector
    e4: PVector
    metric: MetricCoeffs
    scan: tuple[int, int]
    flipped: bool

    @property
    def branch(self) -> tuple:
        return (*self.scan, self.flipped)


@dataclass(frozen=True)
class SecondFF:
    """Normal-valued second fundamental form components in the frame basis."""

    h11: PVector
    h12: PVector
    h22: PVector

    def components(self) -> tuple[PVector, PVector, PVector]:
        return (self.h11, self.h12, self.h22)


@dataclass(frozen=True)
class CanonicalFrame:
    """Parameters of the rotated frame with diagonal A3 and trace-free A4.

    residual is the Frobenius distance to the nearest exact equality-case
    pair (A3 = diag(2*gamma + mu, mu), A4 = offdiag(gamma)); at H = 0 it
    equals sigma1 - sigma2 of the trace-free parts, i.e. the axis gap
    a - b of the ellipse of curvature.  flip records whether e4 was negated
    (both normal orientations are evaluated, since only one of them can
    realize the equality form).
    """

    alpha: float
    gamma: float
    delta: float
    mu: float
    theta: float
    rho: float
    residual: float
    flip: bool = False


@dataclass(frozen=True)
class EllipseInfo:
    """Ellipse of curvature descriptor: {h(v,v) : |v| = 1} in the normal plane.

    Axis lengths use the positive normal metric -<.,.>; the center is H.
    """

    a: float
    b: float
    center: PVector
    is_circle: bool
    is_point: bool


@dataclass(frozen=True)
class CurvatureReport:
    A3: Sym2
    A4: Sym2
    H: PVector
    H2: float
    K: float
    KD: float
    defect: float
    canonical: CanonicalFrame | None = None
    ellipse: EllipseInfo | None = None


@dataclass(frozen=True)
class ConnectionSample:
    """Connection 1-forms evaluated on the tangent frame at a point."""

    w12_e1: float
    w12_e2: float
    w34_e1: float
    w34_e2: float


def ambient_curvature(x: PVector, y: PVector, z: PVector, c: float) -> PVector:
    """Constant-curvature ambient curvature operator c(<X,Z>Y - <Y,Z>X)."""
    return c * (inner(x, z) * y - inner(y, z) * x)


def build_frames(imm: Immersion, p: tuple[float, float]) -> FrameData:
    """Deterministic adapted frame at p.

    e1 follows the s-velocity; e2 completes the tangent pair with the (s,t)
    orientation; the normal pair comes from Gram-Schmidt over the first two
    ambient basis vectors carrying a direction outside the tangent (and
    position) span, in coordinate order, then e4 is sign-normalized so the
    full ambient frame has determinant sign +1.
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
    frame = orthonormalize(base + [vs, vt], chars + [SPACE_LIKE, SPACE_LIKE])
    normals: list[PVector] = []
    scan: list[int] = []
    for i in range(sig.total_dim):
        if len(normals) == 2:
            break
        u = PVector(np.eye(sig.total_dim)[i], sig)
        r = u
        for w in frame + normals:
            r = r - (inner(r, w) / inner(w, w)) * w
        scale = float(np.dot(r.coords, r.coords))
        if scale <= SPAN_RTOL:
            continue  # basis vector lies in the current span
        q = r.self_inner()
        if abs(q) < LIGHTLIKE_RTOL * scale:
            raise DegeneracyError(
                f"degenerate normal plane at (s,t)={p}: light-like remainder"
            )
        if q > 0:
            raise DegeneracyError(
                f"normal plane is not negative definite at (s,t)={p}"
            )
        normals.append(r * (1.0 / math.sqrt(-q)))
        scan.append(i)
    if len(normals) < 2:
        raise DegeneracyError(f"could not complete a normal frame at (s,t)={p}")
    e1, e2 = frame[-2], frame[-1]
    e3, e4 = normals
    rows = [v.coords for v in frame[: len(base)]] + [
        e1.coords,
        e2.coords,
        e3.coords,
        e4.coords,
    ]
    flipped = float(np.linalg.det(np.array(rows))) * _ORIENT_SIGN[imm.ambient.kind] < 0
    if flipped:
        e4 = -e4
    return FrameData(e1, e2, e3, e4, metric, (scan[0], scan[1]), flipped)


def _tangent_coeffs(metric: MetricCoeffs) -> tuple[float, float, float]:
    """Coefficients expressing the frame in coordinate velocities.

    e1 = a * psi_s,  e2 = b * psi_s + c * psi_t.
    """
    a = 1.0 / math.sqrt(metric.E)
    nu = math.sqrt(metric.G - metric.F * metric.F / metric.E)
    b = -metric.F / (metric.E * nu)
    c = 1.0 / nu
    return a, b, c


def _normal_project(w: PVector, frames: FrameData) -> PVector:
    """Projection onto the normal plane span(e3, e4) (time-like unit normals)."""
    return -inner(w, frames.e3) * frames.e3 - inner(w, frames.e4) * frames.e4


def second_fundamental_form(
    imm: Immersion, p: tuple[float, float], frames: FrameData
) -> SecondFF:
    """h(ei, ej): normal projections of the second coordinate derivatives.

    For a non-flat ambient the projection onto span(e3, e4) also removes
    the position-direction (umbilical) term, so h is the second fundamental
    form of the surface inside the space form.
    """
    jp = imm.evaluate(*p)
    hss = _normal_project(jp.accel_ss(), frames)
    hst = _normal_project(jp.accel_st(), frames)
    htt = _normal_project(jp.accel_tt(), frames)
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
    scale = max(1.0, max(v.euclid_norm() for v in h.components()))
    for hij, a3ij, a4ij in (
        (h.h11, a3.a11, a4.a11),
        (h.h12, a3.a12, a4.a12),
        (h.h22, a3.a22, a4.a22),
    ):
        rebuilt = -a3ij * frames.e3 - a4ij * frames.e4
        if (rebuilt - hij).euclid_norm() > _DUALITY_TOL * scale:
            raise DegeneracyError(
                "second fundamental form is not normal-valued; frame is inconsistent"
            )
    return a3, a4


def _commutator_21(a3: Sym2, a4: Sym2) -> float:
    """Entry <[A3, A4] e1, e2> of the commutator."""
    m3, m4 = a3.as_array(), a4.as_array()
    return float((m3 @ m4 - m4 @ m3)[1, 0])


def invariants(a3: Sym2, a4: Sym2, frames: FrameData, c: float) -> CurvatureReport:
    """Scalar invariants from the shape operators.

    K comes from the Gauss equation (K = c - det A3 - det A4 under the
    negative-definite normal metric), KD from the commutator form of the
    Ricci equation, H from the traces.  The defect takes the minimum over
    the e4 -> -e4 flip, so it is orientation-free.
    """
    k = c - a3.det - a4.det
    kd = _commutator_21(a3, a4)
    h = -0.5 * (a3.trace * frames.e3 + a4.trace * frames.e4)
    h2 = -0.25 * (a3.trace ** 2 + a4.trace ** 2)
    defect = k - abs(kd) - h2 - c
    return CurvatureReport(A3=a3, A4=a4, H=h, H2=h2, K=k, KD=kd, defect=defect)


def wintgen_defect_formula(
    alpha: float, gamma: float, delta: float, mu: float, c: float
) -> tuple[float, float, float, float]:
    """Closed-form (K, KD, H2, defect) of a frame with diagonal A3, trace-free A4.

    The identity K + KD - H2 - c = delta^2 + (2*gamma - alpha + mu)^2 / 4 is
    asserted on every call.
    """
    k = -alpha * mu + gamma * gamma + delta * delta + c
    kd = gamma * (mu - alpha)
    h2 = -0.25 * (alpha + mu) ** 2
    defect = delta * delta + 0.25 * (2.0 * gamma - alpha + mu) ** 2
    lhs = k + kd - h2 - c
    assert abs(lhs - defect) <= 1e-12 * max(1.0, abs(lhs), abs(defect))
    return k, kd, h2, defect


def _mix_sym2(a3: Sym2, a4: Sym2, rho: float) -> tuple[Sym2, Sym2]:
    """Shape-operator pair after rotating the normal frame by rho."""
    cr, sr = math.cos(rho), math.sin(rho)
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


def _canonical_at_rho(a3: Sym2, a4: Sym2, rho: float, flip: bool) -> CanonicalFrame:
    mixed3, mixed4 = _mix_sym2(a3, a4, rho)
    if flip:
        mixed4 = Sym2(-mixed4.a11, -mixed4.a12, -mixed4.a22)
    (alpha, mu), theta = eigen_sym2(mixed3)
    rotated4 = rotate_sym2(mixed4, theta)
    delta, gamma = rotated4.a11, rotated4.a12
    residual = math.sqrt(
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
    if math.hypot(a3.trace, a4.trace) > _TRACE_TOL:
        rho = math.atan2(a4.trace, a3.trace)
    else:
        u1, u2 = 0.5 * (a3.a11 - a3.a22), a3.a12
        w1, w2 = 0.5 * (a4.a11 - a4.a22), a4.a12
        rho = 0.5 * math.atan2(
            2.0 * (u1 * w1 + u2 * w2), u1 * u1 + u2 * u2 - w1 * w1 - w2 * w2
        )
    plain = _canonical_at_rho(a3, a4, rho, flip=False)
    flipped = _canonical_at_rho(a3, a4, rho, flip=True)
    return plain if plain.residual <= flipped.residual else flipped


def ellipse_of_curvature(
    h: SecondFF, center: PVector, tol: float = 1e-6, point_tol: float = 1e-8
) -> EllipseInfo:
    """Semi-axes and degeneracy flags of the ellipse of curvature.

    The spanning vectors are u = (h11 - h22)/2 and v = h12; squared lengths
    use -<.,.> since the normal plane is negative definite.  The circle
    test compares |u|^2 with |v|^2 and checks <u,v> = 0, at tolerance tol
    relative to the ellipse scale.
    """
    u = 0.5 * (h.h11 - h.h22)
    v = h.h12
    uu = -inner(u, u)
    vv = -inner(v, v)
    uv = -inner(u, v)
    gram = Sym2(uu, uv, vv)
    (lam1, lam2), _ = eigen_sym2(gram)
    a = math.sqrt(max(lam1, 0.0))
    b = math.sqrt(max(lam2, 0.0))
    is_point = math.sqrt(max(uu + vv, 0.0)) <= point_tol
    scale = max(1.0, uu + vv)
    is_circle = (not is_point) and abs(uu - vv) <= tol * scale and abs(uv) <= tol * scale
    return EllipseInfo(a=a, b=b, center=center, is_circle=is_circle, is_point=is_point)


def point_report(
    imm: Immersion,
    p: tuple[float, float],
    with_canonical: bool = True,
    with_ellipse: bool = True,
) -> CurvatureReport:
    """Full pointwise pipeline: frames, h, shape operators, invariants."""
    frames = build_frames(imm, p)
    h = second_fundamental_form(imm, p, frames)
    a3, a4 = shape_operators(h, frames)
    rep = invariants(a3, a4, frames, imm.ambient.curvature)
    canonical = canonical_equality_frame(a3, a4) if with_canonical else None
    ellipse = ellipse_of_curvature(h, rep.H) if with_ellipse else None
    return CurvatureReport(
        A3=rep.A3,
        A4=rep.A4,
        H=rep.H,
        H2=rep.H2,
        K=rep.K,
        KD=rep.KD,
        defect=rep.defect,
        canonical=canonical,
        ellipse=ellipse,
    )


# -- frame-derivative quantities ----------------------------------------


def equality_frame(imm: Immersion, p: tuple[float, float]) -> FrameData:
    """Frame rotated pointwise into the equality-case shape of the operators.

    The tangent pair is rotated by the angle diagonalizing A_{e3} and e4 is
    oriented so KD <= 0 (the equality-achieving orientation).  On equality
    surfaces this produces the frame field in which the Codazzi consequence
    "normal form = twice the tangent form" can be checked componentwise.
    """
    fr = build_frames(imm, p)
    h = second_fundamental_form(imm, p, fr)
    a3, a4 = shape_operators(h, fr)
    e4 = fr.e4
    extra_flip = False
    if _commutator_21(a3, a4) > 0:
        e4 = -e4
        extra_flip = True
    _, theta = eigen_sym2(a3)
    ct, st = math.cos(theta), math.sin(theta)
    e1 = ct * fr.e1 + st * fr.e2
    e2 = -st * fr.e1 + ct * fr.e2
    return FrameData(e1, e2, fr.e3, e4, fr.metric, fr.scan, fr.flipped ^ extra_flip)


def _aligned_frame(frame_fn, imm: Immersion, q, center: FrameData, p) -> FrameData:
    """Stencil frame with signs matched to the center frame.

    Negating the tangent pair (a rotation by pi) or e4 leaves every frame
    invariant we compute unchanged, so alignment only removes angle
    wrap-arounds of derived frame fields.  A change of Gram-Schmidt scan
    branch cannot be repaired and raises.
    """
    fr = frame_fn(imm, q)
    if fr.scan != center.scan:
        raise DegeneracyError(f"frame branch switch within the stencil at (s,t)={p}")
    e1, e2, e3, e4 = fr.e1, fr.e2, fr.e3, fr.e4
    if inner(e1, center.e1) < 0:
        e1, e2 = -e1, -e2
    if inner(e4, center.e4) > 0:  # time-like pair: aligned means inner < 0
        e4 = -e4
    return FrameData(e1, e2, e3, e4, fr.metric, fr.scan, fr.flipped)


def _frame_on_coordinates(center: FrameData, jp) -> tuple[float, float, float, float]:
    """Coefficients (a1, b1, a2, b2) with e1 = a1 d_s + b1 d_t, e2 = a2 d_s + b2 d_t."""
    vs, vt = jp.velocity_s(), jp.velocity_t()
    gram = np.array(
        [[center.metric.E, center.metric.F], [center.metric.F, center.metric.G]]
    )
    rhs = np.array(
        [
            [inner(center.e1, vs), inner(center.e1, vt)],
            [inner(center.e2, vs), inner(center.e2, vt)],
        ]
    )
    coeff = np.linalg.solve(gram, rhs.T).T
    return coeff[0, 0], coeff[0, 1], coeff[1, 0], coeff[1, 1]


def _coordinate_form_components(
    imm: Immersion, p: tuple[float, float], step: float, frame_fn
) -> tuple[float, float, float, float, FrameData]:
    """Connection forms on the coordinate directions at p.

    Returns (w12(d_s), w12(d_t), w34(d_s), w34(d_t), center frame), using
    central differences of the frame field given by frame_fn.  All five
    stencil frames must come from the same Gram-Schmidt branch.
    """
    s, t = p
    center = frame_fn(imm, p)
    fp_s = _aligned_frame(frame_fn, imm, (s + step, t), center, p)
    fm_s = _aligned_frame(frame_fn, imm, (s - step, t), center, p)
    fp_t = _aligned_frame(frame_fn, imm, (s, t + step), center, p)
    fm_t = _aligned_frame(frame_fn, imm, (s, t - step), center, p)
    inv2h = 1.0 / (2.0 * step)
    de1_s = inv2h * (fp_s.e1 - fm_s.e1)
    de1_t = inv2h * (fp_t.e1 - fm_t.e1)
    de3_s = inv2h * (fp_s.e3 - fm_s.e3)
    de3_t = inv2h * (fp_t.e3 - fm_t.e3)
    w12_s = inner(de1_s, center.e2)
    w12_t = inner(de1_t, center.e2)
    w34_s = -inner(de3_s, center.e4)
    w34_t = -inner(de3_t, center.e4)
    return w12_s, w12_t, w34_s, w34_t, center


def connection_forms(
    imm: Immersion,
    p: tuple[float, float],
    step: float = 1e-3,
    frame_fn=build_frames,
) -> ConnectionSample:
    """Connection forms of the tangent and normal bundles on (e1, e2).

    Defined by nabla_X e1 = w12(X) e2 and D_X e3 = w34(X) e4; with the
    time-like normals this evaluates as w34(X) = -<D_X e3, e4>.  frame_fn
    selects the frame field (the default deterministic frame, or
    equality_frame for equality-adapted checks).
    """
    w12_s, w12_t, w34_s, w34_t, center = _coordinate_form_components(
        imm, p, step, frame_fn
    )
    a1, b1, a2, b2 = _frame_on_coordinates(center, imm.evaluate(*p))
    return ConnectionSample(
        w12_e1=a1 * w12_s + b1 * w12_t,
        w12_e2=a2 * w12_s + b2 * w12_t,
        w34_e1=a1 * w34_s + b1 * w34_t,
        w34_e2=a2 * w34_s + b2 * w34_t,
    )


def structure_equation_check(
    imm: Immersion, p: tuple[float, float], step: float = 1e-3
) -> tuple[float, float]:
    """Curvatures recovered from the structure equations.

    Estimates the exterior derivatives of the connection forms by nested
    central differences and returns (-d w12 / area form, -d w34 / area
    form), which must reproduce K and KD.
    """
    s, t = p
    center = build_frames(imm, p)

    def forms_at(q):
        w12_s, w12_t, w34_s, w34_t, fr = _coordinate_form_components(
            imm, q, step, build_frames
        )
        if fr.branch != center.branch:
            raise DegeneracyError(
                f"frame branch switch within the stencil at (s,t)={p}"
            )
        return w12_s, w12_t, w34_s, w34_t

    plus_s = forms_at((s + step, t))
    minus_s = forms_at((s - step, t))
    plus_t = forms_at((s, t + step))
    minus_t = forms_at((s, t - step))
    inv2h = 1.0 / (2.0 * step)
    # d(P ds + Q dt) = (dQ/ds - dP/dt) ds^dt, evaluated for both forms
    d_w12 = inv2h * (plus_s[1] - minus_s[1]) - inv2h * (plus_t[0] - minus_t[0])
    d_w34 = inv2h * (plus_s[3] - minus_s[3]) - inv2h * (plus_t[2] - minus_t[2])
    area = math.sqrt(center.metric.det)
    return -d_w12 / area, -d_w34 / area


def codazzi_residual(
    imm: Immersion,
    p: tuple[float, float],
    step: float = 1e-3,
    h12_scale: float = 1.0,
) -> float:
    """Finite-difference residual of the Codazzi symmetry of the covariant
    derivative of h.

    Compares (nabla-bar_{e1} h)(e2, .) against (nabla-bar_{e2} h)(e1, .) on
    both tangent slots and returns the larger coordinate norm; O(step^2)
    for a genuine immersion.  h12_scale deliberately corrupts the h12 field
    for fault-injection tests.
    """
    s, t = p
    center = build_frames(imm, p)

    def h_at(q):
        fr = build_frames(imm, q)
        if fr.branch != center.branch:
            raise DegeneracyError(
                f"frame branch switch within the stencil at (s,t)={p}"
            )
        h = second_fundamental_form(imm, q, fr)
        return SecondFF(h.h11, h12_scale * h.h12, h.h22)

    h0 = h_at(p)
    hp_s = h_at((s + step, t))
    hm_s = h_at((s - step, t))
    hp_t = h_at((s, t + step))
    hm_t = h_at((s, t - step))
    inv2h = 1.0 / (2.0 * step)

    def derivative(plus: SecondFF, minus: SecondFF):
        return tuple(
            _normal_project(inv2h * (pc - mc), center)
            for pc, mc in zip(plus.components(), minus.components())
        )

    dh_s = derivative(hp_s, hm_s)  # (D_s h11, D_s h12, D_s h22)
    dh_t = derivative(hp_t, hm_t)
    a, b, c = _tangent_coeffs(center.metric)
    d_e1 = tuple(a * v for v in dh_s)
    d_e2 = tuple(b * vs + c * vt for vs, vt in zip(dh_s, dh_t))
    w = connection_forms(imm, p, step)
    # (nabla-bar_{e1} h)(e2, e1) - (nabla-bar_{e2} h)(e1, e1)
    r1 = (
        d_e1[1]
        + w.w12_e1 * h0.h11
        - w.w12_e1 * h0.h22
        - d_e2[0]
        + 2.0 * w.w12_e2 * h0.h12
    )
    # (nabla-bar_{e1} h)(e2, e2) - (nabla-bar_{e2} h)(e1, e2)
    r2 = (
        d_e1[2]
        + 2.0 * w.w12_e1 * h0.h12
        - d_e2[1]
        + w.w12_e2 * h0.h22
        - w.w12_e2 * h0.h11
    )
    return max(r1.euclid_norm(), r2.euclid_norm())
