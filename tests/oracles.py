"""Oracles and helpers used only by the tests.

Most recompute a quantity the engine produces by a different route
(sampling, finite differences, explicit matrix products, the closed-form
Wintgen identity), so a test that compares the two does not check the
engine against its own code.  equality_frame is the exception: it reuses
the engine's stages to build the equality-adapted frame field that
connection_forms is checked in.  The *_per_component functions and
canonical_two_candidates are the same formulas as the engine's, written
one PVector (or one normal orientation) at a time: the engine computes
them on stacked coordinate arrays and must give the same bytes on a
batch.  eval_tree walks an expression tree node by node, the route the
compiled jet program (expr.compile_jets) must agree with bit for bit, and
catalog_reference gives each catalog surface the Jet2 evaluator that its
field-by-field table must equal bit for bit at a batch.
"""

from __future__ import annotations

import json
import math

import numpy as np

from neutralsurf import catalog, curvature
from neutralsurf.ambient import AmbientSpace, DomainRect
from neutralsurf.catalog import Immersion, JetPoint, MetricCoeffs, metric_from_velocities
from neutralsurf.curvature import CanonicalFrame, ConnectionSample, FrameData, SecondFF
from neutralsurf.errors import InputMismatchError, SingularityError
from neutralsurf.expr import _BIN_PREC, _UNARY_PREC, BinOp, Call, Expr, Neg, Num, SurfaceDefinition, Var
from neutralsurf.fields import GridField, verify_identity
from neutralsurf.jets import FUNCTIONS, Jet2, jcosh, jexp, jpow, jsinh, pack, seed
from neutralsurf.pseudo_linalg import (
    LIGHTLIKE_RTOL,
    SPACE_LIKE,
    SPAN_RTOL,
    TIME_LIKE,
    PVector,
    Sym2,
    eigen_sym2,
    inner,
    orthonormalize,
    rotate_sym2,
)

LIGHT_LIKE = "light-like"

# the engine's frame builder, kept before a test can monkeypatch
# curvature.build_frames with equality_frame
_build_frames = curvature.build_frames


def finite_difference_jet(f, s: float, t: float, h: float = 1e-4) -> Jet2:
    """Independent second-order central-difference estimate of a scalar map's jet.

    Used as an oracle against the AD path; 9 evaluations of f.
    """
    f00 = f(s, t)
    fp0 = f(s + h, t)
    fm0 = f(s - h, t)
    f0p = f(s, t + h)
    f0m = f(s, t - h)
    fpp = f(s + h, t + h)
    fpm = f(s + h, t - h)
    fmp = f(s - h, t + h)
    fmm = f(s - h, t - h)
    return Jet2(
        val=f00,
        d_s=(fp0 - fm0) / (2 * h),
        d_t=(f0p - f0m) / (2 * h),
        d_ss=(fp0 - 2 * f00 + fm0) / (h * h),
        d_st=(fpp - fpm - fmp + fmm) / (4 * h * h),
        d_tt=(f0p - 2 * f00 + f0m) / (h * h),
    )


def rotate_pair(a3: Sym2, a4: Sym2, theta: float, rho: float) -> tuple[Sym2, Sym2]:
    """Express the pair in the frame rotated by theta (tangent), rho (normal).

    The normal rotation mixes the operators as e3' = cos(rho) e3 + sin(rho) e4,
    e4' = -sin(rho) e3 + cos(rho) e4; the tangent rotation R(theta) acts on
    each as R^T A R.  Written with explicit 2x2 matrices.
    """
    m3 = np.array([[a3.a11, a3.a12], [a3.a12, a3.a22]])
    m4 = np.array([[a4.a11, a4.a12], [a4.a12, a4.a22]])
    cr, sr = math.cos(rho), math.sin(rho)
    ct, st = math.cos(theta), math.sin(theta)
    r = np.array([[ct, -st], [st, ct]])
    out = []
    for m in (cr * m3 + sr * m4, -sr * m3 + cr * m4):
        rotated = r.T @ m @ r
        out.append(
            Sym2(
                float(rotated[0, 0]),
                0.5 * float(rotated[0, 1] + rotated[1, 0]),
                float(rotated[1, 1]),
            )
        )
    return out[0], out[1]


def ellipse_sweep(h: SecondFF, center: PVector, samples: int = 360):
    """Direct sweep of h(v,v) over the unit tangent circle.

    Measures the extreme distances of h(v,v) from the center in the
    positive normal metric as v = cos(theta) e1 + sin(theta) e2 runs
    around the circle, sampling the stated number of directions and then
    polishing each extremum bracket by ternary search.  Independent
    cross-check of the closed-form axis lengths.
    """
    u = 0.5 * (h.h11 - h.h22)
    v = h.h12

    def dist(theta: float) -> float:
        w = math.cos(2.0 * theta) * u + math.sin(2.0 * theta) * v
        return math.sqrt(max(-inner(w, w), 0.0))

    step = math.pi / samples  # h(v,v) has period pi in theta
    values = [dist(k * step) for k in range(samples)]

    def polish(idx: int, sign: float) -> float:
        lo = (idx - 1) * step
        hi = (idx + 1) * step
        for _ in range(80):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if sign * dist(m1) >= sign * dist(m2):
                hi = m2
            else:
                lo = m1
        return dist(0.5 * (lo + hi))

    imax = max(range(samples), key=values.__getitem__)
    imin = min(range(samples), key=values.__getitem__)
    return polish(imax, 1.0), polish(imin, -1.0)


def causal_character(v: PVector) -> str:
    """Space-like, time-like or light-like, by the sign of <v,v> relative to |v|^2."""
    q = self_inner(v)
    scale = float(np.dot(v.coords, v.coords))
    if scale == 0.0:
        raise InputMismatchError("zero vector has no causal character")
    if abs(q) < LIGHTLIKE_RTOL * scale:
        return LIGHT_LIKE
    return SPACE_LIKE if q > 0 else TIME_LIKE


def as_array(m: Sym2) -> np.ndarray:
    """The matrix, shape (..., 2, 2)."""
    a = np.stack([m.a11, m.a12, m.a12, m.a22], axis=-1)
    return a.reshape(a.shape[:-1] + (2, 2))


def ambient_curvature(x: PVector, y: PVector, z: PVector, c: float) -> PVector:
    """Constant-curvature ambient curvature operator c(<X,Z>Y - <Y,Z>X)."""
    return c * (inner(x, z) * y - inner(y, z) * x)


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


def equality_frame(imm: Immersion, p: tuple) -> FrameData:
    """Frame rotated pointwise into the equality-case shape of the operators.

    The tangent pair is rotated by the angle diagonalizing A_{e3} and e4 is
    oriented so KD <= 0 (the equality-achieving orientation).  On equality
    surfaces this produces the frame field in which the Codazzi consequence
    "normal form = twice the tangent form" can be checked componentwise.
    A test selects it by monkeypatching curvature.build_frames, so the base
    frame comes from the builder captured at import, not from point_report.
    """
    fr = _build_frames(imm, p)
    a3, a4 = curvature.shape_operators(curvature.second_fundamental_form(imm, p, fr), fr)
    extra_flip = curvature.invariants(a3, a4, fr, imm.ambient.curvature).KD > 0
    _, theta = eigen_sym2(a3)
    ct, st = np.cos(theta), np.sin(theta)
    e1 = ct * fr.e1 + st * fr.e2
    e2 = -st * fr.e1 + ct * fr.e2
    e4 = np.where(extra_flip, -1.0, 1.0) * fr.e4
    rows = fr.gram_schmidt[:-2] + [e1.coords, e2.coords]
    return FrameData(e1, e2, fr.metric, fr.jets, rows, (fr.e3, e4, fr.scan, fr.flipped ^ extra_flip))


def with_normals(fr: FrameData, **normals) -> FrameData:
    """fr with the named ones of e3, e4, scan and flipped replaced, the others as fr completes them."""
    pair = tuple(normals.get(k, getattr(fr, k)) for k in ("e3", "e4", "scan", "flipped"))
    return FrameData(fr.e1, fr.e2, fr.metric, fr.jets, fr.gram_schmidt, pair)


def reference_frames(imm: Immersion, p: tuple) -> FrameData:
    """build_frames by a masked scan and a determinant per node.

    An independent scan over the rows of the full basis table: each row in
    turn has every found or unfound normal projected off and is taken by
    the nodes that still lack a normal, and the orientation is the sign of
    np.linalg.det of the whole frame (position first, when there is one).
    The engine's closed-form pick (_complete_normals) must match it bit
    for bit.
    """
    jp = imm.evaluate(*p)
    sig = imm.ambient.signature
    vs, vt = jp.velocity_s(), jp.velocity_t()
    metric = metric_from_velocities(imm, p, vs, vt)
    base, chars = [], []
    if not imm.ambient.is_flat:
        base.append(jp.position())
        chars.append(TIME_LIKE if imm.ambient.curvature < 0 else SPACE_LIKE)
    frame = [v.coords for v in orthonormalize(base + [vs, vt], chars + [SPACE_LIKE, SPACE_LIKE])]
    w, dim = sig.weights, sig.total_dim
    rest = np.eye(dim).reshape((dim,) + (1,) * len(jp.shape) + (dim,))
    for f in frame:
        rest = rest - ((rest * f) @ w / ((f * f) @ w))[..., None] * f
    normals = [np.zeros(jp.shape + (dim,))] * 2
    found = np.zeros(jp.shape, dtype=int)
    scan = np.zeros(jp.shape + (2,), dtype=int)
    for i in range(dim):
        r = rest[i]
        for n in normals:
            r = r + ((r * n) @ w)[..., None] * n
        rr = r * r
        q = rr @ w
        take = (found < 2) & (rr.sum(axis=-1) > SPAN_RTOL)
        assert not (take & ((np.abs(q) < LIGHTLIKE_RTOL * rr.sum(axis=-1)) | (q > 0))).any()
        unit = r * (1.0 / np.sqrt(np.where(take, -q, 1.0)))[..., None]
        for k in range(2):
            now = take & (found == k)
            normals[k] = np.where(now[..., None], unit, normals[k])
            scan[..., k] = np.where(now, i, scan[..., k])
        found = found + take
        if (found == 2).all():
            break
    assert (found == 2).all()
    det = np.linalg.det(np.stack(frame + normals, axis=-2))
    flipped = det * curvature._ORIENT_SIGN[imm.ambient.kind] < 0
    e4 = np.where(flipped[..., None], -normals[1], normals[1])
    e1, e2, e3, e4 = (PVector(v, sig) for v in (frame[-2], frame[-1], normals[0], e4))
    return FrameData(e1, e2, metric, jp, frame, (e3, e4, scan, flipped))


def isometric_image(imm: Immersion, iso: np.ndarray) -> Immersion:
    """imm followed by the linear isometry iso of its flat embedding space.

    iso must preserve the signature's metric (iso.T W iso = W); it then maps
    the space form onto itself, so the image has the same invariants and a
    normal frame seeded by other basis vectors.
    """
    dim = iso.shape[0]

    def evaluate(s, t) -> np.ndarray:
        return imm.evaluate(s, t).table @ iso.T

    return Immersion(imm.name, imm.ambient, evaluate, imm.domain)


def random_isometry(sig, rng, generic: bool = True) -> np.ndarray:
    """A random linear isometry of the signature's metric, as a matrix.

    A signed permutation of the coordinates within each sign block; when
    generic, after six rotations (equal weights) or boosts (opposite
    weights) by angles in [-1.5, 1.5] in random coordinate planes.  The
    signed permutations alone keep a surface's alignment with the basis,
    so they move which basis vectors the normal completion skips.
    """
    dim, neg = sig.total_dim, sig.negative_count
    iso = np.eye(dim)
    for _ in range(6 if generic else 0):
        a, b = rng.choice(dim, size=2, replace=False)
        x = rng.uniform(-1.5, 1.5)
        turn = np.eye(dim)
        if sig.weights[a] == sig.weights[b]:
            turn[[a, a, b, b], [a, b, a, b]] = math.cos(x), -math.sin(x), math.sin(x), math.cos(x)
        else:
            turn[[a, a, b, b], [a, b, a, b]] = math.cosh(x), math.sinh(x), math.sinh(x), math.cosh(x)
        iso = turn @ iso
    order = np.concatenate([rng.permutation(neg), neg + rng.permutation(dim - neg)])
    return (np.eye(dim)[order] * rng.choice([-1.0, 1.0], size=dim)[:, None]) @ iso


def sample_points(domain: DomainRect, rng, n: int) -> list[tuple[float, float]]:
    """n uniform random points of domain as (s, t) pairs, drawn from a numpy Generator."""
    s = rng.uniform(domain.s0, domain.s1, size=n)
    t = rng.uniform(domain.t0, domain.t1, size=n)
    return list(zip(s.tolist(), t.tolist()))


def bits(x) -> tuple:
    """Shape and IEEE bytes of a float or float array: equal only when bit-identical."""
    return np.shape(x), np.asarray(x, dtype=np.float64).tobytes()


def induced_metric(imm: Immersion, p: tuple) -> MetricCoeffs:
    """E, F, G of the induced metric at p, a node or a batch; error if not space-like."""
    jp = imm.evaluate(*p)
    return metric_from_velocities(imm, p, jp.velocity_s(), jp.velocity_t())


def random_polynomial_reference(seed_value: int, amplitude: float = 0.1) -> Immersion:
    """catalog random_polynomial with the unshared jet arithmetic.

    Each monomial is jpow(s, i) * jpow(t, j) and each coefficient is lifted
    to a constant jet before the product.  The coefficients are numpy's
    first draw from default_rng(seed), as catalog_get takes them, so the
    same seed gives the same surface.
    """
    rng = np.random.default_rng(seed_value)
    coeff_p = rng.uniform(-amplitude, amplitude, size=len(catalog._MONOMIALS))
    coeff_q = rng.uniform(-amplitude, amplitude, size=len(catalog._MONOMIALS))

    def evaluate(s, t) -> tuple:
        js, jt = seed(s, t)
        p = Jet2.constant(0.0)
        q = Jet2.constant(0.0)
        for (i, j), cp, cq in zip(catalog._MONOMIALS, coeff_p, coeff_q):
            mono = jpow(js, i) * jpow(jt, j)
            p = p + Jet2.constant(cp) * mono
            q = q + Jet2.constant(cq) * mono
        return p, q, js, jt

    return _jet_immersion("random_polynomial", AmbientSpace.flat(), evaluate, DomainRect(-0.5, 0.5, -0.5, 0.5))


def _jet_immersion(name: str, ambient: AmbientSpace, jets, domain: DomainRect) -> Immersion:
    """An immersion of an evaluator that returns one Jet2 per coordinate, packed into a table."""
    return Immersion(name, ambient, lambda s, t: pack([c.fields for c in jets(s, t)], s.shape), domain)


# The catalog's evaluators written with Jet2 arithmetic, as the catalog
# had them before it wrote its tables field by field: the catalog's tables
# must equal these bit for bit at a batch.  random_polynomial's reference
# is random_polynomial_reference above.


def _phi_h42_jets(s, t) -> tuple:
    js, jt = seed(s, t)
    u = (2.0 / math.sqrt(3.0)) * js
    sh = jsinh(u)
    ex = jexp(u)
    t2 = jt * jt
    t3 = t2 * jt
    t4 = t2 * t2
    c1 = sh - t2 * (1.0 / 3.0) - (7.0 / 8.0 + t4 * (1.0 / 18.0)) * ex
    c2 = jt + (t3 * (1.0 / 3.0) - jt * 0.25) * ex
    c3 = 0.5 + t2 * 0.5 * ex
    c4 = jt + (t3 * (1.0 / 3.0) + jt * 0.25) * ex
    c5 = sh - t2 * (1.0 / 3.0) - (1.0 / 8.0 + t4 * (1.0 / 18.0)) * ex
    return c1, c2, c3, c4, c5


def _flat_l_jets(s, t) -> tuple:
    js, jt = seed(s, t)
    r = 1.0 / math.sqrt(2.0)
    return r * jcosh(js), r * jcosh(jt), Jet2.constant(0.0), r * jsinh(js), r * jsinh(jt)


def _geodesic_jets(s, t) -> tuple:
    js, jt = seed(s, t)
    zero = Jet2.constant(0.0)
    cs, ss_ = jcosh(js), jsinh(js)
    ct, st = jcosh(jt), jsinh(jt)
    return cs * ct, zero, zero, cs * st, ss_


def _holomorphic_jets(coeffs: np.ndarray):
    # complex jets as (re, im) pairs; Horner evaluation of f(s + i t)
    def evaluate(s, t) -> tuple:
        js, jt = seed(s, t)
        acc_re = Jet2.constant(coeffs[-1].real)
        acc_im = Jet2.constant(coeffs[-1].imag)
        for c in coeffs[-2::-1]:
            acc_re, acc_im = (
                acc_re * js - acc_im * jt + c.real,
                acc_re * jt + acc_im * js + c.imag,
            )
        return js, jt, acc_re, acc_im

    return evaluate


def _umbilical_jets(radius: float):
    def evaluate(s, t) -> tuple:
        js, jt = seed(s, t)
        zero = Jet2.constant(0.0)
        cs, ss_ = jcosh(js), jsinh(js)
        ct, st = jcosh(jt), jsinh(jt)
        return zero, radius * cs * ct, radius * ss_, radius * cs * st

    return evaluate


def catalog_reference(name: str, params: dict | None = None) -> Immersion:
    """catalog_get(name, params) with its Jet2 reference evaluator in place of the catalog's."""
    imm = catalog.catalog_get(name, params)
    if name == "random_polynomial":
        jets = random_polynomial_reference(imm.params["seed"], imm.params["amplitude"]).evaluator
        return Immersion(name, imm.ambient, jets, imm.domain)
    if name == "holomorphic_graph":
        jets = _holomorphic_jets(catalog._poly_coeffs_from_param(params["f"]))
    elif name == "umbilical_flat":
        jets = _umbilical_jets(imm.params["radius"])
    else:
        jets = {"phi_h42": _phi_h42_jets, "flat_L": _flat_l_jets, "totally_geodesic_h42": _geodesic_jets}[name]
    return _jet_immersion(name, imm.ambient, jets, imm.domain)


# -- per-component forms of the stacked curvature stages -------------------

# (center, +s, -s, +t, -t) in units of the step
_STENCIL = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


def _gram_schmidt_frame(fr: FrameData) -> list[PVector]:
    """(x^, e1, e2), or (e1, e2) for a flat ambient, with x^ = x / sqrt|<x,x>|."""
    frame = [fr.e1, fr.e2]
    if not fr.jets.ambient.is_flat:
        x = fr.jets.position()
        frame.insert(0, np.asarray(1.0 / np.sqrt(np.abs(inner(x, x)))) * x)
    return frame


def _normal_part(v: PVector, frame: list[PVector]) -> PVector:
    """v with each frame vector projected off in turn."""
    for f in frame:
        v = v - (inner(v, f) / inner(f, f)) * f
    return v


def _tangent_coeffs(fr: FrameData) -> tuple:
    """(a, b, c) with e1 = a psi_s, e2 = b psi_s + c psi_t."""
    m = fr.metric
    nu = np.sqrt(m.G - m.F * m.F / m.E)
    return 1.0 / np.sqrt(m.E), -m.F / (m.E * nu), 1.0 / nu


def second_fundamental_form_per_component(fr: FrameData) -> SecondFF:
    """h from the jets of fr, one projection off (x^, e1, e2) per acceleration."""
    jp = fr.jets
    frame = _gram_schmidt_frame(fr)
    hss, hst, htt = (_normal_part(x, frame) for x in (accel_ss(jp), accel_st(jp), accel_tt(jp)))
    a, b, c = _tangent_coeffs(fr)
    return SecondFF(
        (a * a) * hss,
        a * (b * hss + c * hst),
        (b * b) * hss + (2.0 * b * c) * hst + (c * c) * htt,
    )


def shape_operators_per_component(h: SecondFF, fr: FrameData) -> tuple[Sym2, Sym2]:
    """A3, A4 with one inner product per entry."""
    return (
        Sym2(inner(h.h11, fr.e3), inner(h.h12, fr.e3), inner(h.h22, fr.e3)),
        Sym2(inner(h.h11, fr.e4), inner(h.h12, fr.e4), inner(h.h22, fr.e4)),
    )


def stencil_frames(imm: Immersion, p: tuple, step: float, offsets=_STENCIL) -> FrameData:
    """The engine's frames at p + step * offset, offset axis first."""
    s, t = np.broadcast_arrays(*p)
    di, dj = np.transpose(offsets)
    return _build_frames(imm, (np.add.outer(step * di, s), np.add.outer(step * dj, t)))


def _central(v: PVector, step: float, plus: int, minus: int) -> PVector:
    return (1.0 / (2.0 * step)) * (v[plus] - v[minus])


def coordinate_forms_per_component(fr: FrameData, step: float) -> tuple:
    """(w12(d_s), w12(d_t), w34(d_s), w34(d_t)) at the centers of 5-point stencils.

    The stencil axis of fr comes first; e1 is sign-matched to the center.
    """
    e1 = np.where(inner(fr.e1, fr.e1[0]) < 0, -1.0, 1.0) * fr.e1
    e2, e3, e4 = fr.e2[0], fr.e3, fr.e4[0]
    return (
        inner(_central(e1, step, 1, 2), e2),
        inner(_central(e1, step, 3, 4), e2),
        -inner(_central(e3, step, 1, 2), e4),
        -inner(_central(e3, step, 3, 4), e4),
    )


def _on_frame(fr: FrameData, w_s, w_t) -> tuple:
    """(w(e1), w(e2)) of the coordinate form (w(d_s), w(d_t)) at the stencil center."""
    vs, vt = fr.jets.velocity_s()[0], fr.jets.velocity_t()[0]
    E, F, G = fr.metric.E[0], fr.metric.F[0], fr.metric.G[0]
    det = E * G - F * F
    out = []
    for e in (fr.e1[0], fr.e2[0]):
        x, y = inner(e, vs), inner(e, vt)
        out.append((G * x - F * y) / det * w_s + (E * y - F * x) / det * w_t)
    return tuple(out)


def connection_forms_per_component(imm: Immersion, p: tuple, step: float = 1e-3) -> ConnectionSample:
    """connection_forms without its branch check, one form and one direction at a time."""
    fr = stencil_frames(imm, p, step)
    w12_s, w12_t, w34_s, w34_t = coordinate_forms_per_component(fr, step)
    return ConnectionSample(*_on_frame(fr, w12_s, w12_t), *_on_frame(fr, w34_s, w34_t))


def structure_equation_check_per_component(imm: Immersion, p: tuple, step: float = 1e-3) -> tuple:
    """structure_equation_check without its branch check, one neighbour stencil at a time."""
    forms = [
        coordinate_forms_per_component(stencil_frames(imm, p, step, [(i + k, j + l) for i, j in _STENCIL]), step)
        for k, l in _STENCIL[1:]
    ]
    w12_s, w12_t, w34_s, w34_t = zip(*forms)  # each indexed by neighbour (+s, -s, +t, -t)
    inv2h = 1.0 / (2.0 * step)
    d_w12 = inv2h * (w12_t[0] - w12_t[1]) - inv2h * (w12_s[2] - w12_s[3])
    d_w34 = inv2h * (w34_t[0] - w34_t[1]) - inv2h * (w34_s[2] - w34_s[3])
    area = np.sqrt(stencil_frames(imm, p, step, [(0, 0)]).metric.det[0])
    return -d_w12 / area, -d_w34 / area


def codazzi_residual_per_component(imm: Immersion, p: tuple, step: float = 1e-3):
    """codazzi_residual with one PVector per component of h and of D h."""
    fr = stencil_frames(imm, p, step)
    h = second_fundamental_form_per_component(fr)
    frame = [f[0] for f in _gram_schmidt_frame(fr)]
    dh_s = [_normal_part(_central(v, step, 1, 2), frame) for v in h.components()]
    dh_t = [_normal_part(_central(v, step, 3, 4), frame) for v in h.components()]
    a, b, c = (x[0] for x in _tangent_coeffs(fr))
    d_e1 = [a * v for v in dh_s]
    d_e2 = [b * vs + c * vt for vs, vt in zip(dh_s, dh_t)]
    w_s, w_t = coordinate_forms_per_component(fr, step)[:2]
    w1, w2 = _on_frame(fr, w_s, w_t)
    h11, h12, h22 = (v[0] for v in h.components())
    r1 = d_e1[1] + w1 * h11 - w1 * h22 - d_e2[0] + 2.0 * w2 * h12
    r2 = d_e1[2] + 2.0 * w1 * h12 - d_e2[1] + w2 * h22 - w2 * h11
    return np.maximum(r1.euclid_norm(), r2.euclid_norm())


def canonical_two_candidates(a3: Sym2, a4: Sym2) -> CanonicalFrame:
    """canonical_equality_frame with a full eigen decomposition and rotation per e4 orientation."""
    u1, u2 = 0.5 * (a3.a11 - a3.a22), a3.a12
    w1, w2 = 0.5 * (a4.a11 - a4.a22), a4.a12
    rho = np.where(
        np.hypot(a3.trace, a4.trace) > curvature._TRACE_TOL,
        np.arctan2(a4.trace, a3.trace),
        0.5 * np.arctan2(2.0 * (u1 * w1 + u2 * w2), u1 * u1 + u2 * u2 - w1 * w1 - w2 * w2),
    )[()]
    cr, sr = np.cos(rho), np.sin(rho)
    mixed3 = Sym2(cr * a3.a11 + sr * a4.a11, cr * a3.a12 + sr * a4.a12, cr * a3.a22 + sr * a4.a22)
    mixed4 = Sym2(-sr * a3.a11 + cr * a4.a11, -sr * a3.a12 + cr * a4.a12, -sr * a3.a22 + cr * a4.a22)
    candidates = []
    for flip, m4 in ((False, mixed4), (True, Sym2(-mixed4.a11, -mixed4.a12, -mixed4.a22))):
        (alpha, mu), theta = eigen_sym2(mixed3)
        rotated4 = rotate_sym2(m4, theta)
        delta, gamma = rotated4.a11, rotated4.a12
        residual = np.sqrt(0.25 * (2.0 * gamma + mu - alpha) ** 2 + 2.0 * delta * delta)
        candidates.append(CanonicalFrame(alpha, gamma, delta, mu, theta, rho, residual, flip))
    plain, flipped = candidates
    keep = plain.residual <= flipped.residual
    return CanonicalFrame(
        *(np.where(keep, getattr(plain, f), getattr(flipped, f))[()] for f in CanonicalFrame._fields)
    )


# -- accessors and serializers the engine does not use -------------------


def eager_kd(h: SecondFF, jets: JetPoint):
    """KD at every node of h at once, as the invariants once formed it
    beside K and the defect: |KD| from the Gram determinant of u and v, its
    sign from the (u, v) minors summed against the jets' signed minors, one
    matrix-vector product over the batch (a dot product at a single node)."""
    sig = h.h11.signature
    w, dim = sig.weights, sig.total_dim
    h11, v, h22 = (x.coords for x in h.components())
    u = 0.5 * (h11 - h22)
    uu, uv = np.array([u * u, u * v]) @ w  # stacked, as the invariants stack their inner products
    nonzero = uu != 0.0
    v_off_u = v - np.where(nonzero, uv / np.where(nonzero, uu, 1.0), 0.0)[..., None] * u
    abs_kd = 2.0 * np.sqrt(np.maximum(uu * ((v_off_u * v_off_u) @ w), 0.0))
    pairs = [(i, j) for j in range(dim) for i in range(j)]
    i, j = np.transpose(pairs)
    minors = u[..., i] * v[..., j] - u[..., j] * v[..., i]
    side = ((curvature._jet_minors(jets) * minors) @ np.ones(len(pairs))) * curvature._ORIENT_SIGN[jets.ambient.kind]
    return np.where(side > 0, -abs_kd, abs_kd)[()]


def accel_ss(jp: JetPoint) -> PVector:
    return jp._vector(3)


def accel_st(jp: JetPoint) -> PVector:
    return jp._vector(4)


def accel_tt(jp: JetPoint) -> PVector:
    return jp._vector(5)


def self_inner(v: PVector):
    return inner(v, v)


def grid_from_csv(text: str) -> GridField:
    """The GridField a grid_to_csv text holds."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != "s,t,value,E,F,G":
        raise InputMismatchError("not a grid CSV: missing 's,t,value,E,F,G' header")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    data = np.array(rows)
    s_vals = data[:, 0]
    ny = int(np.argmax(s_vals != s_vals[0])) or len(s_vals)
    nx = len(rows) // ny
    if nx * ny != len(rows):
        raise InputMismatchError("grid CSV is not a full rectangular grid")
    dom = DomainRect(s_vals[0], s_vals[-1], data[0, 1], data[ny - 1, 1])

    def shaped(k):
        return data[:, k].reshape(nx, ny)

    return GridField(dom, nx, ny, shaped(2), shaped(3), shaped(4), shaped(5))


def grid_csv_rows_joined(f: GridField) -> str:
    """grid_to_csv's text built as the formatter once did: each line the
    ",".join of a node's (value, E, F, G), stacked as floats per s-row."""
    ss, ts = f.node_coords()
    lines = ["s,t,value,E,F,G\n"]
    for s, *cols in zip(ss.tolist(), f.values, f.E, f.F, f.G):
        row = np.stack(cols, axis=-1, dtype=float).tolist()
        lines += [repr(s) + f",{t!r}," + ",".join(map(repr, rest)) + "\n" for t, rest in zip(ts.tolist(), row)]
    return "".join(lines)


def grid_from_json(text: str) -> GridField:
    """The GridField a grid_to_json text holds."""
    payload = json.loads(text)
    dom = DomainRect(*payload["domain"])
    return GridField(
        dom,
        payload["nx"],
        payload["ny"],
        np.array(payload["values"]),
        np.array(payload["E"]),
        np.array(payload["F"]),
        np.array(payload["G"]),
        payload.get("quantity", "value"),
    )


# -- convergence of the Laplacian identities ------------------------------

# Identity residuals below this are roundoff in convergence_ratios.
_RATIO_FLOOR = 1e-10


def convergence_ratios(
    imm: Immersion,
    which: str,
    grids: tuple[int, ...] = (17, 33, 65),
    domain: DomainRect | None = None,
) -> list[float]:
    """Residual-decay ratios of the identity check under grid refinement.

    Second-order stencils should give ratios near 4 when each grid halves
    the spacing.  Residuals are compared on the region interior to the
    coarsest grid's stencil margin, so refinement does not pull nodes
    closer to the boundary where higher derivatives may be larger.
    Residuals below _RATIO_FLOOR are roundoff-dominated and report a
    neutral ratio of 4.
    """
    dom = domain or imm.domain
    coarsest = min(grids)
    pad_s = 2.0 * (dom.s1 - dom.s0) / (coarsest - 1)
    pad_t = 2.0 * (dom.t1 - dom.t0) / (coarsest - 1)
    residuals = []
    for n in grids:
        report = verify_identity(imm, which, grid=(n, n), domain=dom)
        ss, ts = dom.grid(n, n)
        inner_s = ss[2:-2]
        inner_t = ts[2:-2]
        mask_s = (inner_s >= dom.s0 + pad_s - 1e-12) & (inner_s <= dom.s1 - pad_s + 1e-12)
        mask_t = (inner_t >= dom.t0 + pad_t - 1e-12) & (inner_t <= dom.t1 - pad_t + 1e-12)
        region = report.residual[np.ix_(mask_s, mask_t)]
        residuals.append(float(np.max(np.abs(region))))
    ratios = []
    for coarse, fine in zip(residuals, residuals[1:]):
        if coarse < _RATIO_FLOOR and fine < _RATIO_FLOOR:
            ratios.append(4.0)
        else:
            ratios.append(coarse / max(fine, 1e-300))
    return ratios



# -- expression printer: parse(expr_to_text(ast)) == ast ------------------

_ATOM_PREC = 100


def _prec_of(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _BIN_PREC[node.op]
    if isinstance(node, Neg):
        return _UNARY_PREC
    return _ATOM_PREC


def expr_to_text(node: Expr) -> str:
    return _print(node, 0)


def _print(node: Expr, min_prec: int) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        text = "-" + _print(node.operand, _UNARY_PREC)
    elif isinstance(node, BinOp):
        prec = _BIN_PREC[node.op]
        text = f"{_print(node.left, prec)} {node.op} {_print(node.right, prec + 1)}"
    elif isinstance(node, Call):
        text = f"{node.fn}({', '.join(_print(a, 0) for a in node.args)})"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if _prec_of(node) < min_prec:
        return f"({text})"
    return text


# -- expression tree-walker: the oracle of the compiled jet program --------


def eval_tree(node: Expr, env: dict) -> Jet2:
    """Evaluate the tree node by node on the jets env["s"], env["t"].

    No subtree is shared and no constant folded: every node runs its jet
    operation when it is reached.  Jet singularities are re-raised with
    the location of the innermost responsible node attached.
    """
    if isinstance(node, Num):
        return Jet2.constant(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -eval_tree(node.operand, env)
    try:
        if isinstance(node, BinOp):
            a = eval_tree(node.left, env)
            b = eval_tree(node.right, env)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                return a / b
            return jpow(a, b)
        if isinstance(node, Call):
            args = [eval_tree(a, env) for a in node.args]
            if node.fn == "pow":
                return jpow(args[0], args[1])
            return FUNCTIONS[node.fn](args[0])
    except SingularityError as exc:
        if str(exc).startswith(f"{node.line}:"):
            raise
        raise SingularityError(f"{node.line}:{node.col}: {exc}") from exc
    raise TypeError(f"not an expression node: {node!r}")


def definition_to_text(defn: SurfaceDefinition) -> str:
    """Render a definition back to the file format (parse-stable)."""
    amb = defn.ambient
    neg = amb.signature.negative_count
    pos = amb.signature.total_dim - neg
    if amb.is_flat:
        head = f"ambient E({neg},{pos})"
    else:
        letter = "S" if amb.kind == "pseudo_sphere" else "H"
        head = f"ambient {letter}({neg},{pos}; {amb.curvature!r})"
    d = defn.domain
    lines = [head, f"domain {d.s0!r}:{d.s1!r}, {d.t0!r}:{d.t1!r}"]
    for k, comp in enumerate(defn.components, start=1):
        lines.append(f"x{k} = {expr_to_text(comp)}")
    return "\n".join(lines) + "\n"
