"""Oracles and helpers used only by the tests.

Most recompute a quantity the engine produces by a different route
(sampling, finite differences, explicit matrix products, the closed-form
Wintgen identity), so a test that compares the two does not check the
engine against its own code.  equality_frame is the exception: it reuses
the engine's stages to build the equality-adapted frame field that
connection_forms is checked in.
"""

from __future__ import annotations

import math

import numpy as np

from neutralsurf import catalog, curvature
from neutralsurf.ambient import AmbientSpace, DomainRect
from neutralsurf.catalog import Immersion, JetPoint, MetricCoeffs, metric_from_velocities
from neutralsurf.curvature import FrameData, SecondFF
from neutralsurf.errors import InputMismatchError
from neutralsurf.jets import Jet2, jpow, seed
from neutralsurf.pseudo_linalg import (
    LIGHTLIKE_RTOL,
    SPACE_LIKE,
    TIME_LIKE,
    PVector,
    Sym2,
    eigen_sym2,
    inner,
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
    q = v.self_inner()
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
    return FrameData(e1, e2, fr.e3, e4, fr.metric, fr.scan, fr.flipped ^ extra_flip, fr.jets)


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
    to a constant jet before the product.  The coefficients are drawn and
    validated as catalog_get draws them, so the same seed gives the same
    surface.
    """
    ambient = AmbientSpace.flat()
    domain = DomainRect(-0.5, 0.5, -0.5, 0.5)
    rng = np.random.default_rng(seed_value)
    for _ in range(100):
        coeff_p = rng.uniform(-amplitude, amplitude, size=len(catalog._MONOMIALS))
        coeff_q = rng.uniform(-amplitude, amplitude, size=len(catalog._MONOMIALS))

        def evaluate(s, t, coeff_p=coeff_p, coeff_q=coeff_q) -> JetPoint:
            js, jt = seed(s, t)
            p = Jet2.constant(0.0)
            q = Jet2.constant(0.0)
            for (i, j), cp, cq in zip(catalog._MONOMIALS, coeff_p, coeff_q):
                mono = jpow(js, i) * jpow(jt, j)
                p = p + Jet2.constant(cp) * mono
                q = q + Jet2.constant(cq) * mono
            return JetPoint(ambient, (p, q, js, jt))

        imm = Immersion("random_polynomial", ambient, evaluate, domain)
        if catalog._validate_spacelike(imm):
            return imm
    raise AssertionError(f"random_polynomial seed={seed_value}: no space-like sample")
