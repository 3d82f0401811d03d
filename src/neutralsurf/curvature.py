"""Pointwise extrinsic invariants of space-like surfaces in neutral 4-space forms.

The pipeline at a point is: adapted orthonormal frame (space-like tangent
pair, time-like normal pair), second fundamental form h by normal projection
of the jet second derivatives, then the scalar invariants K, KD, H, <H,H>
and the inequality defect

    defect = K - |KD| - <H,H> - c  (minimum over the normal-orientation flip),

which is nonnegative for every space-like surface and zero exactly on the
equality cases.  The invariants come from h alone (Gauss and Ricci
equations in terms of u = (h11 - h22)/2 and v = h12, the axes of the
ellipse of curvature), so a report needs no normal basis.  Every derived
field follows one rule: a record forms it at its own nodes on the first
read, and the rows taken from it (_take) carry what is already formed.
A FrameData forms its normal pair e3, e4 and the jets' signed minors
that orient e4 and sign KD; a report forms its canonical frame (with the
shape operators A3, A4 it reads, and through them the normal pair), its
ellipse of curvature (from the Gram matrix of u and v that the
invariants form) and KD's sign (the defect needs |KD| alone).  So a grid
command, which reads none of them, forms none, and verify forms the
minors once for its grid and stencil batch.
Frame-derivative quantities (connection forms, structure equations,
Codazzi residual) are estimated by central differences of the
deterministic frame field.

Every stage takes a point or a batch of nodes alike: p = (s, t) may hold
floats or arrays, and each field then holds one value per node.  The
finite-difference checks read one report, with its frames and h, of the
13 nested-stencil nodes of every point (_nested_report); they list the
5-point stencil first, so row 0 holds the points and rows 0-4 their
5-point stencils.  At a single point that report is kept (_kept_report),
and a single-point point_report is its row 0: a point probe evaluates,
frames and projects its point once, as a row of the same batch that
verify reads, bit for bit.  verify appends the same nodes to its grid
batch and reads them back (_stencil_checks), completing the normal pair
of the stencil nodes only, not of the grid.

Inside a stage the vectors are (..., dim) coordinate arrays under the
signature's weights, stacked so that one array operation serves all
components (the three accelerations, the entries of A3, the directions of
a stencil); PVectors are built only for what a stage hands on.  At a
single point a stacked inner product rounds through a matrix-vector
product rather than a dot product, which may move the last bits, and so
does a batch whose last axis holds one node; otherwise a node's values
depend neither on the stacking nor on the batch it is in.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .catalog import Immersion, JetPoint, MetricCoeffs, metric_from_velocities
from .errors import DegeneracyError, InputMismatchError, NeutralSurfError, first_flagged
from .pseudo_linalg import (
    SPACE_LIKE,
    TIME_LIKE,
    SPAN_RTOL,
    PVector,
    Sym2,
    eigen_sym2,
    orthonormalize,
    project_off,
    rotate_sym2,
)
from .records import Record, ValueRecord

# Normal frames are completed from the first two usable ambient basis
# vectors (_complete_normals), and then e4 is oriented so the full ambient
# frame determinant has a fixed sign per ambient kind.  Keeps the
# normal-curvature sign reproducible and smooth, and makes the built-in
# equality surfaces report KD in their equality-achieving orientation
# (KD = -2/3 on the hyperbolic-plane immersion, KD = -K on holomorphic
# graphs).  KD reads the same sign off det [x; psi_s; psi_t; u; v]
# (_signed_kd), with no normal frame.
_ORIENT_SIGN = {"flat": 1.0, "pseudo_sphere": -1.0, "pseudo_hyperbolic": -1.0}

# The pairs (i, j), i < j, of ambient basis vectors, ordered by j, so that
# (i, j) is pair j (j - 1) / 2 + i, the index _complete_normals reads.  Per
# pair: its columns (_PAIR_I, _PAIR_J), its sign (-1)^(i+j+1) in a
# determinant expanded along two rows (_jet_minors), and per dimension the
# other columns (k, l[, m]).  For dimension 5, _OFF_SUB holds the pairs
# (l, m), (k, m), (k, l) of the 2x2 minors inside the 3x3 minor off (i, j).
_PAIRS = [(i, j) for j in range(5) for i in range(j)]
_PAIR_I, _PAIR_J = np.transpose(_PAIRS)
_PAIR_ONES = np.ones(len(_PAIRS))
_PAIR_SIGN = np.array([(-1.0) ** (i + j + 1) for i, j in _PAIRS])
_OFF_PAIR = {
    dim: np.array([[c for c in range(dim) if c not in pair] for pair in _PAIRS[: dim * (dim - 1) // 2]])
    for dim in (4, 5)
}
_OFF_SUB = np.array([[_PAIRS.index(q) for q in ((l, m), (k, m), (k, l))] for k, l, m in _OFF_PAIR[5]])
# Per dimension, the row indices and the ambient basis that _complete_normals
# reshapes to its batch
_BASIS = {dim: (np.arange(dim), np.eye(dim)) for dim in (4, 5)}

# Below this norm of (tr A3, tr A4) the mean curvature is treated as zero.
_TRACE_TOL = 1e-9

# Ellipse of curvature: relative tolerance of the circle test, and the
# size below which the ellipse is a point.
_CIRCLE_TOL = 1e-6
_POINT_TOL = 1e-8

# The default finite-difference step of the FD checks, and the step of the
# nested-stencil report a single-point point_report reads (_nested_report).
_FD_STEP = 1e-3

# Finite-difference stencils as offsets in units of the step.  The 5-point
# stencil is (center, +s, -s, +t, -t); the structure equations nest it: the
# 5-point stencils around the four neighbours, as indices (stencil, neighbour)
# into their 13 distinct nodes.  The nested nodes list the 5-point stencil
# first, so row 0 of a nested batch holds the centers and rows 0-4 are a
# 5-point batch.
_STENCIL = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
# the rows (+s, +t) and (-s, -t) of a 5-point stencil, as slices: views, not copies
_PLUS, _MINUS = slice(1, 4, 2), slice(2, 5, 2)
_NESTED_NODES = _STENCIL + sorted(
    {(i + k, j + l) for i, j in _STENCIL for k, l in _STENCIL[1:]} - set(_STENCIL)
)
_NESTED = np.array(
    [[_NESTED_NODES.index((i + k, j + l)) for k, l in _STENCIL[1:]] for i, j in _STENCIL]
)
_NESTED_DS, _NESTED_DT = np.transpose(_NESTED_NODES).astype(float)


class FrameData(Record):
    """Adapted orthonormal frame at a point, or one per node of a batch.

    e1, e2 span the tangent plane (<ei,ej> = delta_ij); e3, e4 span the
    normal plane inside the space form (<e3,e3> = <e4,e4> = -1) and are
    orthogonal to the position vector for a non-flat ambient.  scan records
    which ambient basis vectors seeded the normal pair (shape (..., 2));
    flipped records the orientation normalization applied to e4.  jets are
    the jets the frame was built from, so later stages do not evaluate the
    immersion again.  gram_schmidt holds the coordinates of (x^, e1, e2),
    or (e1, e2) for a flat ambient, with x^ = x / sqrt|<x,x>|.

    normals is (e3, e4, scan, flipped), or None until the first read of any
    of them completes all four from the Gram-Schmidt frame and the jets
    (_complete_normals) at this FrameData's nodes; build_frames leaves it
    None.  minors, the jets' signed minors that the normal pair's
    orientation and KD's sign read (_jet_minors), are formed on the first
    read likewise.  _take carries the taken rows of what is formed, and the
    rest forms at the taken nodes only.
    """

    _fields = ("e1", "e2", "metric", "jets", "gram_schmidt", "normals")
    __slots__ = _fields + ("_minors",)

    def __init__(
        self,
        e1: PVector,
        e2: PVector,
        metric: MetricCoeffs,
        jets: JetPoint,
        gram_schmidt: list[np.ndarray],
        normals: tuple | None = None,
    ):
        self.e1 = e1
        self.e2 = e2
        self.metric = metric
        self.jets = jets
        self.gram_schmidt = gram_schmidt
        self.normals = normals
        self._minors = None

    @property
    def minors(self) -> np.ndarray:
        if self._minors is None:
            self._minors = _jet_minors(self.jets)
        return self._minors

    def _completed(self) -> tuple:
        if self.normals is None:
            self.normals = _complete_normals(self)
        return self.normals

    e3 = property(lambda self: self._completed()[0])
    e4 = property(lambda self: self._completed()[1])
    scan = property(lambda self: self._completed()[2])
    flipped = property(lambda self: self._completed()[3])

    def _take(self, nodes) -> "FrameData":
        """The frames at nodes, an index or index array into the leading node axis."""
        m, sig = self.metric, self.e1.signature
        rows = [v[nodes] for v in self.gram_schmidt]
        taken = FrameData(
            PVector(rows[-2], sig),
            PVector(rows[-1], sig),
            MetricCoeffs(m.E[nodes], m.F[nodes], m.G[nodes]),
            self.jets._take(nodes),
            rows,
            None if self.normals is None else tuple(x[nodes] for x in self.normals),
        )
        # each minor is elementwise in the nodes, so the taken rows are the
        # minors of the taken jets bit for bit
        if self._minors is not None:
            taken._minors = self._minors[nodes]
        return taken


class SecondFF(Record):
    """Normal-valued second fundamental form components in the frame basis."""

    __slots__ = _fields = ("h11", "h12", "h22")

    def __init__(self, h11: PVector, h12: PVector, h22: PVector):
        self.h11 = h11
        self.h12 = h12
        self.h22 = h22

    def components(self) -> tuple[PVector, PVector, PVector]:
        return (self.h11, self.h12, self.h22)

    def _take(self, nodes) -> "SecondFF":
        """h at nodes, an index or index array into the leading node axis."""
        return SecondFF(self.h11[nodes], self.h12[nodes], self.h22[nodes])


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

    def _take(self, nodes) -> "CanonicalFrame":
        """The frame at nodes, an index or index array into the leading node axis."""
        return CanonicalFrame(*(getattr(self, f)[nodes] for f in self._fields))


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

    def _take(self, nodes) -> "EllipseInfo":
        """The ellipse at nodes, an index or index array into the leading node axis."""
        return EllipseInfo(*(x[nodes] for x in (self.a, self.b, self.center, self.is_circle, self.is_point)))


class CurvatureReport(Record):
    """Invariants at a point or per node; point_report also keeps the frames and h.

    point_report forms three fields on their first read, at this report's
    nodes.  The canonical frame: from A3 and A4, which are None until then
    and are first filled from h and the normal pair (shape_operators).
    The ellipse: from _gram, the (<u,u>, <u,v>, <v,v>) of _h_invariants,
    which the report keeps while no ellipse is formed.  KD: signed
    (_signed_kd) from h and the frames' minors; abs_KD, which the defect
    reads, is there from the start.  _take carries the taken rows of what
    is formed, and the rest forms at the taken rows.  It signs KD at this
    report's nodes first: at a single taken row the sign sum would round as
    one dot product, not as a row of a matrix-vector product.
    """

    _fields = ("A3", "A4", "H", "H2", "K", "KD", "defect", "canonical", "ellipse", "frames", "h")
    __slots__ = (
        "A3", "A4", "H", "H2", "K", "_kd", "defect", "_canonical", "_ellipse", "frames", "h", "_gram", "_abs_kd",
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
        self._kd = KD
        self.defect = defect
        self._canonical = canonical
        self._ellipse = ellipse
        self.frames = frames
        self.h = h
        self._gram = self._abs_kd = None

    @property
    def KD(self):
        """The normal curvature, signed on the first read (_signed_kd); None
        with neither KD nor h and the frames."""
        if self._kd is None and self.h is not None and self.frames is not None:
            self._kd = _signed_kd(self.h, self.frames, self._abs_kd)
        return self._kd

    @property
    def abs_KD(self):
        """|KD|, which needs no sign: as the invariants formed it, else |KD| of KD."""
        if self._abs_kd is None and self.KD is not None:
            return np.abs(self.KD)
        return self._abs_kd

    @property
    def canonical(self) -> CanonicalFrame | None:
        """The canonical frame, formed on the first read from A3 and A4; None
        with neither the frame, A3 and A4, nor h and the frames."""
        if self._canonical is None:
            if self.A3 is None:
                if self.h is None or self.frames is None:
                    return None
                self.A3, self.A4 = shape_operators(self.h, self.frames)
            self._canonical = canonical_equality_frame(self.A3, self.A4)
        return self._canonical

    @property
    def ellipse(self) -> EllipseInfo | None:
        if self._ellipse is None and self._gram is not None:
            self._ellipse = ellipse_of_curvature(self.h, self.H, self._gram)
            self._gram = None
        return self._ellipse

    def _take(self, nodes) -> "CurvatureReport":
        """The report at nodes, an index or index array into the leading node axis."""
        kd = self.KD  # signed at this report's nodes, not at the taken rows alone
        a3, a4 = (None, None) if self.A3 is None else (_take_sym2(a, nodes) for a in (self.A3, self.A4))
        taken = CurvatureReport(
            a3,
            a4,
            self.H[nodes],
            self.H2[nodes],
            self.K[nodes],
            kd[nodes],
            self.defect[nodes],
            canonical=None if self._canonical is None else self._canonical._take(nodes),
            ellipse=None if self._ellipse is None else self._ellipse._take(nodes),
            frames=self.frames._take(nodes),
            h=self.h._take(nodes),
        )
        # each ellipse field is elementwise in the nodes, so the taken rows
        # of the gram form the taken rows of the ellipse bit for bit
        if self._gram is not None:
            taken._gram = tuple(x[nodes] for x in self._gram)
        return taken


def _take_sym2(a: Sym2, nodes) -> Sym2:
    """The shape operator a at nodes, an index or index array into the leading node axis."""
    return Sym2(a.a11[nodes], a.a12[nodes], a.a22[nodes])


class ConnectionSample(ValueRecord):
    """Connection 1-forms evaluated on the tangent frame at a point, or per point."""

    __slots__ = _fields = _compared = ("w12_e1", "w12_e2", "w34_e1", "w34_e2")

    def __init__(self, w12_e1: float, w12_e2: float, w34_e1: float, w34_e2: float):
        self.w12_e1 = w12_e1
        self.w12_e2 = w12_e2
        self.w34_e1 = w34_e1
        self.w34_e2 = w34_e2


def build_frames(imm: Immersion, p: tuple) -> FrameData:
    """Deterministic adapted frame at p, a node (s, t) or a batch of nodes.

    e1 follows the s-velocity; e2 completes the tangent pair with the (s,t)
    orientation; Gram-Schmidt errors name the first offending node.  The
    normal pair is completed when something first reads it
    (_complete_normals).
    """
    jp = imm.evaluate(*p)
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
    return FrameData(frame[-2], frame[-1], metric, jp, [v.coords for v in frame])


def _complete_normals(fr: FrameData) -> tuple:
    """(e3, e4, scan, flipped) of frames fr from their Gram-Schmidt frame and jets.

    The normal pair comes from Gram-Schmidt over the first two ambient
    basis vectors b_i, b_j (i < j) carrying a direction outside the tangent
    (and position) span, in coordinate order, then e4 is sign-normalized so
    the full ambient frame (position first, when there is one) has the
    determinant sign _ORIENT_SIGN of the ambient kind.  Each node picks its
    own pair in closed form: the remainders of every basis vector (b_k with
    the frame projected off) form one (dim, ..., dim) table, i is the first
    row of Euclidean norm^2 above SPAN_RTOL, and j the first later row that
    still is once e3 is projected off.  By Sylvester's law of inertia the
    complement of the accepted (position, e1, e2) is negative definite, so
    both remainders are time-like.

    The orientation needs no determinant of the frame.  Gram-Schmidt with
    positive normalizers makes the frame rows T [jets; b_i; b_j] with T
    lower triangular with a positive diagonal, where jets are the rows
    (x, psi_s, psi_t), or (psi_s, psi_t) for a flat ambient.  So the frame
    determinant has the sign of det [jets; b_i; b_j], which is
    (-1)^(i+j+1) times the jets' minor on the columns other than i and j.
    """
    jp, frame = fr.jets, fr.gram_schmidt
    sig = jp.ambient.signature
    w = sig.weights
    rows, eye = _BASIS[sig.total_dim]
    rows = rows.reshape(rows.shape + (1,) * len(jp.shape))
    # the row axis first: each projection is a stacked (dim, ..., dim) @ w
    rest = project_off(eye.reshape(rows.shape + eye.shape[-1:]), frame, w)
    i = ((rest * rest) @ sig.ones > SPAN_RTOL).argmax(axis=0)
    # rest[(k,) + nodes] picks row k[n] at each node n, and table[nodes + (k,)]
    # column k[n]
    nodes = np.indices(jp.shape, sparse=True)
    e3 = _unit(rest[(i,) + nodes], w)
    # e3 off one row at a time: a stacked matmul at a single point would
    # round like a matrix-vector product, not like the per-row dot product
    rest = np.array([r + ((r * e3) @ w)[..., None] * e3 for r in rest[1:]])
    j = (((rest * rest) @ sig.ones > SPAN_RTOL) & (rows[1:] > i)).argmax(axis=0) + 1
    e4 = _unit(rest[(j - 1,) + nodes], w)
    # the orientation (see above): the jets' signed minor at each node's pair
    minor = fr.minors[nodes + (j * (j - 1) // 2 + i,)]
    flipped = minor * _ORIENT_SIGN[jp.ambient.kind] < 0
    e4 = np.where(flipped[..., None], -e4, e4)
    return PVector(e3, sig), PVector(e4, sig), np.concatenate((i[..., None], j[..., None]), axis=-1), flipped


def _unit(r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Time-like coordinate arrays r scaled to <r,r> = -1."""
    return r * (1.0 / np.sqrt(-((r * r) @ w)))[..., None]


def _jet_minors(jp: JetPoint) -> np.ndarray:
    """The jets' minors on the columns other than each pair, signed by _PAIR_SIGN.

    The jets are the rows (x, psi_s, psi_t), or (psi_s, psi_t) for a flat
    ambient; pair (i, j) gets (-1)^(i+j+1) times the minor off columns i
    and j, its cofactor in a determinant whose last two rows are expanded.
    A 3x3 minor expands along the row of x into the 2x2 minors of
    (psi_s, psi_t), formed once for every pair.  Every pair of the
    ambient's columns gets an entry, in _PAIRS order.
    """
    off = _OFF_PAIR[jp.ambient.signature.total_dim].T
    if jp.ambient.is_flat:
        b, c = jp.table[1:3]
        minors = b[..., off[0]] * c[..., off[1]]
        minors -= b[..., off[1]] * c[..., off[0]]
    else:
        a, b, c = jp.table[:3]
        bc = b[..., _PAIR_I] * c[..., _PAIR_J]
        bc -= b[..., _PAIR_J] * c[..., _PAIR_I]
        lm, km, kl = (bc[..., q] for q in _OFF_SUB.T)
        minors = a[..., off[0]] * lm
        minors -= a[..., off[1]] * km
        minors += a[..., off[2]] * kl
    minors *= _PAIR_SIGN[: off.shape[1]]
    return minors


def _tangent_coeffs(metric: MetricCoeffs) -> tuple:
    """Coefficients expressing the frame in coordinate velocities.

    e1 = a * psi_s,  e2 = b * psi_s + c * psi_t.
    """
    a = 1.0 / np.sqrt(metric.E)
    nu = np.sqrt(metric.G - metric.F * metric.F / metric.E)
    b = -metric.F / (metric.E * nu)
    c = 1.0 / nu
    return a, b, c


def second_fundamental_form(imm: Immersion, p: tuple, frames: FrameData) -> SecondFF:
    """h(ei, ej): normal parts of the second coordinate derivatives.

    The jets are the ones frames was built from at p.  The normal part is
    what remains after projecting off the Gram-Schmidt frame (x^, e1, e2),
    so it needs no normal basis; for a non-flat ambient it also drops the
    position-direction (umbilical) term, so h is the second fundamental
    form of the surface inside the space form.
    """
    jp, sig = frames.jets, frames.e1.signature
    # (ss, st, tt) stacked first, over the nodes on one axis, also at a single
    # point: a node's inner products then round as for one vector there, and
    # as a row of a matrix-vector product in a batch
    nodes = (-1, sig.total_dim)
    accel = jp.table[3:].reshape((3,) + nodes)
    frame = [f.reshape(nodes) for f in frames.gram_schmidt]
    normal = project_off(accel, frame, sig.weights)
    hss, hst, htt = normal.reshape((3,) + jp.shape + nodes[1:])
    a, b, c = (x[..., None] for x in _tangent_coeffs(frames.metric))
    h11 = (a * a) * hss
    h12 = a * (b * hss + c * hst)
    h22 = (b * b) * hss + (2.0 * b * c) * hst + (c * c) * htt
    return SecondFF(PVector(h11, sig), PVector(h12, sig), PVector(h22, sig))


def shape_operators(h: SecondFF, frames: FrameData) -> tuple[Sym2, Sym2]:
    """A3, A4 with <h(ei,ej), er> = <A_er ei, ej>; reads the normal pair of frames."""
    w = frames.e3.signature.weights
    hs = np.array([v.coords for v in h.components()])
    a3, a4 = (hs * frames.e3.coords) @ w, (hs * frames.e4.coords) @ w
    return Sym2(*a3), Sym2(*a4)


def _h_invariants(h: SecondFF, c: float) -> tuple:
    """(H, H2, K, |KD|, defect, gram) from h, with no normal basis.

    With u = (h11 - h22)/2 and v = h12, the axes of the ellipse of
    curvature, the Gauss equation gives K = c + <h11,h22> - <h12,h12> and
    the Ricci equation |KD| = 2 sqrt(<u,u><v,v> - <u,v>^2); gram is
    (<u,u>, <u,v>, <v,v>), which ellipse_of_curvature takes.  That Gram
    determinant is taken as <u,u><v',v'> with v' = v - (<u,v>/<u,u>) u
    (v itself where u = 0), which keeps |KD| at roundoff where u and v are
    parallel; the difference of products loses half the digits there.
    The defect K - |KD| - <H,H> - c takes the minimum over the e4 -> -e4
    flip, so it reads |KD| alone and is orientation-free; _signed_kd gives
    KD's sign.  It is (a - b)^2 for the semi-axes a >= b of the ellipse, as
    in the paper's proof: with a^2 + b^2 = -<u,u> - <v,v> and 2ab = |KD|,
    (a - b)^2 = (a^2 - b^2)^2 / (a + b)^2, formed as ((<u,u> - <v,v>)^2 +
    4 <u,v>^2) / (|KD| - <u,u> - <v,v>), and 0 where that is not positive
    (a point ellipse).  The difference of K, |KD| and <H,H>, numbers of
    size |K|, would cancel near the light cone, where |K| grows to 1e8
    while the defect stays 0.
    """
    sig = h.h11.signature
    w = sig.weights
    h11, v, h22 = (x.coords for x in h.components())
    mean = 0.5 * (h11 + h22)
    u = 0.5 * (h11 - h22)
    k_sum, h2, uu, uv, vv = np.array([h11 * h22 - v * v, mean * mean, u * u, u * v, v * v]) @ w
    nonzero = uu != 0.0
    v_off_u = v - np.where(nonzero, uv / np.where(nonzero, uu, 1.0), 0.0)[..., None] * u
    abs_kd = 2.0 * np.sqrt(np.maximum(uu * ((v_off_u * v_off_u) @ w), 0.0))
    # (a^2 - b^2)^2 and (a + b)^2
    diff, sum_sq = uu - vv, abs_kd - uu - vv
    positive = sum_sq > 0.0
    defect = np.where(positive, (diff * diff + 4.0 * uv * uv) / np.where(positive, sum_sq, 1.0), 0.0)[()]
    return PVector(mean, sig), h2, c + k_sum, abs_kd, defect, (uu, uv, vv)


def _signed_kd(h: SecondFF, frames: FrameData, abs_kd) -> np.ndarray:
    """KD from |KD| (_h_invariants) and the sign that h and the jets of frames give it.

    KD's sign is that of -_ORIENT_SIGN det [x; psi_s; psi_t; u; v], whose
    Laplace expansion over column pairs multiplies the 2x2 minors of
    (u, v) by the jets' signed minors (frames.minors).  In the oriented
    frame KD = <[A3, A4] e1, e2> = -2 _ORIENT_SIGN det [x^; e1; e2; u; v],
    and det [x; psi_s; psi_t; .] has the sign of det [x^; e1; e2; .] (see
    _complete_normals).
    """
    h11, v, h22 = (x.coords for x in h.components())
    u = 0.5 * (h11 - h22)
    dim = h.h11.signature.total_dim
    pairs = dim * (dim - 1) // 2
    i, j = _PAIR_I[:pairs], _PAIR_J[:pairs]
    minors = u[..., i] * v[..., j] - u[..., j] * v[..., i]
    side = ((frames.minors * minors) @ _PAIR_ONES[:pairs]) * _ORIENT_SIGN[frames.jets.ambient.kind]
    return np.where(side > 0, -abs_kd, abs_kd)[()]


def invariants(a3: Sym2, a4: Sym2, frames: FrameData, c: float) -> CurvatureReport:
    """Scalar invariants from the shape operators, through h = -A3 e3 - A4 e4
    (_h_invariants), with KD signed at once (_signed_kd)."""
    e3, e4 = frames.e3.coords, frames.e4.coords
    h = SecondFF(*(
        PVector(-np.asarray(x3)[..., None] * e3 - np.asarray(x4)[..., None] * e4, frames.e3.signature)
        for x3, x4 in ((a3.a11, a4.a11), (a3.a12, a4.a12), (a3.a22, a4.a22))
    ))
    big_h, h2, k, abs_kd, defect, _ = _h_invariants(h, c)
    return CurvatureReport(a3, a4, big_h, h2, k, _signed_kd(h, frames, abs_kd), defect)


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
    wins ties.  Negating e4 negates A4 after the normal rotation, which
    leaves alpha, mu and theta alone and negates gamma and delta, so one
    eigen decomposition and one rotation serve both.
    """
    u1, u2 = 0.5 * (a3.a11 - a3.a22), a3.a12
    w1, w2 = 0.5 * (a4.a11 - a4.a22), a4.a12
    rho = np.where(
        np.hypot(a3.trace, a4.trace) > _TRACE_TOL,
        np.arctan2(a4.trace, a3.trace),
        0.5 * np.arctan2(2.0 * (u1 * w1 + u2 * w2), u1 * u1 + u2 * u2 - w1 * w1 - w2 * w2),
    )[()]
    cr, sr = np.cos(rho), np.sin(rho)
    mixed3 = Sym2(cr * a3.a11 + sr * a4.a11, cr * a3.a12 + sr * a4.a12, cr * a3.a22 + sr * a4.a22)
    mixed4 = Sym2(
        -sr * a3.a11 + cr * a4.a11, -sr * a3.a12 + cr * a4.a12, -sr * a3.a22 + cr * a4.a22
    )
    (alpha, mu), theta = eigen_sym2(mixed3)
    rotated4 = rotate_sym2(mixed4, theta)
    # (gamma, delta, residual) of both orientations; 0.0 - x, unlike -x,
    # gives a zero the sign that rotating -mixed4 gives it
    plain, flipped = (
        (g, d, np.sqrt(0.25 * (2.0 * g + mu - alpha) ** 2 + 2.0 * d * d))
        for g, d in ((rotated4.a12, rotated4.a11), (0.0 - rotated4.a12, 0.0 - rotated4.a11))
    )
    keep = plain[2] <= flipped[2]
    gamma, delta, residual = (np.where(keep, x, y)[()] for x, y in zip(plain, flipped))
    return CanonicalFrame(alpha, gamma, delta, mu, theta, rho, residual, ~keep)


def ellipse_of_curvature(h: SecondFF, center: PVector, gram: tuple | None = None) -> EllipseInfo:
    """Semi-axes and degeneracy flags of the ellipse of curvature.

    The spanning vectors are u = (h11 - h22)/2 and v = h12; squared lengths
    use -<.,.> since the normal plane is negative definite.  gram is
    (<u,u>, <u,v>, <v,v>) when the caller has formed it from this h
    (_h_invariants), else it is formed here.  The circle test compares
    |u|^2 with |v|^2 and checks <u,v> = 0, at _CIRCLE_TOL relative to the
    ellipse scale; the ellipse is a point when sqrt(|u|^2 + |v|^2) <=
    _POINT_TOL.
    """
    if gram is None:
        w = h.h12.signature.weights
        u = 0.5 * (h.h11.coords - h.h22.coords)
        v = h.h12.coords
        gram = (u * u) @ w, (u * v) @ w, (v * v) @ w
    uu, uv, vv = (-x for x in gram)
    # the eigenvalues mean +- radius of [[uu, uv], [uv, vv]] as eigen_sym2
    # forms them, without its eigen angle, which no field reads
    size, diff = uu + vv, uu - vv
    mean, radius = 0.5 * size, np.hypot(0.5 * diff, uv)
    a = np.sqrt(np.maximum(mean + radius, 0.0))
    b = np.sqrt(np.maximum(mean - radius, 0.0))
    is_point = np.sqrt(np.maximum(size, 0.0)) <= _POINT_TOL
    tol = _CIRCLE_TOL * np.maximum(1.0, size)
    is_circle = ~is_point & (np.abs(diff) <= tol) & (np.abs(uv) <= tol)
    return EllipseInfo(a=a, b=b, center=center, is_circle=is_circle, is_point=is_point)


def point_report(imm: Immersion, p: tuple) -> CurvatureReport:
    """Full pointwise pipeline at a node or a batch: frames, h and invariants,
    with the canonical frame, the ellipse and KD's sign on their first read.

    A single point of real numbers is row 0 of the nested-stencil report at
    _FD_STEP (_nested_report), which the FD checks at that point read next;
    the normal pair is completed at every stencil node first, once for the
    canonical frame and the checks.  When a stencil node fails, the point
    is built alone, so the report raises exactly when the point itself
    fails.
    """
    if _real(*p):
        try:
            nested = _nested_report(imm, p, _FD_STEP)
        except NeutralSurfError:
            pass  # some stencil node failed: the point's own build decides
        else:
            nested.frames._completed()
            return nested._take(0)
    return _build_report(imm, p)


def _build_report(imm: Immersion, p: tuple) -> CurvatureReport:
    """point_report of a build of its own at the nodes p, with the frames and h."""
    frames = build_frames(imm, p)
    h = second_fundamental_form(imm, p, frames)
    big_h, h2, k, abs_kd, defect, gram = _h_invariants(h, imm.ambient.curvature)
    rep = CurvatureReport(None, None, big_h, h2, k, None, defect, frames=frames, h=h)
    rep._gram, rep._abs_kd = gram, abs_kd
    return rep


# -- frame-derivative quantities ----------------------------------------


def _require_one_branch(same, p: tuple) -> None:
    """A scan branch change within a stencil cannot be repaired; same holds per point of p."""
    if not same.all():
        raise DegeneracyError(
            f"frame branch switch within the stencil at (s,t)={first_flagged(~same, *p)}"
        )


def _coordinate_forms(lead: list, trail: list, w: np.ndarray, step: float) -> np.ndarray:
    """w12 and w34 on the coordinate directions (d_s, d_t) at 5-point stencil centers.

    lead holds the coordinates of e1 (and e3), trail those of e2 (and e4),
    with the stencil axis (center, +s, -s, +t, -t) first; the result has
    shape (len(lead), 2, ...).  w12 = <D e1, e2> and w34 = -<D e3, e4> come
    from one stacked central difference.  Negating the tangent pair (a
    rotation by pi) leaves every frame invariant we compute unchanged, so
    e1 is first sign-matched to the center; this only removes angle
    wrap-arounds of derived frame fields.
    """
    e1 = lead[0]
    lead = np.array([np.where(((e1 * e1[0]) @ w < 0)[..., None], -e1, e1)] + lead[1:])
    d = (1.0 / (2.0 * step)) * (lead[:, _PLUS] - lead[:, _MINUS])
    forms = (d * np.array(trail)[:, :1]) @ w
    forms[1:] = -forms[1:]
    return forms


def _on_frame(fr: FrameData, forms: np.ndarray) -> np.ndarray:
    """(w(e1), w(e2)) of coordinate forms (w(d_s), w(d_t)) at the stencil center.

    forms and the result have shape (forms, 2, ...).  e = a d_s + b d_t
    comes from the Gram system of the velocities.
    """
    vel = fr.jets.table[1:3, 0]  # (psi_s, psi_t) at the center
    E, F, G = fr.metric.E[0], fr.metric.F[0], fr.metric.G[0]
    det = E * G - F * F
    x, y = (vel[:, None] * np.array([fr.e1.coords[0], fr.e2.coords[0]])) @ fr.e1.signature.weights
    a, b = (G * x - F * y) / det, (E * y - F * x) / det
    return a * forms[:, :1] + b * forms[:, 1:]


def connection_forms(imm: Immersion, p: tuple, step: float = _FD_STEP) -> ConnectionSample:
    """Connection forms of the tangent and normal bundles on (e1, e2).

    Defined by nabla_X e1 = w12(X) e2 and D_X e3 = w34(X) e4; with the
    time-like normals this evaluates as w34(X) = -<D_X e3, e4>, in the
    frame field build_frames gives.  p is a point or a batch of points; the
    forms read rows 0-4, the 5-point stencils, of the nested-stencil report
    (_nested_report), and each 5-point stencil must share one Gram-Schmidt
    branch.
    """
    fr = _nested_report(imm, p, step).frames
    _require_one_branch((fr.scan[:5] == fr.scan[0]).all(axis=(0, -1)), p)
    lead, trail = [fr.e1.coords[:5], fr.e3.coords[:5]], [fr.e2.coords[:5], fr.e4.coords[:5]]
    w12, w34 = _on_frame(fr, _coordinate_forms(lead, trail, fr.e1.signature.weights, step))
    return ConnectionSample(*w12, *w34)


def structure_equation_check(
    imm: Immersion, p: tuple, step: float = _FD_STEP
) -> tuple[float, float]:
    """Curvatures recovered from the structure equations.

    Estimates the exterior derivatives of the connection forms by nested
    central differences and returns (-d w12 / area form, -d w34 / area
    form) at each point of p, which must reproduce K and KD, from the
    frames of the 13 distinct nested-stencil nodes of every point (_nested_report).
    """
    return _structure(_nested_report(imm, p, step).frames, p, step)


def _structure(fr: FrameData, p: tuple, step: float) -> tuple:
    """structure_equation_check from the frames of the nested stencils of p."""
    same_scan = (fr.scan == fr.scan[0]).all(axis=(0, -1))
    _require_one_branch(same_scan & (fr.flipped[_NESTED[0]] == fr.flipped[0]).all(axis=0), p)
    # forms at the neighbours (+s, -s, +t, -t) of p, shape (form, direction, neighbour, ...)
    e1, e2, e3, e4 = (v.coords[_NESTED] for v in (fr.e1, fr.e2, fr.e3, fr.e4))
    w = _coordinate_forms([e1, e3], [e2, e4], fr.e1.signature.weights, step)
    inv2h = 1.0 / (2.0 * step)
    # d(P ds + Q dt) = (dQ/ds - dP/dt) ds^dt, evaluated for both forms
    d_w = inv2h * (w[:, 1, 0] - w[:, 1, 1]) - inv2h * (w[:, 0, 2] - w[:, 0, 3])
    return tuple(-d_w / np.sqrt(fr.metric.det[0]))


def codazzi_residual(imm: Immersion, p: tuple, step: float = _FD_STEP) -> float:
    """Finite-difference residual of the Codazzi symmetry of the covariant
    derivative of h.

    Compares (nabla-bar_{e1} h)(e2, .) against (nabla-bar_{e2} h)(e1, .) on
    both tangent slots and returns the larger coordinate norm per point of
    p; O(step^2) for a genuine immersion.  h and w12 come from rows 0-4,
    the 5-point stencils, of the nested-stencil report (_nested_report).
    h, D h and w12 do not depend on the normal basis, so the stencil needs
    no common scan branch, and the normal pair is not completed for it.
    """
    nested = _nested_report(imm, p, step)
    return _codazzi(nested.frames, nested.h, step)


def _codazzi(fr: FrameData, h: SecondFF, step: float) -> np.ndarray:
    """codazzi_residual from the frames and h whose rows 0-4 are 5-point stencils."""
    w, ones = fr.e1.signature.weights, fr.e1.signature.ones
    hs = np.array([v.coords for v in h.components()])
    # (D_s, D_t) of (h11, h12, h22), projected on the normal plane at p
    dh = (1.0 / (2.0 * step)) * (hs[:, _PLUS] - hs[:, _MINUS])
    dh = project_off(dh, [f[0] for f in fr.gram_schmidt], w)
    # the tangent coefficients at the stencil centers alone
    m = fr.metric
    a, b, c = (x[..., None] for x in _tangent_coeffs(MetricCoeffs(m.E[0], m.F[0], m.G[0])))
    d_e1 = a * dh[:, 0]
    d_e2 = b * dh[:, 0] + c * dh[:, 1]
    w12_e1, w12_e2 = _on_frame(fr, _coordinate_forms([fr.e1.coords], [fr.e2.coords], w, step))[0]
    w1, w2 = w12_e1[..., None], w12_e2[..., None]
    h11, h12, h22 = hs[:, 0]
    # (nabla-bar_{e1} h)(e2, e1) - (nabla-bar_{e2} h)(e1, e1)
    r1 = d_e1[1] + w1 * h11 - w1 * h22 - d_e2[0] + 2.0 * w2 * h12
    # (nabla-bar_{e1} h)(e2, e2) - (nabla-bar_{e2} h)(e1, e2)
    r2 = d_e1[2] + 2.0 * w1 * h12 - d_e2[1] + w2 * h22 - w2 * h11
    return np.sqrt(np.maximum((r1 * r1) @ ones, (r2 * r2) @ ones))


def _nested_stencil(p: tuple, step: float) -> tuple:
    """(s, t) arrays of the 13 nested-stencil nodes of every point of p, shape (13,) + batch shape."""
    s, t = p
    if np.shape(s) != np.shape(t):
        s, t = np.broadcast_arrays(s, t)
    return np.add.outer(step * _NESTED_DS, s), np.add.outer(step * _NESTED_DT, t)


def _nested_report(imm: Immersion, p: tuple, step: float) -> CurvatureReport:
    """The report, with frames and h, at the nested stencils of p: the only
    FD build, kept at a single point of real numbers (_kept_report)."""
    s, t = p
    if _real(s, t, step):
        return _kept_report(imm, s, t, step, build_frames, second_fundamental_form)
    return _build_report(imm, _nested_stencil(p, step))


def _real(*values) -> bool:
    """Whether every value is a real number, i.e. p is a single point that may be kept."""
    return all(isinstance(x, numbers.Real) for x in values)


@functools.lru_cache(maxsize=1)
def _kept_report(imm: Immersion, s, t, step, build, sff) -> CurvatureReport:
    """_nested_report at a single point of real numbers, the last one kept.

    A probe's point_report makes it at _FD_STEP and reads its row 0, and
    any single-point FD check after it reads its frames and h.  build and
    sff are the build_frames and second_fundamental_form in force and imm
    compares by identity, so a patched stage or another Immersion never
    meets a report built before it.  A build that raises is not kept.
    Equal numbers share the entry (s = 0.0 and -0.0 among them), and they
    give bit-identical nodes.
    """
    return _build_report(imm, _nested_stencil((s, t), step))


def _stencil_checks(nested: CurvatureReport, p: tuple, step: float) -> tuple:
    """The report at the points of p and both FD checks, from the report,
    with frames and h, at the nested stencils of p.

    nested has _nested_stencil's shape, as verify's batch gives it: row 0
    holds the points and rows 0-4 their 5-point stencils.  Returns (report,
    (K, KD) from the structure equations, Codazzi residual); raises
    InputMismatchError where step leaves a stencil's +-s or +-t nodes at one
    position.
    """
    fr = nested.frames
    # a step that leaves the +-s or the +-t nodes of a 5-point stencil at one
    # position makes every difference there an exact zero: the FD checks
    # would pass vacuously
    x = fr.jets.table[0]
    still = (x[_PLUS] == x[_MINUS]).all(axis=-1).any(axis=0)
    if still.any():
        raise InputMismatchError(
            f"tolerance fd_step {step!r} is too small to move the FD stencil at "
            f"(s,t)={first_flagged(still, *p)}"
        )
    # the structure equations complete the normal pair at every stencil node
    # first, so a canonical frame at row 0 takes it instead of completing it again
    structure = _structure(fr, p, step)
    return nested._take(0), structure, _codazzi(fr, nested.h, step)
