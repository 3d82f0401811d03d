"""Built-in immersions and the jet-valued evaluation interface.

An immersion's evaluator takes float arrays s and t of one shape (0-d at a
single point) and returns its jet table: every ambient coordinate with its
first and second partials at every node, shape (6, *nodes, ncomp), the
fields in FIELDS order first.  The catalog's evaluators write each field
straight into the table, except holomorphic_graph, which runs the jet
rules on field tuples (jets._add, _sub and product) at each evaluation;
from_definition packs its compiled jets into one (jets.pack).  The
definition-file language (expr) and the jet algebra (jets) load on first
use, by from_definition and holomorphic_graph.
Immersion.evaluate makes the table read-only and checks that it is finite,
and a JetPoint holds it.  Space-likeness is checked on the nodes a command
samples: curvature.build_frames forms the metric at every node and names
the first that is not space-like.  No surface is evaluated at
construction: random_polynomial's coefficients are space-like on its whole
domain by a closed-form bound (_validate_spacelike).
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING, Callable

import numpy as np

from .ambient import AmbientSpace, DomainRect
from .errors import DegeneracyError, InputMismatchError, first_flagged
from .pseudo_linalg import PVector, inner
from .records import FIELDS, Record

if TYPE_CHECKING:
    from .expr import SurfaceDefinition

_SQRT3 = math.sqrt(3.0)


class JetPoint(Record):
    """Ambient coordinates of an immersion with partials at one (s,t) or a batch.

    table holds every field of every coordinate, read-only, with shape
    (6, *shape, ncomp): the fields in FIELDS order first, the nodes next,
    the coordinates last.  The vectors, the shape and the Jet2 components
    are views of it.
    """

    __slots__ = _fields = ("ambient", "table")

    def __init__(self, ambient: AmbientSpace, table: np.ndarray):
        self.ambient = ambient
        self.table = table

    @property
    def shape(self) -> tuple:
        return self.table.shape[1:-1]

    @property
    def components(self) -> tuple:
        from .jets import Jet2

        return tuple(Jet2(*self.table[..., i]) for i in range(self.table.shape[-1]))

    def _vector(self, k: int) -> PVector:
        return PVector(self.table[k], self.ambient.signature)

    def _take(self, nodes) -> "JetPoint":
        """The jets at nodes, an index or index array into the leading node axis."""
        table = self.table[:, nodes]
        table.flags.writeable = False
        return JetPoint(self.ambient, table)

    def position(self) -> PVector:
        return self._vector(0)

    def velocity_s(self) -> PVector:
        return self._vector(1)

    def velocity_t(self) -> PVector:
        return self._vector(2)


class MetricCoeffs(Record):
    """First fundamental form coefficients E, F, G at a point or per node."""

    __slots__ = _fields = ("E", "F", "G")

    def __init__(self, E: float | np.ndarray, F: float | np.ndarray, G: float | np.ndarray):
        self.E = E
        self.F = F
        self.G = G

    @property
    def det(self):
        return self.E * self.G - self.F * self.F

    @property
    def positive_definite(self):
        return (self.E > 0.0) & (self.det > 0.0)


class Immersion(Record):
    """A named map into an ambient space; params and expected default to new empty dicts."""

    __slots__ = _fields = ("name", "ambient", "evaluator", "domain", "params", "expected")

    def __init__(
        self,
        name: str,
        ambient: AmbientSpace,
        evaluator: Callable[..., np.ndarray],
        domain: DomainRect,
        params: dict | None = None,
        expected: dict | None = None,
    ):
        self.name = name
        self.ambient = ambient
        self.evaluator = evaluator
        self.domain = domain
        self.params = {} if params is None else params
        self.expected = {} if expected is None else expected

    def evaluate(self, s, t) -> JetPoint:
        """Jets at the node (s, t), or at every node of s and t broadcast together; all finite.

        The evaluator gets s and t broadcast to one shape and returns the
        table itself, which becomes read-only.
        """
        s, t = np.asarray(s, float), np.asarray(t, float)
        if s.shape != t.shape:
            s, t = np.broadcast_arrays(s, t)
        with np.errstate(over="ignore", invalid="ignore"):
            table = self.evaluator(s, t)
        table.flags.writeable = False
        finite = np.isfinite(table)
        if not finite.all():
            node = first_flagged(~finite.all(axis=(0, -1)), s, t)
            raise DegeneracyError(f"surface {self.name!r} has jets that are not finite at (s,t)={node}")
        return JetPoint(self.ambient, table)


def metric_from_velocities(imm: Immersion, p: tuple, vs: PVector, vt: PVector) -> MetricCoeffs:
    """E, F, G from the coordinate velocities at p; degeneracy error if not space-like.

    Over a batch the error names the first node (C order) that is not.
    """
    # velocities too large for their products give an inf or nan metric,
    # which the check names as not space-like, with no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        m = MetricCoeffs(inner(vs, vs), inner(vs, vt), inner(vt, vt))
        bad = ~m.positive_definite
        if bad.any():
            s, t, e, det = first_flagged(bad, *p, m.E, m.det)
            raise DegeneracyError(
                f"surface {imm.name!r} is not space-like at (s,t)={(s, t)}: "
                f"E={e:.6g}, EG-F^2={det:.6g}"
            )
    return m


def check_membership(imm: Immersion, points: list[tuple[float, float]]) -> float:
    """Max over points of |<x,x> - 1/c| for a non-flat ambient."""
    if imm.ambient.is_flat:
        raise InputMismatchError("membership check only applies to non-flat ambients")
    s, t = np.reshape(np.asarray(points, dtype=float), (-1, 2)).T
    return _membership_residual(imm, imm.evaluate(s, t).position())


def _membership_residual(imm: Immersion, x: PVector) -> float:
    """Max over the nodes of the positions x of |<x,x> - 1/c|."""
    return float(np.max(np.abs(inner(x, x) - imm.ambient.membership_target), initial=0.0))


# -- built-in surfaces -------------------------------------------------


def _fixed_h42(name: str, evaluator: Callable[..., np.ndarray], expected: dict) -> Callable[[dict], Immersion]:
    """The builder of a surface with no parameters in H(3,2; -1) on [-1,1]^2."""

    def build(params: dict) -> Immersion:
        _reject_params(name, params)
        return Immersion(
            name=name,
            ambient=AmbientSpace.pseudo_hyperbolic(-1.0),
            evaluator=evaluator,
            domain=DomainRect(-1.0, 1.0, -1.0, 1.0),
            expected=dict(expected),
        )

    return build


def _table(s: np.ndarray, ncomp: int, fill=np.empty) -> tuple:
    """A jet table for ncomp coordinates at the nodes of s, and a view of it per coordinate."""
    table = fill((len(FIELDS),) + s.shape + (ncomp,))
    return table, np.moveaxis(table, -1, 0)


# The evaluators below write each field as the Jet2 rules (jets.py) form
# it from the seeds of s and t once the structural zeros and ones are
# resolved: the same float operations in the same order, so a table equals
# the rules' bit for bit at a batch (at a single point a zero may differ
# in sign, as jets.py says).
_K = 2.0 / _SQRT3
_THIRD = 1.0 / 3.0
_EIGHTEENTH = 1.0 / 18.0


def _phi_h42_eval(s, t) -> np.ndarray:
    # u = K s; sinh u and exp u as jets in s, whose d_t fields are zero
    u = s * _K
    sh, ch, ex = np.sinh(u), np.cosh(u), np.exp(u)
    ex_s = ex * _K
    ex_ss = ex_s * _K
    sh_s, sh_ss = ch * _K, sh * _K * _K
    # t^2, t^3, t^4 as jets in t (val, d_t, d_tt); t^2's d_tt is 2.0
    t2, t2_t = t * t, t + t
    t3, t3_t, t3_tt = t2 * t, t2_t * t + t2, 2.0 * t + 2.0 * t2_t
    t4 = t2 * t2
    t4_t = t2_t * t2 + t2 * t2_t
    t4_tt = 2.0 * t2 + 2.0 * t2_t * t2_t + t2 * 2.0
    # c1 and c5 are sinh u - t^2/3 - (a + t^4/18) exp u, a = 7/8 and 1/8:
    # they share every field but the value and the d_s fields
    q, q_t, q_tt = t4 * _EIGHTEENTH, t4_t * _EIGHTEENTH, t4_tt * _EIGHTEENTH
    table, (c1, c2, c3, c4, c5) = _table(s, 5)
    head = sh - t2 * _THIRD
    for c, a in ((c1, q + 0.875), (c5, q + 0.125)):
        c[0] = head - a * ex
        c[1] = sh_s - a * ex_s
        c[3] = sh_ss - a * ex_ss
    c1[2] = c5[2] = -(t2_t * _THIRD) - q_t * ex
    c1[4] = c5[4] = -(q_t * ex_s)
    c1[5] = c5[5] = -(2.0 * _THIRD) - q_tt * ex
    # c2 and c4 are t + (t^3/3 -+ t/4) exp u
    p, p_t, p_tt = t3 * _THIRD, t3_t * _THIRD, t3_tt * _THIRD
    c2[5] = c4[5] = p_tt * ex
    quarter = t * 0.25
    for c, b, b_t in ((c2, p - quarter, p_t - 0.25), (c4, p + quarter, p_t + 0.25)):
        c[0] = t + b * ex
        c[1] = b * ex_s
        c[2] = 1.0 + b_t * ex
        c[3] = b * ex_ss
        c[4] = b_t * ex_s
    # c3 is 1/2 + (t^2/2) exp u, whose d_tt factor (t^2/2)'' is 1.0
    h, h_t = t2 * 0.5, t2_t * 0.5
    c3[0] = h * ex + 0.5
    c3[1] = h * ex_s
    c3[2] = h_t * ex
    c3[3] = h * ex_ss
    c3[4] = h_t * ex_s
    c3[5] = ex
    return table


_build_phi_h42 = _fixed_h42(
    "phi_h42",
    _phi_h42_eval,
    {"K": -1.0 / 3.0, "KD": -2.0 / 3.0, "H2": 0.0, "minimal": True, "equality": True},
)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _flat_l_eval(s, t) -> np.ndarray:
    # (cosh s, cosh t, 0, sinh s, sinh t) / sqrt 2
    table, (x1, x2, _, x4, x5) = _table(s, 5, np.zeros)
    sh, ch = np.sinh(s) * _INV_SQRT2, np.cosh(s) * _INV_SQRT2
    x1[0] = x1[3] = x4[1] = ch
    x4[0] = x4[3] = x1[1] = sh
    sh, ch = np.sinh(t) * _INV_SQRT2, np.cosh(t) * _INV_SQRT2
    x2[0] = x2[5] = x5[2] = ch
    x5[0] = x5[5] = x2[2] = sh
    return table


# K = KD = H2 = 0 with c = -1, so K + KD sits strictly above H2 + c:
# this surface never achieves equality (its defect is identically 1)
_build_flat_l = _fixed_h42(
    "flat_L",
    _flat_l_eval,
    {"K": 0.0, "KD": 0.0, "H2": 0.0, "minimal": True, "equality": False},
)


def _hyperbolic_plane(s, t, radius: float, x, y, z) -> None:
    """Writes radius (cosh s cosh t, sinh s, cosh s sinh t) to the coordinate views x, y, z."""
    sh, ch = np.sinh(s) * radius, np.cosh(s) * radius
    sh_t, ch_t = np.sinh(t), np.cosh(t)
    x[0] = x[3] = x[5] = z[2] = ch * ch_t
    x[1] = z[4] = sh * ch_t
    x[2] = z[0] = z[3] = z[5] = ch * sh_t
    x[4] = z[1] = sh * sh_t
    y[0] = y[3] = sh
    y[1] = ch


def _geodesic_eval(s, t) -> np.ndarray:
    table, (x1, _, _, x4, x5) = _table(s, 5, np.zeros)
    _hyperbolic_plane(s, t, 1.0, x1, x5, x4)
    return table


_build_totally_geodesic = _fixed_h42(
    "totally_geodesic_h42",
    _geodesic_eval,
    {"K": -1.0, "KD": 0.0, "H2": 0.0, "minimal": True, "equality": True, "totally_geodesic": True},
)


def _poly_coeffs_from_param(f) -> np.ndarray:
    """Polynomial coefficients of f(z), lowest degree first, all finite; a
    number is the constant polynomial."""
    if isinstance(f, numbers.Number):
        coeffs = np.array([complex(f)])
    elif isinstance(f, str):
        from .expr import eval_numeric, parse_expression

        ast = parse_expression(f, variables=("z",))
        z = np.polynomial.Polynomial([0.0, 1.0])
        # a coefficient out of float range is rejected below, with no numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            value = eval_numeric(ast, {"z": z})
        if not isinstance(value, np.polynomial.Polynomial):
            value = np.polynomial.Polynomial([complex(value)])
        coeffs = np.asarray(value.coef, dtype=complex)
    else:
        coeffs = np.asarray(list(f), dtype=complex)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise InputMismatchError("polynomial coefficients must be a non-empty sequence")
    if not np.isfinite(coeffs).all():
        raise InputMismatchError(f"holomorphic_graph f must have finite coefficients, got {f!r}")
    return coeffs


def _holomorphic_eval(coeffs: np.ndarray) -> Callable[..., np.ndarray]:
    # Horner evaluation of f(s + i t) on the fields of complex jets, (re,
    # im) pairs, by the Jet2 rules on field tuples (_add, _sub, product).  A
    # coefficient part is a float field, so the structural rules drop the
    # terms that these coefficients make zero at every node
    from .jets import _add, _sub, pack, product

    # each coefficient part as the fields of its constant jet
    parts = [[(float(x), 0.0, 0.0, 0.0, 0.0, 0.0) for x in (c.real, c.imag)] for c in coeffs[::-1]]

    def evaluate(s, t) -> np.ndarray:
        js, jt = (s, 1.0, 0.0, 0.0, 0.0, 0.0), (t, 0.0, 1.0, 0.0, 0.0, 0.0)
        re, im = parts[0]
        for c_re, c_im in parts[1:]:
            re, im = (
                tuple(map(_add, map(_sub, product(re, js), product(im, jt)), c_re)),
                tuple(map(_add, map(_add, product(re, jt), product(im, js)), c_im)),
            )
        return pack([js, jt, re, im], s.shape)

    return evaluate


def _build_holomorphic_graph(params: dict) -> Immersion:
    params = dict(params)
    f = params.pop("f", None)
    _reject_params("holomorphic_graph", params)
    if f is None:
        raise InputMismatchError("holomorphic_graph requires parameter 'f' (polynomial in z)")
    coeffs = _poly_coeffs_from_param(f)
    # space-like where |f'(z)| > 1: build_frames checks each node sampled
    return Immersion(
        name="holomorphic_graph",
        ambient=AmbientSpace.flat(),
        evaluator=_holomorphic_eval(coeffs),
        domain=DomainRect(1.2, 2.0, 0.5, 1.5),
        params={"f": f if isinstance(f, str) else [complex(c) for c in coeffs]},
        expected={"H2": 0.0, "minimal": True, "equality": True},
    )


def _umbilical_eval(radius: float) -> Callable[..., np.ndarray]:
    # a radius of 1.0 scales each field by 1.0, which leaves it as it is
    def evaluate(s, t) -> np.ndarray:
        table, (_, x2, x3, x4) = _table(s, 4, np.zeros)
        _hyperbolic_plane(s, t, radius, x2, x3, x4)
        return table

    return evaluate


def _build_umbilical_flat(params: dict) -> Immersion:
    params = dict(params)
    radius = _number(float, params.pop("radius", 1.0), math.nan)
    _reject_params("umbilical_flat", params)
    if not 0 < radius < math.inf:
        raise InputMismatchError("umbilical_flat radius must be positive and finite")
    # K = -1/radius^2 needs a square in float range
    if not 0.0 < radius * radius < math.inf:
        raise InputMismatchError(f"umbilical_flat radius^2 must be finite and nonzero, got radius {radius!r}")
    k = -1.0 / (radius * radius)
    return Immersion(
        name="umbilical_flat",
        ambient=AmbientSpace.flat(),
        evaluator=_umbilical_eval(radius),
        domain=DomainRect(-1.0, 1.0, -1.0, 1.0),
        params={"radius": radius},
        expected={"K": k, "KD": 0.0, "H2": k, "equality": True},
    )


_MONOMIALS = [(i, j) for total in range(4) for i in range(total + 1) for j in [total - i]]
# The structurally nonzero (monomial, jet field) products: s^i t^j has no
# derivative of order above i in s or j in t.  Level m holds the m-th such
# monomial of each field that has one, which are the first 6, 6, 6, 3, 3, 3,
# 1, 1, 1, 1 fields in FIELDS order: 31 products, taken level by level.
_ORDERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
_NONZERO = [[k for k, (i, j) in enumerate(_MONOMIALS) if i >= a and j >= b] for a, b in _ORDERS]
_LEVELS = [[ks[m] for ks in _NONZERO if m < len(ks)] for m in range(len(_MONOMIALS))]
# per product: its monomial, and its gather indices into the power table
# (the power of s and of t, the order of the derivative in s and in t)
_TERM_K = [k for level in _LEVELS for k in level]
_TERM_S, _TERM_T, _ORDER_S, _ORDER_T = np.array(
    [(*_MONOMIALS[k], *_ORDERS[f]) for level in _LEVELS for f, k in enumerate(level)]
).T[..., None]
# the levels in runs of one width n, as the widths never grow: (n, the
# run's first product, its end)
_WIDTHS = [len(ks) for ks in _LEVELS]
_RUNS = [(n, sum(w for w in _WIDTHS if w > n), sum(w for w in _WIDTHS if w >= n)) for n in dict.fromkeys(_WIDTHS)]


def _random_poly_eval(coeff_p: np.ndarray, coeff_q: np.ndarray) -> Callable[..., np.ndarray]:
    # per product: its coefficients (product, perturbation, node)
    coeffs = np.stack([coeff_p, coeff_q], axis=1)[_TERM_K, :, None]

    def evaluate(s, t) -> np.ndarray:
        # s^k and t^k, k <= 3, each with its first and second derivative,
        # as jpow's repeated products form them: table (power, derivative
        # order, variable, node)
        pw = np.zeros((4, 3, 2, np.size(s)))
        pw[0, 0] = pw[1, 1] = 1.0
        pw[1, 0] = np.ravel(s), np.ravel(t)
        x = pw[1, 0]
        x2, x2_d = x * x, x + x
        pw[2, 0], pw[2, 1], pw[2, 2] = x2, x2_d, 2.0
        pw[3, 0], pw[3, 1], pw[3, 2] = x2 * x, x2_d * x + x2, 2.0 * x + 2.0 * x2_d
        # a field of s^i t^j is the product of an s^i field and a t^j field
        # (the other terms of the product rule are zeros).  Each field sums
        # its nonzero terms c * product in monomial order from 0.0, a level
        # at a time: the sum over all monomials bit for bit, since a zero
        # term leaves such a sum as it is.  The accumulator is (field,
        # perturbation, node), so a level adds to one contiguous block.
        prods = pw[_TERM_S, _ORDER_S, 0] * pw[_TERM_T, _ORDER_T, 1]
        acc = np.zeros((len(_ORDERS), 2, np.size(s)))
        for n, lo, hi in _RUNS:
            head, terms = acc[:n], coeffs[lo:hi] * prods[lo:hi]
            for k in range(0, hi - lo, n):
                head += terms[k : k + n]
        # the coordinates (p, q, s, t)
        table = np.zeros((len(FIELDS), np.size(s), 4))
        table[..., :2] = np.moveaxis(acc, 1, -1)
        table[0, :, 2:], table[1, :, 2], table[2, :, 3] = x.T, 1.0, 1.0
        return table.reshape((len(FIELDS),) + np.shape(s) + (4,))

    return evaluate


# random_polynomial's coefficients: numpy's default_rng(seed) stream,
# reproduced without importing numpy's random module, which costs a fresh
# process about 6 MB and 13 ms for the twenty draws a surface takes
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hashmix(const: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's hashmix, over its own running 32-bit constant."""
    h = [const]

    def mix(value: int) -> int:
        value ^= h[0]
        h[0] = h[0] * mult & _M32
        value = value * h[0] & _M32
        return value ^ value >> 16

    return mix


def _seed_words(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, uint64), for a seed >= 0."""
    entropy = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        # SeedSequence's mix(x, hashmix(y))
        r = (0xCA01F9DD * x - 0x4973F715 * hashmix(y)) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], pool[src])
    for word in entropy[4:]:
        pool = [mix(x, word) for x in pool]
    out = _hashmix(0x8B51F9DD, 0x58F38DED)
    words = [out(pool[i % 4]) for i in range(8)]
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _uniform_draws(seed: int):
    """Doubles in [0, 1), bit for bit numpy's default_rng(seed).random() stream.

    numpy's PCG64 (O'Neill, HMC-CS-2014-0905: a 128-bit LCG with the XSL-RR
    output), seeded from SeedSequence(seed); a double is an output's top 53
    bits times 2**-53.
    """
    w = _seed_words(seed)
    mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, (w[2] << 65 | w[3] << 1 | 1) & _M128
    state = ((inc + (w[0] << 64 | w[1])) * mult + inc) & _M128
    while True:
        state = (state * mult + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        yield (x >> 11) * 2.0**-53


def _validate_spacelike(coeff_p: np.ndarray, coeff_q: np.ndarray, domain: DomainRect) -> bool:
    """Whether the graph (p, q, s, t) of the cubics with these coefficients
    is space-like on all of domain, by a closed-form bound.

    With a = p_s^2 + q_s^2 and b = p_t^2 + q_t^2 the metric is E = 1 - a,
    G = 1 - b and F^2 <= ab (Cauchy-Schwarz), so E >= 1 - a and
    EG - F^2 >= 1 - a - b.  On the domain |d_s s^i t^j| <= i rs^(i-1) rt^j,
    rs and rt the largest |s| and |t|, which bounds max|p_s| by a sum; A is
    (max|p_s|)^2 + (max|q_s|)^2, B the same in t, and A + B < 1 is space-like.
    At amplitude <= 0.1 on [-0.5,0.5]^2 each first partial is at most 0.4,
    so A + B <= 0.64.
    """
    rs, rt = max(abs(domain.s0), abs(domain.s1)), max(abs(domain.t0), abs(domain.t1))
    d_s = np.array([i * rs ** max(i - 1, 0) * rt**j for i, j in _MONOMIALS])
    d_t = np.array([j * rs**i * rt ** max(j - 1, 0) for i, j in _MONOMIALS])
    c = np.abs(np.stack([coeff_p, coeff_q]))
    bounds = c @ np.stack([d_s, d_t], axis=1)
    return bool((bounds * bounds).sum() < 1.0)


def _coefficients(draws, amplitude: float) -> np.ndarray:
    """The next default_rng(seed).uniform(-amplitude, amplitude, size=10), as numpy forms it."""
    return np.array([-amplitude + (amplitude + amplitude) * next(draws) for _ in _MONOMIALS])


def _build_random_polynomial(params: dict) -> Immersion:
    params = dict(params)
    seed = params.pop("seed", 0)
    seed_value = _number(int, seed, -1)
    # int() truncates a fraction: a number must equal its integer part
    if seed_value < 0 or (seed_value != seed and not isinstance(seed, str)):
        raise InputMismatchError(f"random_polynomial seed must be a non-negative integer, got {seed!r}")
    amplitude = _number(float, params.pop("amplitude", 0.1), math.nan)
    _reject_params("random_polynomial", params)
    if not 0 < amplitude <= 0.1:
        raise InputMismatchError("random_polynomial amplitude must be in (0, 0.1]")
    draws = _uniform_draws(seed_value)
    coeff_p, coeff_q = _coefficients(draws, amplitude), _coefficients(draws, amplitude)
    domain = DomainRect(-0.5, 0.5, -0.5, 0.5)
    if not _validate_spacelike(coeff_p, coeff_q, domain):
        raise DegeneracyError(
            f"random_polynomial seed={seed_value}: coefficients outside the space-like bound"
        )
    return Immersion(
        name="random_polynomial",
        ambient=AmbientSpace.flat(),
        evaluator=_random_poly_eval(coeff_p, coeff_q),
        domain=domain,
        params={"seed": seed_value, "amplitude": amplitude},
    )


def _number(cast, value, invalid):
    """cast(value), or invalid, which the caller rejects, when value is not a number."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        return invalid


def _reject_params(name: str, params: dict) -> None:
    if params:
        raise InputMismatchError(f"{name} does not accept parameters {sorted(params)}")


class CatalogEntry(Record):
    __slots__ = _fields = ("name", "builder", "param_schema", "note")

    def __init__(self, name: str, builder: Callable[[dict], Immersion], param_schema: str, note: str):
        self.name = name
        self.builder = builder
        self.param_schema = param_schema
        self.note = note


_CATALOG = [
    CatalogEntry(
        "phi_h42",
        _build_phi_h42,
        "none",
        "minimal immersion of the hyperbolic plane of curvature -1/3 into the "
        "pseudo-hyperbolic 4-space of curvature -1; satisfies KD = 2K = -2/3",
    ),
    CatalogEntry(
        "flat_L",
        _build_flat_l,
        "none",
        "flat minimal product-of-hyperbolas surface in the pseudo-hyperbolic "
        "4-space; K = KD = 0",
    ),
    CatalogEntry(
        "totally_geodesic_h42",
        _build_totally_geodesic,
        "none",
        "totally geodesic hyperbolic plane in the pseudo-hyperbolic 4-space; "
        "K = -1, KD = 0",
    ),
    CatalogEntry(
        "holomorphic_graph",
        _build_holomorphic_graph,
        "f: polynomial in z (string like 'z^2/2' or coefficient list, low degree "
        "first); space-like where |f'(z)| > 1",
        "graph z -> (z, f(z)) of a holomorphic polynomial in the neutral 4-space "
        "with its standard complex structure; minimal with K = -KD",
    ),
    CatalogEntry(
        "umbilical_flat",
        _build_umbilical_flat,
        "radius: real > 0 (default 1)",
        "totally umbilical hyperbolic plane in the neutral 4-space (h "
        "proportional to the metric); non-minimal equality case",
    ),
    CatalogEntry(
        "random_polynomial",
        _build_random_polynomial,
        "seed: integer (default 0); amplitude: real in (0, 0.1] (default 0.1)",
        "random degree-<=3 polynomial perturbation of a space-like plane, "
        "space-like on its domain by a bound on the coefficients; generic "
        "strict-inequality witness",
    ),
]

_BY_NAME = {entry.name: entry for entry in _CATALOG}


def catalog_names() -> list[str]:
    return [entry.name for entry in _CATALOG]


def catalog_entries() -> list[CatalogEntry]:
    return list(_CATALOG)


def catalog_get(name: str, params: dict | None = None) -> Immersion:
    """Construct a built-in immersion by name."""
    entry = _BY_NAME.get(name)
    if entry is None:
        raise InputMismatchError(
            f"unknown surface {name!r}; available: {', '.join(catalog_names())}"
        )
    return entry.builder(dict(params or {}))


def from_definition(defn: SurfaceDefinition) -> Immersion:
    """Wrap a parsed surface definition, compiled once, as an evaluable immersion."""
    from . import jets
    from .expr import compile_jets

    program = compile_jets(defn.components)
    return Immersion(
        name=defn.name,
        ambient=defn.ambient,
        evaluator=lambda s, t: jets.pack([c.fields for c in program(*jets.seed(s, t))], s.shape),
        domain=defn.domain,
    )
