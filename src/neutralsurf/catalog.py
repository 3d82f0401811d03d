"""Built-in immersions and the jet-valued evaluation interface.

Every entry evaluates to a JetPoint: the ambient coordinates of the map
together with their first and second partials at the requested parameter
point, or at every node of a batch when s and t are arrays.  Space-likeness
is checked on the nodes a command samples: curvature.build_frames forms the
metric at every node and names the first that is not space-like.  Only
random_polynomial evaluates a surface at construction, a 33x33 sample of
its domain per try, to search for space-like coefficients.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np

from .ambient import AmbientSpace, DomainRect
from .errors import DegeneracyError, InputMismatchError, first_flagged
from .expr import SurfaceDefinition, compile_jets, eval_numeric, parse_expression
from .jets import FIELDS, Jet2, jcosh, jexp, jsinh, seed
from .pseudo_linalg import PVector, inner
from .records import Record

_SQRT3 = math.sqrt(3.0)
_VALIDATION_GRID = 33


class JetPoint(Record):
    """Ambient coordinates of an immersion with partials at one (s,t) or a batch.

    A component that does not depend on (s, t) may hold scalar fields.  On
    first use every field of every component is copied once into a
    read-only table of shape (6, *shape, ncomp), broadcasting the scalar
    fields; the vectors are views of it.  Immersion.evaluate sets the shape
    to that of the broadcast nodes; a JetPoint built directly broadcasts
    the shapes of its fields on first use.  _minors holds the jets' signed
    minors once curvature has formed them (curvature._minors_of), else None;
    _take carries the taken rows of both tables.
    """

    __slots__ = ("ambient", "components", "_shape", "_table", "_minors")
    _fields = ("ambient", "components")

    def __init__(self, ambient: AmbientSpace, components: tuple):
        self.ambient = ambient
        self.components = components
        self._shape = self._table = self._minors = None

    @property
    def shape(self) -> tuple:
        if self._shape is None:
            self._shape = np.broadcast_shapes(
                *(np.shape(getattr(c, f)) for c in self.components for f in FIELDS)
            )
        return self._shape

    def _rows(self, k) -> np.ndarray:
        """Rows k (an index or a slice) of the table, coordinates last."""
        if self._table is None:
            out = np.empty((len(FIELDS),) + self.shape + (len(self.components),))
            for i, c in enumerate(self.components):
                for j, f in enumerate(FIELDS):
                    out[j, ..., i] = getattr(c, f)
            out.flags.writeable = False
            self._table = out
        return self._table[k]

    def _vector(self, k: int) -> PVector:
        return PVector(self._rows(k), self.ambient.signature)

    def _take(self, nodes) -> "JetPoint":
        """The jets at nodes, an index or index array into the leading node axis."""
        table = self._rows(slice(None))[:, nodes]
        jp = JetPoint(self.ambient, tuple(Jet2(*table[..., i]) for i in range(table.shape[-1])))
        table.flags.writeable = False
        jp._shape, jp._table = table.shape[1:-1], table
        # each minor is elementwise in the nodes, so the taken rows are the
        # minors of the taken jets bit for bit
        if self._minors is not None:
            jp._minors = self._minors[nodes]
        return jp

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
        evaluator: Callable[..., JetPoint],
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
        """Jets at the node (s, t), or at every node of s and t broadcast together; all finite."""
        s, t = np.broadcast_arrays(np.asarray(s, float), np.asarray(t, float))
        with np.errstate(over="ignore", invalid="ignore"):
            jp = self.evaluator(s, t)
        # each field holds one value per node or one for all nodes, so the
        # nodes give the shape without broadcasting every field
        jp._shape = s.shape
        finite = np.isfinite(jp._rows(slice(None)))
        if not finite.all():
            node = first_flagged(~finite.all(axis=(0, -1)), s, t)
            raise DegeneracyError(f"surface {self.name!r} has jets that are not finite at (s,t)={node}")
        return jp


def metric_from_velocities(
    imm: Immersion, p: tuple, vs: PVector, vt: PVector, check: bool = True
) -> MetricCoeffs:
    """E, F, G from the coordinate velocities at p; degeneracy error if not space-like.

    Over a batch the error names the first node (C order) that is not.
    """
    # velocities too large for their products give an inf or nan metric,
    # which the check names as not space-like, with no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        m = MetricCoeffs(inner(vs, vs), inner(vs, vt), inner(vt, vt))
        bad = ~m.positive_definite
        if check and np.any(bad):
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


def _validate_spacelike(imm: Immersion) -> bool:
    ss, ts = imm.domain.grid(_VALIDATION_GRID, _VALIDATION_GRID)
    grid = np.meshgrid(ss, ts, indexing="ij")
    jp = imm.evaluate(*grid)
    m = metric_from_velocities(imm, grid, jp.velocity_s(), jp.velocity_t(), check=False)
    return bool(np.all(m.positive_definite))


# -- built-in surfaces -------------------------------------------------


def _fixed_h42(
    name: str, evaluator: Callable[[AmbientSpace], Callable[..., JetPoint]], expected: dict
) -> Callable[[dict], Immersion]:
    """The builder of a surface with no parameters in H(3,2; -1) on [-1,1]^2."""

    def build(params: dict) -> Immersion:
        _reject_params(name, params)
        ambient = AmbientSpace.pseudo_hyperbolic(-1.0)
        return Immersion(
            name=name,
            ambient=ambient,
            evaluator=evaluator(ambient),
            domain=DomainRect(-1.0, 1.0, -1.0, 1.0),
            expected=dict(expected),
        )

    return build


def _phi_h42_eval(ambient: AmbientSpace) -> Callable[..., JetPoint]:
    def evaluate(s, t) -> JetPoint:
        js, jt = seed(s, t)
        u = (2.0 / _SQRT3) * js
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
        return JetPoint(ambient, (c1, c2, c3, c4, c5))

    return evaluate


_build_phi_h42 = _fixed_h42(
    "phi_h42",
    _phi_h42_eval,
    {"K": -1.0 / 3.0, "KD": -2.0 / 3.0, "H2": 0.0, "minimal": True, "equality": True},
)


def _flat_l_eval(ambient: AmbientSpace) -> Callable[..., JetPoint]:
    r = 1.0 / math.sqrt(2.0)

    def evaluate(s, t) -> JetPoint:
        js, jt = seed(s, t)
        zero = Jet2.constant(0.0)
        return JetPoint(
            ambient,
            (r * jcosh(js), r * jcosh(jt), zero, r * jsinh(js), r * jsinh(jt)),
        )

    return evaluate


# K = KD = H2 = 0 with c = -1, so K + KD sits strictly above H2 + c:
# this surface never achieves equality (its defect is identically 1)
_build_flat_l = _fixed_h42(
    "flat_L",
    _flat_l_eval,
    {"K": 0.0, "KD": 0.0, "H2": 0.0, "minimal": True, "equality": False},
)


def _geodesic_eval(ambient: AmbientSpace) -> Callable[..., JetPoint]:
    def evaluate(s, t) -> JetPoint:
        js, jt = seed(s, t)
        zero = Jet2.constant(0.0)
        cs, ss_ = jcosh(js), jsinh(js)
        ct, st = jcosh(jt), jsinh(jt)
        return JetPoint(ambient, (cs * ct, zero, zero, cs * st, ss_))

    return evaluate


_build_totally_geodesic = _fixed_h42(
    "totally_geodesic_h42",
    _geodesic_eval,
    {"K": -1.0, "KD": 0.0, "H2": 0.0, "minimal": True, "equality": True, "totally_geodesic": True},
)


def _poly_coeffs_from_param(f) -> np.ndarray:
    """Polynomial coefficients of f(z), lowest degree first; a number is the constant polynomial."""
    if isinstance(f, numbers.Number):
        return np.array([complex(f)])
    if isinstance(f, str):
        ast = parse_expression(f, variables=("z",))
        z = np.polynomial.Polynomial([0.0, 1.0])
        value = eval_numeric(ast, {"z": z})
        if not isinstance(value, np.polynomial.Polynomial):
            value = np.polynomial.Polynomial([complex(value)])
        return np.asarray(value.coef, dtype=complex)
    coeffs = np.asarray(list(f), dtype=complex)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise InputMismatchError("polynomial coefficients must be a non-empty sequence")
    return coeffs


def _holomorphic_eval(
    ambient: AmbientSpace, coeffs: np.ndarray
) -> Callable[..., JetPoint]:
    # complex jets as (re, im) pairs; Horner evaluation of f(s + i t)
    def evaluate(s, t) -> JetPoint:
        js, jt = seed(s, t)
        acc_re = Jet2.constant(coeffs[-1].real)
        acc_im = Jet2.constant(coeffs[-1].imag)
        for c in coeffs[-2::-1]:
            acc_re, acc_im = (
                acc_re * js - acc_im * jt + c.real,
                acc_re * jt + acc_im * js + c.imag,
            )
        return JetPoint(ambient, (js, jt, acc_re, acc_im))

    return evaluate


def _build_holomorphic_graph(params: dict) -> Immersion:
    params = dict(params)
    f = params.pop("f", None)
    _reject_params("holomorphic_graph", params)
    if f is None:
        raise InputMismatchError("holomorphic_graph requires parameter 'f' (polynomial in z)")
    coeffs = _poly_coeffs_from_param(f)
    ambient = AmbientSpace.flat()
    # space-like where |f'(z)| > 1: build_frames checks each node sampled
    return Immersion(
        name="holomorphic_graph",
        ambient=ambient,
        evaluator=_holomorphic_eval(ambient, coeffs),
        domain=DomainRect(1.2, 2.0, 0.5, 1.5),
        params={"f": f if isinstance(f, str) else [complex(c) for c in coeffs]},
        expected={"H2": 0.0, "minimal": True, "equality": True},
    )


def _umbilical_eval(
    ambient: AmbientSpace, radius: float
) -> Callable[..., JetPoint]:
    def evaluate(s, t) -> JetPoint:
        js, jt = seed(s, t)
        zero = Jet2.constant(0.0)
        cs, ss_ = jcosh(js), jsinh(js)
        ct, st = jcosh(jt), jsinh(jt)
        return JetPoint(ambient, (zero, radius * cs * ct, radius * ss_, radius * cs * st))

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
    ambient = AmbientSpace.flat()
    k = -1.0 / (radius * radius)
    return Immersion(
        name="umbilical_flat",
        ambient=ambient,
        evaluator=_umbilical_eval(ambient, radius),
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


def _random_poly_eval(
    ambient: AmbientSpace, coeff_p: np.ndarray, coeff_q: np.ndarray
) -> Callable[..., JetPoint]:
    # per product: its coefficients (product, perturbation, node)
    coeffs = np.stack([coeff_p, coeff_q], axis=1)[_TERM_K, :, None]

    def evaluate(s, t) -> JetPoint:
        js, jt = seed(s, t)
        # s^k and t^k, k <= 3, each a jet in its own variable (in the d_s
        # slots), by repeated multiplication as jpow unrolls them; table
        # (power, derivative order, variable, node), filled a row at a
        # time because a partial may be a structural scalar
        pw = np.zeros((4, 3, 2, np.size(s)))
        pw[0, 0] = pw[1, 1] = 1.0
        pw[1, 0] = np.ravel(s), np.ravel(t)
        x = xk = Jet2(pw[1, 0], 1.0)
        for k in (2, 3):
            xk = xk * x
            pw[k, 0], pw[k, 1], pw[k, 2] = xk.val, xk.d_s, xk.d_ss
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
        acc = acc.reshape(acc.shape[:2] + np.shape(s))
        return JetPoint(ambient, (Jet2(*acc[:, 0]), Jet2(*acc[:, 1]), js, jt))

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
    ambient = AmbientSpace.flat()
    draws = _uniform_draws(seed_value)
    domain = DomainRect(-0.5, 0.5, -0.5, 0.5)
    for _ in range(100):
        coeff_p, coeff_q = _coefficients(draws, amplitude), _coefficients(draws, amplitude)
        imm = Immersion(
            name="random_polynomial",
            ambient=ambient,
            evaluator=_random_poly_eval(ambient, coeff_p, coeff_q),
            domain=domain,
            params={"seed": seed_value, "amplitude": amplitude},
        )
        if _validate_spacelike(imm):
            return imm
    raise DegeneracyError(
        f"random_polynomial seed={seed_value}: no space-like sample in 100 tries"
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
        "resampled until space-like; generic strict-inequality witness",
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
    ambient = defn.ambient
    program = compile_jets(defn.components)

    def evaluate(s, t) -> JetPoint:
        return JetPoint(ambient, program(*seed(s, t)))

    return Immersion(
        name=defn.name,
        ambient=ambient,
        evaluator=evaluate,
        domain=defn.domain,
    )
