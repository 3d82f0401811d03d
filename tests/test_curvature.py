import ast
import math
from pathlib import Path

import numpy as np
import pytest

from neutralsurf import curvature
from neutralsurf.ambient import DomainRect
from neutralsurf.catalog import Immersion, MetricCoeffs, catalog_get, from_definition
from neutralsurf.curvature import (
    CanonicalFrame,
    FrameData,
    SecondFF,
    build_frames,
    canonical_equality_frame,
    codazzi_residual,
    connection_forms,
    ellipse_of_curvature,
    point_report,
    second_fundamental_form,
    shape_operators,
    structure_equation_check,
)
from neutralsurf.cli import DEFAULT_TOLERANCES, _fd_sample_points, build_verification_report
from neutralsurf.errors import DegeneracyError
from neutralsurf.expr import parse_surface
from neutralsurf.fields import _sample, sample_surface
from neutralsurf.pseudo_linalg import PVector, Signature, Sym2, inner
from oracles import (
    ambient_curvature,
    as_array,
    bits,
    canonical_two_candidates,
    codazzi_residual_per_component,
    connection_forms_per_component,
    eager_kd,
    ellipse_sweep,
    equality_frame,
    isometric_image,
    random_isometry,
    reference_frames,
    rotate_pair,
    sample_points,
    second_fundamental_form_per_component,
    shape_operators_per_component,
    stencil_frames,
    structure_equation_check_per_component,
    wintgen_defect_formula,
    with_normals,
)

SIG22 = Signature(2, 4)
DEFINITION_FILE = Path(__file__).resolve().parent.parent / "bench" / "data" / "phi_h42.txt"
GAMMA_PHI = 1.0 / math.sqrt(3.0)


def forms_of(c: curvature.ConnectionSample) -> tuple:
    """The four connection forms of a sample, in field order."""
    return c.w12_e1, c.w12_e2, c.w34_e1, c.w34_e2


# its position is time-like, as the pseudo-hyperbolic quadric needs, only
# for small s + 3/2 and t
OFF_QUADRIC = "ambient H(3,2; -1)\nx1 = s/100\nx2 = t/100\nx3 = 1\nx4 = s + 3/2\nx5 = t/2"

# a geodesic plane bent along e3: at s = 0 the position is e0, which the
# normal completion skips, so that node's pair is one basis vector later; for
# |s| < 0.0115 the remainder of e0 is below SPAN_RTOL, and just above it e0
# seeds e3 with a remainder of norm about 2 |s|^3 / 3
BENT_PLANE = (
    "ambient H(3,2; -1)\nx1 = cosh(s)*cosh(t)\nx2 = 0\nx3 = s^3/3\n"
    "x4 = cosh(s)*sinh(t)\nx5 = sinh(s)"
)

# totally geodesic 2-sphere in the unit pseudo-sphere
SPHERE = "ambient S(2,3; 1)\nx1 = 0\nx2 = 0\nx3 = cos(s)*cos(t)\nx4 = cos(s)*sin(t)\nx5 = sin(s)"

# a surface in the unit pseudo-sphere with KD between 0.12 and 0.36:
# x3..x5 = r (cos s cos t, cos s sin t, sin s) with r^2 = 1 + x1^2 + x2^2
R_CURVED = "sqrt(1 + (0.3*s*t)^2 + (0.2*s^2 - 0.1*t)^2)"
CURVED_SPHERE = (
    "ambient S(2,3; 1)\ndomain -0.6:0.6, -0.6:0.6\nx1 = 0.3*s*t\nx2 = 0.2*s^2 - 0.1*t\n"
    f"x3 = {R_CURVED}*cos(s)*cos(t)\nx4 = {R_CURVED}*cos(s)*sin(t)\nx5 = {R_CURVED}*sin(s)"
)

# space-like only for |s| < 1 (E = 1 - s^2): at s = 0.9995 the point is on
# the surface and its +s stencil neighbours are not
BAND = "ambient E(2,2)\ndomain -0.5:0.999, -1:1\nx1 = s^2/2\nx2 = 0\nx3 = s\nx4 = t"

# (surface, parameters, point) where the FD checks must agree with the invariants
FD_CASES = [
    ("phi_h42", {}, (0.25, 0.3)),
    ("totally_geodesic_h42", {}, (0.3, -0.3)),
    ("holomorphic_graph", {"f": "z^2/2"}, (1.6, 1.0)),
    ("umbilical_flat", {}, (0.2, 0.5)),
    ("random_polynomial", {"seed": 4}, (0.1, -0.2)),
]


def flat_plane():
    return from_definition(parse_surface("ambient E(2,2); x1 = 0; x2 = 0; x3 = s; x4 = t"))


def vec22(*coords):
    return PVector(np.array(coords, dtype=float), SIG22)


def synthetic_frame() -> FrameData:
    e1, e2 = vec22(0, 0, 1, 0), vec22(0, 0, 0, 1)
    return FrameData(
        e1, e2, MetricCoeffs(1.0, 0.0, 1.0), jets=None, gram_schmidt=[e1.coords, e2.coords],
        normals=(vec22(1, 0, 0, 0), vec22(0, 1, 0, 0), (0, 1), False),
    )


def equality_h(gamma: float) -> SecondFF:
    fr = synthetic_frame()
    return SecondFF(h11=-gamma * fr.e3, h12=-gamma * fr.e4, h22=gamma * fr.e3)


def frame_orthonormality_errors(fr: FrameData, position=None) -> float:
    vectors = [fr.e1, fr.e2, fr.e3, fr.e4]
    signs = [1.0, 1.0, -1.0, -1.0]
    worst = 0.0
    for i, (u, su) in enumerate(zip(vectors, signs)):
        for j, v in enumerate(vectors):
            want = su if i == j else 0.0
            worst = max(worst, abs(inner(u, v) - want))
    if position is not None:
        for v in vectors:
            worst = max(worst, abs(inner(position, v)))
    return worst


class TestBuildFrames:
    def test_flat_plane_frame(self):
        fr = build_frames(flat_plane(), (0.3, -0.8))
        assert np.allclose(fr.e1.coords, [0, 0, 1, 0])
        assert np.allclose(fr.e2.coords, [0, 0, 0, 1])
        assert np.allclose(fr.e3.coords, [1, 0, 0, 0])
        assert np.allclose(fr.e4.coords, [0, 1, 0, 0])

    def test_phi_frame_orthonormality(self):
        phi = catalog_get("phi_h42")
        rng = np.random.default_rng(6)
        for p in sample_points(phi.domain, rng, 20):
            fr = build_frames(phi, p)
            x = phi.evaluate(*p).position()
            assert frame_orthonormality_errors(fr, position=x) <= 1e-10

    def test_holomorphic_frame_respects_complex_structure(self):
        imm = catalog_get("holomorphic_graph", {"f": "z^2/2"})

        def J(v):
            c = v.coords
            return PVector(np.array([-c[1], c[0], -c[3], c[2]]), v.signature)

        for p in [(1.5, 1.0), (1.3, 0.7), (1.9, 1.4)]:
            fr = build_frames(imm, p)
            d2 = min(
                (fr.e2 - J(fr.e1)).euclid_norm(), (fr.e2 + J(fr.e1)).euclid_norm()
            )
            assert d2 <= 1e-12
            d4 = min(
                (fr.e4 - J(fr.e3)).euclid_norm(), (fr.e4 + J(fr.e3)).euclid_norm()
            )
            assert d4 <= 1e-12

    @pytest.mark.parametrize(
        "name,scan",
        [("phi_h42", [0, 1]), ("flat_L", [0, 2]), ("totally_geodesic_h42", [1, 2])],
    )
    def test_scan_seeds(self, name, scan):
        # every node of the grid, and the lone point, picks the same pair
        imm = catalog_get(name)
        ss, ts = imm.domain.grid(33, 33)
        assert build_frames(imm, (float(ss[9]), float(ts[20]))).scan.tolist() == scan
        grid = build_frames(imm, np.meshgrid(ss, ts, indexing="ij")).scan
        assert grid.shape == (33, 33, 2)
        assert np.all(grid == scan)

    def test_each_node_of_a_batch_picks_its_own_pair(self):
        # the node at s = 0 picks (1, 2) beside nodes that pick (0, 1), as it
        # does alone
        imm = from_definition(parse_surface(BENT_PLANE))
        s, t = np.array([0.5, 0.0, -0.4]), np.array([0.0, 0.0, 0.2])
        batch = build_frames(imm, (s, t)).scan.tolist()
        assert batch == [build_frames(imm, p).scan.tolist() for p in zip(s, t)]
        assert batch == [[0, 1], [1, 2], [0, 1]]

    def test_gram_schmidt_error_names_the_node(self):
        imm = from_definition(parse_surface(OFF_QUADRIC))
        grid = np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9), indexing="ij")
        x = imm.evaluate(*grid).position()
        space_like = inner(x, x) > 0
        # the position must be time-like in H(3,2); the first offending node is not the first node
        assert space_like.any() and not space_like.flat[0]
        k = int(np.argmax(space_like))
        first = (float(grid[0].flat[k]), float(grid[1].flat[k]))
        with pytest.raises(DegeneracyError) as at_node:
            build_frames(imm, first)
        with pytest.raises(DegeneracyError) as in_batch:
            build_frames(imm, grid)
        want = f"remainder is space-like, required time-like at (s,t)={first}"
        assert str(at_node.value) == str(in_batch.value) == want


# surfaces with every ambient kind: the catalog, and the sphere (pseudo-sphere)
FRAME_SURFACES = [
    ("phi_h42", {}),
    ("flat_L", {}),
    ("totally_geodesic_h42", {}),
    ("holomorphic_graph", {"f": "z^2/2"}),
    ("umbilical_flat", {}),
    ("random_polynomial", {"seed": 3}),
    ("sphere", {}),
]


def frame_surface(name, params):
    if name == "sphere":
        return from_definition(parse_surface(SPHERE, name="sphere"))
    return catalog_get(name, params)


def isometry_surfaces() -> list:
    """FRAME_SURFACES and the bent plane: under random isometries their
    normal pairs are seeded by (0, 1), (0, 2) and (1, 2), with both flips."""
    bent = from_definition(parse_surface(BENT_PLANE))
    surfaces = [frame_surface(name, params) for name, params in FRAME_SURFACES]
    surfaces.append(Immersion("bent", bent.ambient, bent.evaluator, DomainRect(-0.2, 0.2, -1.0, 1.0)))
    return surfaces


def assert_reference_frames(imm, p) -> FrameData:
    """build_frames at p equals reference_frames bit for bit; returns the frames."""
    got, want = build_frames(imm, p), reference_frames(imm, p)
    for name in ("e1", "e2", "e3", "e4"):
        assert bits(getattr(got, name).coords) == bits(getattr(want, name).coords), name
    for name in ("scan", "flipped"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b), name
    return got


class TestNormalCompletion:
    """build_frames against the full-table, determinant-sign reference."""

    @pytest.mark.parametrize("name,params", FRAME_SURFACES)
    def test_point_stencil_and_grid_batches(self, name, params, monkeypatch):
        imm = frame_surface(name, params)
        d = imm.domain
        s, t = 0.6 * d.s0 + 0.4 * d.s1, 0.3 * d.t0 + 0.7 * d.t1
        assert_reference_frames(imm, (s, t))
        off = np.array(curvature._NESTED_NODES, dtype=float)
        assert_reference_frames(imm, (s + 1e-3 * off[:, 0], t + 1e-3 * off[:, 1]))
        assert_reference_frames(imm, (np.array([]), np.array([])))
        # the batches a grid pass builds: one block at 33x33, two at 65x65
        batches, engine = [], curvature.build_frames

        def recording(imm, p):
            batches.append(p)
            return engine(imm, p)

        monkeypatch.setattr(curvature, "build_frames", recording)
        for n in (33, 65):
            sample_surface(imm, (n, n))
        monkeypatch.undo()
        assert [np.size(p[0]) for p in batches] == [33 * 33, 33 * 65, 32 * 65]
        for p in batches:
            assert_reference_frames(imm, p)

    def test_bent_plane_where_a_remainder_is_tiny(self):
        # e0 seeds e3 down to |s| = 0.0116, with a remainder of norm 1.04e-6;
        # from s = 0.0114 down it is in the span and the pair is (1, 2)
        imm = from_definition(parse_surface(BENT_PLANE))
        s = np.array([0.5, 0.0, -0.4, 0.1, 0.02, 0.0116, 0.0114, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 0.0, -0.0116])
        t = np.array([0.0, 0.0, 0.2, 0.3, 0.0, 0.0, 0.0, 0.3, 0.0, 0.1, 0.0, -0.2, 0.5, 0.0])
        scans = assert_reference_frames(imm, (s, t)).scan.tolist()
        assert scans == [[0, 1], [1, 2], [0, 1]] + [[0, 1]] * 3 + [[1, 2]] * 7 + [[0, 1]]
        for p in zip(s, t):
            assert_reference_frames(imm, p)

    def test_isometric_images(self):
        # signed permutations of the axes move which basis vectors seed the
        # normal pair; generic isometries and reflections change the orientation
        rng = np.random.default_rng(14)
        seen = set()
        for imm in isometry_surfaces():
            sig = imm.ambient.signature
            ss, ts = imm.domain.grid(9, 9)
            grid = np.meshgrid(ss, ts, indexing="ij")
            for k in range(8):
                iso = random_isometry(sig, rng, generic=k % 2 == 1)
                assert np.allclose(iso.T @ np.diag(sig.weights) @ iso, np.diag(sig.weights))
                image = isometric_image(imm, iso)
                fr = assert_reference_frames(image, grid)
                assert_reference_frames(image, (float(ss[3]), float(ts[5])))
                seen |= {(imm.ambient.kind, tuple(pair), flip) for pair, flip in
                         zip(fr.scan.reshape(-1, 2).tolist(), fr.flipped.ravel().tolist())}
        # in E(2,2) no combination of e0 and e1 (a time-like plane) is tangent,
        # so they always seed the pair (0, 1); H(3,2) also reaches the pair
        # (0, 2), whose sign (-1)^(i+j+1) is the other one
        pairs = {("flat", (0, 1)), ("pseudo_hyperbolic", (0, 1)), ("pseudo_hyperbolic", (0, 2)),
                 ("pseudo_hyperbolic", (1, 2)), ("pseudo_sphere", (0, 1))}
        assert {(kind, pair) for kind, pair, _ in seen} == pairs
        assert seen == {(kind, pair, flip) for kind, pair in pairs for flip in (False, True)}

    @pytest.mark.parametrize(
        "name,params",
        [c for c in FRAME_SURFACES if c[0] in ("holomorphic_graph", "sphere", "phi_h42", "totally_geodesic_h42")],
    )
    def test_no_determinant(self, name, params, monkeypatch):
        # every ambient kind, and a pair past row 1: the orientation is a
        # closed-form minor, not a LAPACK determinant
        imm = frame_surface(name, params)
        ss, ts = imm.domain.grid(9, 9)
        points = [(float(ss[2]), float(ts[6])), np.meshgrid(ss, ts, indexing="ij")]
        want = [reference_frames(imm, p) for p in points]

        def no_det(*args, **kwargs):
            raise AssertionError("np.linalg.det called")

        monkeypatch.setattr(np.linalg, "det", no_det)
        for p, ref in zip(points, want):
            fr = build_frames(imm, p)
            assert np.array_equal(fr.flipped, ref.flipped) and np.array_equal(fr.scan, ref.scan)


class TestSecondFundamentalForm:
    def test_totally_geodesic_vanishes(self):
        geo = catalog_get("totally_geodesic_h42")
        rng = np.random.default_rng(8)
        for p in sample_points(geo.domain, rng, 15):
            fr = build_frames(geo, p)
            h = second_fundamental_form(geo, p, fr)
            assert all(v.euclid_norm() <= 1e-9 for v in h.components())

    def test_phi_equality_structure(self):
        phi = catalog_get("phi_h42")
        rng = np.random.default_rng(9)
        for p in sample_points(phi.domain, rng, 15):
            fr = build_frames(phi, p)
            h = second_fundamental_form(phi, p, fr)
            assert inner(h.h11, h.h11) == pytest.approx(-1.0 / 3.0, abs=1e-10)
            assert (h.h11 + h.h22).euclid_norm() <= 1e-10
            assert abs(inner(h.h11, h.h12)) <= 1e-10

    def test_umbilical_surface(self):
        um = catalog_get("umbilical_flat")
        for p in [(0.0, 0.0), (0.5, -0.3)]:
            fr = build_frames(um, p)
            h = second_fundamental_form(um, p, fr)
            assert (h.h11 - h.h22).euclid_norm() <= 1e-10
            assert h.h12.euclid_norm() <= 1e-10

    def test_normality_invariant(self):
        for name, params in [("phi_h42", {}), ("random_polynomial", {"seed": 17})]:
            imm = catalog_get(name, params)
            rng = np.random.default_rng(10)
            for p in sample_points(imm.domain, rng, 10):
                fr = build_frames(imm, p)
                h = second_fundamental_form(imm, p, fr)
                x = imm.evaluate(*p).position()
                for v in h.components():
                    assert abs(inner(v, fr.e1)) <= 1e-10
                    assert abs(inner(v, fr.e2)) <= 1e-10
                    if not imm.ambient.is_flat:
                        assert abs(inner(v, x)) <= 1e-10


class TestShapeOperators:
    def test_equality_form_data(self):
        fr = synthetic_frame()
        a3, a4 = shape_operators(equality_h(1.0), fr)
        assert (a3.a11, a3.a12, a3.a22) == pytest.approx((1.0, 0.0, -1.0), abs=1e-15)
        assert (a4.a11, a4.a12, a4.a22) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)

    def test_zero_h(self):
        fr = synthetic_frame()
        zero = 0.0 * fr.e1
        a3, a4 = shape_operators(SecondFF(zero, zero, zero), fr)
        assert as_array(a3).tolist() == [[0, 0], [0, 0]]
        assert as_array(a4).tolist() == [[0, 0], [0, 0]]

    def test_holomorphic_a4_is_j_compose_a3(self):
        imm = catalog_get("holomorphic_graph", {"f": "z^2/2"})
        jmat = np.array([[0.0, -1.0], [1.0, 0.0]])
        for p in [(1.5, 1.0), (1.3, 0.6)]:
            fr = build_frames(imm, p)
            h = second_fundamental_form(imm, p, fr)
            a3, a4 = shape_operators(h, fr)
            assert np.allclose(as_array(a4), jmat @ as_array(a3), atol=1e-8)

    def test_duality_against_h(self):
        phi = catalog_get("phi_h42")
        for p in [(0.2, 0.4), (-0.6, 0.1)]:
            fr = build_frames(phi, p)
            h = second_fundamental_form(phi, p, fr)
            a3, a4 = shape_operators(h, fr)
            for hij, a3ij, a4ij in [
                (h.h11, a3.a11, a4.a11),
                (h.h12, a3.a12, a4.a12),
                (h.h22, a3.a22, a4.a22),
            ]:
                assert inner(hij, fr.e3) == pytest.approx(a3ij, abs=1e-10)
                assert inner(hij, fr.e4) == pytest.approx(a4ij, abs=1e-10)


class TestInvariants:
    def test_phi(self):
        phi = catalog_get("phi_h42")
        rng = np.random.default_rng(12)
        for p in sample_points(phi.domain, rng, 20):
            rep = point_report(phi, p)
            assert rep.K == pytest.approx(-1.0 / 3.0, abs=1e-8)
            assert rep.KD == pytest.approx(-2.0 / 3.0, abs=1e-8)
            assert abs(rep.H2) <= 1e-10
            assert abs(rep.defect) <= 1e-8

    def test_totally_geodesic(self):
        geo = catalog_get("totally_geodesic_h42")
        rep = point_report(geo, (0.4, -0.2))
        assert rep.K == pytest.approx(-1.0, abs=1e-8)
        assert abs(rep.KD) <= 1e-8
        assert abs(rep.defect) <= 1e-8

    def test_flat_l_is_strict_inequality(self):
        # K = KD = 0 and H = 0, but c = -1: K + KD exceeds H2 + c by exactly 1,
        # so this surface does NOT achieve equality anywhere.
        fl = catalog_get("flat_L")
        for p in [(0.0, 0.0), (0.7, -0.9)]:
            rep = point_report(fl, p)
            assert abs(rep.K) <= 1e-8
            assert abs(rep.KD) <= 1e-8
            assert abs(rep.H2) <= 1e-10
            assert rep.defect == pytest.approx(1.0, abs=1e-8)


def semi_axes_defect(h: SecondFF) -> np.ndarray:
    """(a - b)^2 for the semi-axes a >= b of the ellipse of curvature, from
    the eigenvalues of the Gram matrix of u = (h11 - h22)/2 and v = h12 in
    the normal plane's own (negated) metric."""
    w = h.h11.signature.weights
    u, v = 0.5 * (h.h11.coords - h.h22.coords), h.h12.coords
    uu, uv, vv = (u * u) @ w, (u * v) @ w, (v * v) @ w
    gram = -np.stack([np.stack([uu, uv], -1), np.stack([uv, vv], -1)], -2)
    b, a = np.moveaxis(np.sqrt(np.maximum(np.linalg.eigvalsh(gram), 0.0)), -1, 0)
    return (a - b) ** 2


class TestDefectIsTheSemiAxesSquare:
    """The defect K - |KD| - <H,H> - c is (a - b)^2 for the semi-axes of the
    ellipse of curvature (the paper's proof; Guadalupe and Rodriguez,
    Pacific J. Math. 1983, in the Riemannian case)."""

    @pytest.mark.parametrize(
        "name,params",
        [(name, params) for name, params in FRAME_SURFACES if name != "sphere"]
        + [("holomorphic_graph", {"f": "z^3"}), ("random_polynomial", {"seed": 7})],
    )
    def test_catalog_and_images_on_9x9(self, name, params):
        # the 200 images of rng seed 1: at most 1.5e-13 relative, and 3.6e-12
        # with the defect formed as the difference K - |KD| - <H,H> - c
        imm = catalog_get(name, params)
        ss, ts = imm.domain.grid(9, 9)
        grid = tuple(np.meshgrid(ss, ts, indexing="ij"))
        rng = np.random.default_rng(1)
        for k in range(201):
            image = imm if k == 0 else isometric_image(imm, random_isometry(imm.ambient.signature, rng))
            rep = point_report(image, grid)
            scale = np.maximum(1.0, np.abs(rep.K) + rep.abs_KD + np.abs(rep.H2))
            assert np.max(np.abs(rep.defect - semi_axes_defect(rep.h)) / scale) <= 1e-10, k


class TestWintgenDefectFormula:
    def test_phi_parameters(self):
        g = math.sqrt(1.0 / 3.0)
        k, kd, h2, defect = wintgen_defect_formula(g, g, 0.0, -g, -1.0)
        assert k == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert kd == pytest.approx(-2.0 / 3.0, abs=1e-15)
        assert h2 == pytest.approx(0.0, abs=1e-15)
        assert defect == pytest.approx(0.0, abs=1e-15)

    def test_totally_geodesic_parameters(self):
        for c in (-1.0, 0.0, 2.5):
            k, kd, h2, defect = wintgen_defect_formula(0.0, 0.0, 0.0, 0.0, c)
            assert (k, kd, h2, defect) == (c, 0.0, 0.0, 0.0)

    def test_identity_on_random_tuples(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            alpha, gamma, delta, mu, c = rng.uniform(-2, 2, size=5)
            k, kd, h2, defect = wintgen_defect_formula(alpha, gamma, delta, mu, c)
            lhs = k + kd - h2 - c
            assert abs(lhs - defect) <= 1e-12 * max(1.0, abs(lhs), abs(defect))
            assert defect >= 0.0


class TestCanonicalEqualityFrame:
    def test_construct_then_recover(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            gamma, mu = rng.uniform(-1, 1, size=2)
            theta, rho = rng.uniform(0, 2 * math.pi, size=2)
            a3 = Sym2(2 * gamma + mu, 0.0, mu)
            a4 = Sym2(0.0, gamma, 0.0)
            r3, r4 = rotate_pair(a3, a4, theta, rho)
            can = canonical_equality_frame(r3, r4)
            assert can.residual <= 1e-8
            k0, kd0, h20, _ = wintgen_defect_formula(2 * gamma + mu, gamma, 0.0, mu, 0.0)
            k1, kd1, h21, _ = wintgen_defect_formula(
                can.alpha, can.gamma, can.delta, can.mu, 0.0
            )
            assert k1 == pytest.approx(k0, abs=1e-8)
            assert kd1 == pytest.approx(kd0, abs=1e-8)
            assert h21 == pytest.approx(h20, abs=1e-8)

    def test_one_eigen_decomposition_matches_two_candidates(self):
        # both e4 orientations share alpha, mu and theta; the flipped gamma
        # and delta must keep the bytes (and zero signs) of a full second
        # decomposition, on generic, trace-free, exact-equality and tied pairs
        rng = np.random.default_rng(71)
        n = 500
        generic = rng.uniform(-2, 2, size=(6, n))
        trace_free = generic.copy()
        trace_free[[2, 5]] = -trace_free[[0, 3]]
        equality = np.empty((6, n))
        for k, (gamma, mu, theta, rho) in enumerate(rng.uniform(-2, 2, size=(n, 4))):
            r3, r4 = rotate_pair(Sym2(2 * gamma + mu, 0.0, mu), Sym2(0.0, gamma, 0.0), theta, rho)
            equality[:, k] = (r3.a11, r3.a12, r3.a22, r4.a11, r4.a12, r4.a22)
        special = np.array(
            [[0.0] * 6, [-0.0] * 6, [1.0, 0.0, 1.0, 0.0, 0.0, 0.0], [0.0, -0.0, 0.0, 1.0, 0.0, -1.0]]
        ).T
        for rows in (generic, trace_free, equality, np.round(generic, 1), special):
            got = canonical_equality_frame(Sym2(*rows[:3]), Sym2(*rows[3:]))
            want = canonical_two_candidates(Sym2(*rows[:3]), Sym2(*rows[3:]))
            for f in CanonicalFrame._fields:
                assert bits(getattr(got, f)) == bits(getattr(want, f)), f
            for col in rows.T[:50].tolist():
                got = canonical_equality_frame(Sym2(*col[:3]), Sym2(*col[3:]))
                want = canonical_two_candidates(Sym2(*col[:3]), Sym2(*col[3:]))
                for f in CanonicalFrame._fields:
                    assert bits(getattr(got, f)) == bits(getattr(want, f)), (f, col)

    def test_zero_operators(self):
        can = canonical_equality_frame(Sym2(0, 0, 0), Sym2(0, 0, 0))
        assert can.residual == 0.0
        assert (can.alpha, can.gamma, can.delta, can.mu) == (0.0, 0.0, 0.0, 0.0)

    def test_phi_pointwise(self):
        phi = catalog_get("phi_h42")
        rng = np.random.default_rng(15)
        for p in sample_points(phi.domain, rng, 8):
            rep = point_report(phi, p)
            can = rep.canonical
            assert can.residual <= 1e-8
            assert abs(can.delta) <= 1e-8
            assert abs(can.alpha - (2 * can.gamma + can.mu)) <= 1e-8

    def test_minimal_residual_is_ellipse_axis_gap(self):
        # at H = 0 the residual is sigma1 - sigma2 of the trace-free rows
        # [u; w], which are the semi-axes a, b of the ellipse of curvature
        fr = synthetic_frame()
        center = 0.0 * fr.e1
        rng = np.random.default_rng(16)
        pairs = []
        for _ in range(100):
            x, y, z, w = rng.uniform(-2, 2, size=4)
            pairs.append((Sym2(x, y, -x), Sym2(z, w, -z), False))
        for eps in (0.0, 1e-6, 1e-9):
            for _ in range(50):
                gamma = rng.uniform(-1.5, 1.5)
                theta, rho = rng.uniform(0, 2 * math.pi, size=2)
                a3, a4 = rotate_pair(Sym2(gamma, 0.0, -gamma), Sym2(0.0, gamma, 0.0), theta, rho)
                x, y, z, w = eps * rng.standard_normal(4)
                pairs.append(
                    (
                        Sym2(a3.a11 + x, a3.a12 + y, a3.a22 - x),
                        Sym2(a4.a11 + z, a4.a12 + w, a4.a22 - z),
                        eps == 0.0,
                    )
                )
        for a3, a4, exact in pairs:
            h = SecondFF(
                h11=-a3.a11 * fr.e3 - a4.a11 * fr.e4,
                h12=-a3.a12 * fr.e3 - a4.a12 * fr.e4,
                h22=-a3.a22 * fr.e3 - a4.a22 * fr.e4,
            )
            can = canonical_equality_frame(*shape_operators(h, fr))
            ell = ellipse_of_curvature(h, center)
            rows = np.array(
                [[0.5 * (a3.a11 - a3.a22), a3.a12], [0.5 * (a4.a11 - a4.a22), a4.a12]]
            )
            sigma = np.linalg.svd(rows, compute_uv=False)
            assert abs(can.residual - (sigma[0] - sigma[1])) <= 1e-12
            assert abs(can.residual - (ell.a - ell.b)) <= 1e-12
            if exact:
                assert abs(can.delta) <= 1e-12

    def test_nonequality_residual_positive(self):
        imm = catalog_get("random_polynomial", {"seed": 7})
        rep = point_report(imm, (0.2, -0.1))
        assert rep.canonical.residual > 1e-4


class TestEllipse:
    def test_equality_data_is_unit_circle(self):
        h = equality_h(1.0)
        center = 0.0 * synthetic_frame().e1
        ell = ellipse_of_curvature(h, center)
        assert ell.a == pytest.approx(1.0, abs=1e-12)
        assert ell.b == pytest.approx(1.0, abs=1e-12)
        assert ell.is_circle and not ell.is_point

    def test_umbilical_point(self):
        um = catalog_get("umbilical_flat")
        rep = point_report(um, (0.3, 0.2))
        assert rep.ellipse.is_point

    def test_generic_point_is_proper_ellipse(self):
        imm = catalog_get("random_polynomial", {"seed": 5})
        rep = point_report(imm, (0.2, -0.3))
        assert rep.ellipse.a > rep.ellipse.b
        assert not rep.ellipse.is_circle

    def test_axes_match_sweep(self):
        cases = [
            ("random_polynomial", {"seed": 5}, (0.2, -0.3)),
            ("random_polynomial", {"seed": 8}, (-0.1, 0.4)),
            ("phi_h42", {}, (0.5, -0.5)),
            ("holomorphic_graph", {"f": "z^3/3"}, (1.5, 1.0)),
        ]
        for name, params, p in cases:
            imm = catalog_get(name, params)
            fr = build_frames(imm, p)
            h = second_fundamental_form(imm, p, fr)
            rep = point_report(imm, p)
            mx, mn = ellipse_sweep(h, rep.H)
            assert abs(rep.ellipse.a - mx) <= 1e-6
            assert abs(rep.ellipse.b - mn) <= 1e-6


class TestConnectionForms:
    def test_flat_plane_forms_vanish(self):
        w = connection_forms(flat_plane(), (0.2, 0.1))
        assert max(abs(w.w12_e1), abs(w.w12_e2), abs(w.w34_e1), abs(w.w34_e2)) <= 1e-8

    def test_phi_tangent_rotation_coefficient(self):
        # closed-form oracle: for the metric ds^2 + exp(2s/sqrt(3)) dt^2 the
        # tangent connection form on e2 = psi_t/sqrt(G) is G_s/(2G) = 1/sqrt(3)
        phi = catalog_get("phi_h42")
        w = connection_forms(phi, (0.3, -0.4), step=1e-3)
        assert abs(w.w12_e1) <= 1e-6
        assert w.w12_e2 == pytest.approx(1.0 / math.sqrt(3.0), abs=5e-6)

    def test_phi_equality_frame_relation(self, monkeypatch):
        # in the equality-adapted frame the normal form doubles the tangent form
        phi = catalog_get("phi_h42")
        monkeypatch.setattr(curvature, "build_frames", equality_frame)
        for p in [(0.3, -0.4), (-0.5, 0.6)]:
            w = connection_forms(phi, p, step=1e-3)
            assert abs(w.w34_e1 - 2.0 * w.w12_e1) <= 1e-5
            assert abs(w.w34_e2 - 2.0 * w.w12_e2) <= 1e-5

    def test_one_branch_on_the_5_point_stencil_only(self, monkeypatch):
        # another scan branch at the node 2 steps out along +s, which the
        # nested build holds: the structure equations reject it, the forms do not
        imm, p = catalog_get("phi_h42"), (-0.2, 0.5)
        want = forms_of(connection_forms(imm, p))

        def switched(imm, q):
            fr = build_frames(imm, q)
            far = np.asarray(q[0]) > p[0] + 1.5e-3
            return with_normals(fr, scan=np.where(far[..., None], fr.scan[..., ::-1], fr.scan))

        monkeypatch.setattr(curvature, "build_frames", switched)
        with pytest.raises(DegeneracyError):
            structure_equation_check(imm, p)
        assert [bits(x) for x in forms_of(connection_forms(imm, p))] == [bits(x) for x in want]


class TestStructureEquations:
    def test_phi(self):
        phi = catalog_get("phi_h42")
        kw, kdw = structure_equation_check(phi, (0.3, -0.4), step=1e-3)
        assert kw == pytest.approx(-1.0 / 3.0, abs=1e-3)
        assert kdw == pytest.approx(-2.0 / 3.0, abs=1e-3)

    def test_flat_l(self):
        fl = catalog_get("flat_L")
        kw, kdw = structure_equation_check(fl, (0.2, -0.5), step=1e-3)
        assert abs(kw) <= 1e-4
        assert abs(kdw) <= 1e-4

    def test_flat_plane(self):
        kw, kdw = structure_equation_check(flat_plane(), (0.0, 0.0), step=1e-3)
        assert abs(kw) <= 1e-8
        assert abs(kdw) <= 1e-8

    def test_agreement_with_invariants_across_catalog(self):
        for name, params, p in FD_CASES:
            imm = catalog_get(name, params)
            rep = point_report(imm, p)
            kw, kdw = structure_equation_check(imm, p, step=1e-3)
            assert kw == pytest.approx(rep.K, abs=1e-3)
            assert kdw == pytest.approx(rep.KD, abs=1e-3)

    def test_batch_equals_points(self):
        # s is an array and t a float: the FD checks broadcast them together
        for name, params, p in FD_CASES:
            imm = catalog_get(name, params)
            ss = p[0] + np.array([0.0, 0.04, -0.03])
            kw, kdw = structure_equation_check(imm, (ss, p[1]))
            codazzi = codazzi_residual(imm, (ss, p[1]))
            forms = np.array(forms_of(connection_forms(imm, (ss, p[1]))))
            for i, s in enumerate(ss):
                q = (float(s), p[1])
                assert np.allclose(structure_equation_check(imm, q), (kw[i], kdw[i]), rtol=0, atol=1e-12)
                assert abs(codazzi_residual(imm, q) - codazzi[i]) <= 1e-12, name
                at_q = forms_of(connection_forms(imm, q))
                assert np.allclose(at_q, forms[:, i], rtol=0, atol=1e-12), name

    def test_branch_switch_in_a_batch_names_that_point(self, switch_branch):
        imm = catalog_get("phi_h42")
        target = (-0.2, 0.5)
        switch_branch(target, 1e-3)
        points = (np.array([0.3, target[0], 0.1]), np.array([-0.4, target[1], 0.0]))
        for check in (curvature.structure_equation_check, curvature.connection_forms):
            with pytest.raises(DegeneracyError) as at_point:
                check(imm, target)
            with pytest.raises(DegeneracyError) as in_batch:
                check(imm, points)
            assert str(at_point.value) == "frame branch switch within the stencil at (s,t)=(-0.2, 0.5)"
            assert str(in_batch.value) == str(at_point.value)

    @pytest.mark.parametrize(
        "s,raising",
        [(0.0115, {"structure_equation_check", "connection_forms"}), (0.0125, {"structure_equation_check"}),
         (0.0136, set())],
    )
    def test_a_natural_branch_switch_on_the_bent_plane(self, s, raising):
        # no injected fault: the bent plane's seed pair changes from (1, 2)
        # to (0, 1) between s = 0.0114 and 0.0116, inside the 5-point stencil
        # (step 1e-3) at s = 0.0115 and inside the nested one (reaching
        # 2e-3) at s = 0.0125; Codazzi needs no common branch.  Pinned for
        # the seed rule in force: a different rule moves these cases
        imm = from_definition(parse_surface(BENT_PLANE))
        checks = (curvature.structure_equation_check, curvature.connection_forms, curvature.codazzi_residual)
        for check in checks:
            if check.__name__ in raising:
                with pytest.raises(DegeneracyError) as exc:
                    check(imm, (s, 0.0))
                assert str(exc.value) == f"frame branch switch within the stencil at (s,t)=({s}, 0.0)"
            else:
                r = check(imm, (s, 0.0))
                assert np.all(np.isfinite(forms_of(r) if isinstance(r, curvature.ConnectionSample) else r))


class TestCodazzi:
    def test_phi(self):
        phi = catalog_get("phi_h42")
        assert codazzi_residual(phi, (0.3, -0.4), step=1e-3) <= 1e-4

    def test_holomorphic(self):
        imm = catalog_get("holomorphic_graph", {"f": "z^2/2"})
        assert codazzi_residual(imm, (1.5, 1.0), step=1e-3) <= 1e-4

    def test_independent_of_normal_basis_at_stencil_nodes(self, monkeypatch):
        # rotate and reflect (e3, e4) at the +s node and record another
        # scan branch and orientation there: h, D h and w12 do not change
        def regauged(imm, p):
            fr = build_frames(imm, p)
            at = np.arange(len(fr.flipped)) == 1  # +s node of the 5-point stencil
            c, s = np.where(at, math.cos(0.9), 1.0), np.where(at, math.sin(0.9), 0.0)
            return with_normals(
                fr,
                e3=c * fr.e3 + s * fr.e4,
                e4=np.where(at, -1.0, 1.0) * (c * fr.e4 - s * fr.e3),
                scan=np.where(at[:, None], fr.scan[:, ::-1], fr.scan),
                flipped=fr.flipped ^ at,
            )

        calls = []
        for name, params, p in [
            ("phi_h42", {}, (0.3, -0.4)),
            ("holomorphic_graph", {"f": "z^2/2"}, (1.5, 1.0)),
            ("random_polynomial", {"seed": 7}, (0.2, 0.1)),
        ]:
            imm = catalog_get(name, params)
            want = codazzi_residual(imm, p)
            structure_equation_check(imm, p)  # frames at p built before the patch
            with monkeypatch.context() as m:
                m.setattr(curvature, "build_frames", lambda imm, p: calls.append(p) or regauged(imm, p))
                calls.clear()
                assert abs(codazzi_residual(imm, p) - want) <= 1e-12, name
                # regauged ran for this call: no frames built earlier were reused
                assert len(calls) == 1, name

    def test_fault_injection(self, scale_h12):
        phi = catalog_get("phi_h42")
        scale_h12(1.1)
        assert codazzi_residual(phi, (0.3, -0.4), step=1e-3) > 1e-2


STACKED_SURFACES = {
    "phi_h42": ("phi_h42", {}),
    "flat_L": ("flat_L", {}),
    "totally_geodesic_h42": ("totally_geodesic_h42", {}),
    "holomorphic_graph": ("holomorphic_graph", {"f": "z^2/2"}),
    "umbilical_flat": ("umbilical_flat", {}),
    "random_polynomial": ("random_polynomial", {"seed": 7}),
    "definition_file": None,
}


class TestStackedStages:
    """The stages compute on stacked coordinate arrays; the per-component
    formulas of tests/oracles.py are the reference: equal bytes on a batch,
    where both reduce each node's inner products alike, and agreement to
    rounding at a single point, where a stack of vectors reduces through a
    matrix-vector product and a single vector through a dot product."""

    @staticmethod
    def surface(name):
        if STACKED_SURFACES[name] is None:
            return from_definition(parse_surface(DEFINITION_FILE.read_text()))
        return catalog_get(*STACKED_SURFACES[name])

    @staticmethod
    def inset_grid(imm, n=9):
        d = imm.domain
        ds, dt = 0.1 * (d.s1 - d.s0), 0.1 * (d.t1 - d.t0)
        ss = np.linspace(d.s0 + ds, d.s1 - ds, n)
        ts = np.linspace(d.t0 + dt, d.t1 - dt, n)
        return tuple(np.meshgrid(ss, ts, indexing="ij"))

    @pytest.mark.parametrize("name", sorted(STACKED_SURFACES))
    def test_batch_bytes(self, name):
        imm = self.surface(name)
        p = self.inset_grid(imm)
        fr = build_frames(imm, p)
        h = second_fundamental_form(imm, p, fr)
        want_h = second_fundamental_form_per_component(fr)
        for got, want in zip(h.components(), want_h.components()):
            assert bits(got.coords) == bits(want.coords)
        for got, want in zip(shape_operators(h, fr), shape_operators_per_component(want_h, fr)):
            assert bits(as_array(got)) == bits(as_array(want))
        got = forms_of(connection_forms(imm, p))
        want = forms_of(connection_forms_per_component(imm, p))
        assert [bits(x) for x in got] == [bits(x) for x in want]
        got = structure_equation_check(imm, p)
        assert [bits(x) for x in got] == [bits(x) for x in structure_equation_check_per_component(imm, p)]
        assert bits(codazzi_residual(imm, p)) == bits(codazzi_residual_per_component(imm, p))

    @pytest.mark.parametrize("name", sorted(STACKED_SURFACES))
    def test_the_invariants_gram_gives_the_ellipse_bit_for_bit(self, name):
        # point_report hands the ellipse the <u,u>, <u,v>, <v,v> of _h_invariants
        imm = self.surface(name)
        rep = point_report(imm, self.inset_grid(imm))
        own = ellipse_of_curvature(rep.h, rep.H)
        for key in ("a", "b", "is_circle", "is_point"):
            assert bits(getattr(rep.ellipse, key)) == bits(getattr(own, key)), key

    @pytest.mark.parametrize("name", sorted(STACKED_SURFACES))
    def test_single_points_agree_to_rounding(self, name):
        imm = self.surface(name)
        ss, ts = self.inset_grid(imm, 3)
        for p in zip(ss.ravel().tolist(), ts.ravel().tolist()):
            fr = build_frames(imm, p)
            h = second_fundamental_form(imm, p, fr)
            want_h = second_fundamental_form_per_component(fr)
            for got, want in zip(h.components(), want_h.components()):
                assert np.max(np.abs(got.coords - want.coords)) <= 1e-15
            for got, want in zip(shape_operators(h, fr), shape_operators_per_component(want_h, fr)):
                assert np.max(np.abs(as_array(got) - as_array(want))) <= 1e-15
            got = forms_of(connection_forms(imm, p))
            want = forms_of(connection_forms_per_component(imm, p))
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-15


class TestStencilChecks:
    """verify reads the report at the FD points and both FD checks from one
    nested-stencil report; they equal the separate public calls."""

    @pytest.mark.parametrize("name", sorted(STACKED_SURFACES))
    def test_equals_the_separate_calls_bit_for_bit(self, name):
        imm = TestStackedStages.surface(name)
        p = _fd_sample_points(imm.domain, 1e-3)
        nested = point_report(imm, curvature._nested_stencil(p, 1e-3))
        rep, structure, codazzi = curvature._stencil_checks(nested, p, 1e-3)
        want = point_report(imm, p)
        for key in ("K", "KD", "H2", "defect"):
            assert np.array_equal(getattr(rep, key), getattr(want, key)), key
        assert np.array_equal(rep.canonical.residual, want.canonical.residual)
        for got, expected in zip(structure, structure_equation_check(imm, p, 1e-3)):
            assert np.array_equal(got, expected)
        assert np.array_equal(codazzi, codazzi_residual(imm, p, 1e-3))

    @pytest.mark.parametrize("name", sorted(STACKED_SURFACES))
    def test_single_points_equal_the_stencil_rows_bit_for_bit(self, name):
        # a single-point report is row 0 of the nested-stencil build that the
        # FD checks at that point read, as in verify's batch
        imm = TestStackedStages.surface(name)
        for p in zip(*(x.tolist() for x in _fd_sample_points(imm.domain, 1e-3))):
            nested = point_report(imm, curvature._nested_stencil(p, 1e-3))
            want, structure, codazzi = curvature._stencil_checks(nested, p, 1e-3)
            rep = point_report(imm, p)
            for key in ("K", "KD", "H2", "defect"):
                assert bits(getattr(rep, key)) == bits(getattr(want, key)), (key, p)
            assert bits(rep.canonical.residual) == bits(want.canonical.residual), p
            assert [bits(x) for x in structure_equation_check(imm, p)] == [bits(x) for x in structure], p
            assert bits(codazzi_residual(imm, p)) == bits(codazzi), p


def five_point_checks(imm, p, step):
    """connection_forms and codazzi_residual on a build of the 5-point stencils alone."""
    fr = stencil_frames(imm, p, step)
    lead, trail = [fr.e1.coords, fr.e3.coords], [fr.e2.coords, fr.e4.coords]
    w12, w34 = curvature._on_frame(fr, curvature._coordinate_forms(lead, trail, fr.e1.signature.weights, step))
    codazzi = curvature._codazzi(fr, second_fundamental_form(imm, p, fr), step)
    return [*w12, *w34], codazzi


def probe_bits(imm, p) -> dict:
    """The bits of a probe at p: the report's values, both FD checks."""
    rep = point_report(imm, p)
    values = {key: getattr(rep, key) for key in ("K", "KD", "H2", "defect")}
    values["residual"] = rep.canonical.residual
    values["structure"] = structure_equation_check(imm, p)
    values["codazzi"] = codazzi_residual(imm, p)
    return {key: bits(np.array(x)) for key, x in values.items()}


class TestNestedMemo:
    """The FD checks read one report, with frames and h, of the nested
    stencil; the last one at a single point is kept, whichever check made
    it, and any FD check at that point reads it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The node arrays of every build_frames call; starts and ends with no kept build."""
        calls = []
        curvature._kept_report.cache_clear()
        monkeypatch.setattr(curvature, "build_frames", lambda imm, p: calls.append(p) or build_frames(imm, p))
        yield calls
        curvature._kept_report.cache_clear()

    @staticmethod
    def points(imm):
        ss, ts = TestStackedStages.inset_grid(imm, 5)
        return list(zip(ss.diagonal().tolist(), ts[::-1].diagonal().tolist()))

    @pytest.mark.parametrize("step", [1e-3, 5e-4])
    @pytest.mark.parametrize("name", sorted(STACKED_SURFACES))
    def test_warm_equals_cold_bit_for_bit(self, builds, monkeypatch, name, step):
        # rows 0-4 of the nested build give the values of a 5-point build
        imm = TestStackedStages.surface(name)
        for p in self.points(imm):
            curvature._kept_report.cache_clear()
            cold = codazzi_residual(imm, p, step)
            forms, codazzi = five_point_checks(imm, p, step)
            assert bits(cold) == bits(codazzi), (name, p)
            assert type(cold) is type(codazzi)
            structure_equation_check(imm, p, step)
            builds.clear()
            warm = codazzi_residual(imm, p, step)
            assert [bits(x) for x in forms_of(connection_forms(imm, p, step))] == [bits(x) for x in forms]
            assert builds == [], (name, p)
            assert bits(warm) == bits(cold), (name, p)

    @pytest.mark.parametrize("shape", [(1,), (20,), (4, 5)])
    @pytest.mark.parametrize("name", sorted(STACKED_SURFACES))
    def test_batches_equal_a_5_point_build(self, builds, name, shape):
        imm = TestStackedStages.surface(name)
        d = imm.domain
        rng = np.random.default_rng(15)
        p = tuple(lo + (hi - lo) * (0.1 + 0.8 * rng.random(shape)) for lo, hi in ((d.s0, d.s1), (d.t0, d.t1)))
        forms, codazzi = five_point_checks(imm, p, 1e-3)
        got = forms_of(connection_forms(imm, p))
        assert [bits(x) for x in got] == [bits(x) for x in forms]
        assert bits(codazzi_residual(imm, p)) == bits(codazzi)
        assert [b[0].shape[0] for b in builds] == [13, 13]

    def test_misses_build_their_own_stencil(self, builds):
        imm = catalog_get("random_polynomial", {"seed": 7})
        p, step = (0.2, 0.1), 1e-3
        nudged = (float(np.nextafter(p[0], 1.0)), p[1])
        batch = (np.array([p[0]]), np.array([p[1]]))
        for other, q, h in [
            (catalog_get("random_polynomial", {"seed": 7}), p, step),  # equal, not the same object
            (imm, p, 5e-4),
            (imm, nudged, step),
            (imm, batch, step),
        ]:
            structure_equation_check(imm, p, step)
            builds.clear()
            got = codazzi_residual(other, q, h)
            assert len(builds) == 1 and builds[0][0].shape[0] == 13, (q, h)
            fresh = codazzi_residual_per_component(other, q, h)
            assert np.max(np.abs(got - fresh)) <= 1e-15
            # a single-point miss replaces the kept build; a batch is never kept
            builds.clear()
            codazzi_residual(other, q, h)
            assert len(builds) == int(q is batch), (q, h)
            builds.clear()
            structure_equation_check(imm, p, step)
            assert len(builds) == int(q is not batch), (q, h)

    def test_one_entry_the_last_single_point(self, builds):
        # the kept build is the last single-point nested build, whichever FD check made it
        imm = catalog_get("phi_h42")
        p, q = (0.3, -0.4), (-0.2, 0.5)
        batch = (np.array([0.3, -0.2]), np.array([-0.4, 0.5]))
        for check, at, new_builds in [
            (structure_equation_check, p, 1),
            (connection_forms, q, 1),
            (codazzi_residual, q, 0),
            (codazzi_residual, p, 1),
            (structure_equation_check, batch, 1),
            (connection_forms, p, 0),
            (structure_equation_check, q, 1),
            (structure_equation_check, p, 1),
        ]:
            builds.clear()
            check(imm, at)
            assert len(builds) == new_builds, (check.__name__, at)

    @pytest.mark.parametrize("cold", [connection_forms, structure_equation_check, codazzi_residual])
    def test_a_cold_single_point_check_keeps_its_build(self, builds, monkeypatch, cold):
        # a lone FD check keeps the whole report, frames and h: a probe after
        # it at that point builds and projects nothing, with a fresh probe's bits
        imm = catalog_get("random_polynomial", {"seed": 7})
        p = (0.2, 0.1)
        projections, engine = [], curvature.second_fundamental_form
        monkeypatch.setattr(
            curvature, "second_fundamental_form",
            lambda imm, p, fr: projections.append(fr.jets.shape) or engine(imm, p, fr),
        )
        cold(imm, p)
        assert len(builds) == 1 and curvature._kept_report.cache_info().currsize == 1
        assert projections == [(13,)]
        builds.clear()
        projections.clear()
        warm = probe_bits(imm, p)
        assert builds == [] and projections == []
        curvature._kept_report.cache_clear()
        assert probe_bits(imm, p) == warm
        assert len(builds) == 1 and projections == [(13,)]

    @pytest.mark.parametrize("check", [connection_forms, structure_equation_check, codazzi_residual])
    def test_a_batch_is_never_kept(self, builds, check):
        # nor does it read or evict the kept build, even at the kept point
        imm, p = catalog_get("phi_h42"), (0.3, -0.4)
        check(imm, p)
        for batch in [(np.array([0.3]), np.array([-0.4])), (np.array([0.3, -0.2]), -0.4)]:
            builds.clear()
            check(imm, batch)
            check(imm, batch)
            assert len(builds) == 2
        builds.clear()
        check(imm, p)
        assert builds == [] and curvature._kept_report.cache_info().currsize == 1

    def test_signed_zeros_share_one_entry(self, builds):
        # s = 0.0 and -0.0 compare equal, and their nested nodes are bit-identical
        imm = catalog_get("random_polynomial", {"seed": 7})
        cold = codazzi_residual(imm, (-0.0, 0.1))
        assert bits(builds[0][0]) == bits(curvature._nested_stencil((0.0, 0.1), 1e-3)[0])
        builds.clear()
        assert bits(codazzi_residual(imm, (0.0, 0.1))) == bits(cold)
        assert builds == []
        curvature._kept_report.cache_clear()
        assert bits(codazzi_residual(imm, (0.0, 0.1))) == bits(cold)

    @pytest.mark.parametrize("read_canonical", [True, False])
    def test_a_point_report_is_row_0_of_the_kept_build(self, builds, read_canonical):
        # a probe builds once: the report makes the nested build at the FD
        # step, and the FD checks at that point read it; so does a report
        # after an FD check there, whether or not its canonical frame is read
        imm = catalog_get("random_polynomial", {"seed": 7})
        p, q = (0.2, 0.1), (-0.3, 0.4)

        def report(at):
            rep = point_report(imm, at)
            if read_canonical:
                rep.canonical
            return rep

        rep = report(p)
        assert [b[0].shape for b in builds] == [(13,)] and rep.frames.jets.shape == ()
        structure_equation_check(imm, p)
        codazzi_residual(imm, p)
        connection_forms(imm, p)
        report(p)
        assert len(builds) == 1
        codazzi_residual(imm, q)
        report(q)
        assert len(builds) == 2
        # a batch report builds its own nodes and leaves the kept build alone
        report((np.array([0.2]), np.array([0.1])))
        assert [b[0].shape for b in builds[2:]] == [(1,)]
        structure_equation_check(imm, q)
        assert len(builds) == 3

    def test_a_stencil_node_off_the_surface_leaves_the_report_alone(self, builds):
        # the report builds the point alone when its nested build fails, so
        # it raises exactly where the point itself fails, and a failed build
        # is not kept: the FD checks still raise at a stencil node
        imm = from_definition(parse_surface(BAND))
        p, q = (0.9995, 0.0), (0.5, 0.0)
        structure_equation_check(imm, q)
        for _ in range(2):
            rep = point_report(imm, p)
            assert rep.K == 0.0 and rep.KD == 0.0 and rep.canonical is not None
        assert [np.shape(b[0]) for b in builds] == [(13,), (13,), (), (13,), ()]
        off = "surface 'user_surface' is not space-like at (s,t)={}: E={}, EG-F^2={}"
        for check in (structure_equation_check, codazzi_residual, connection_forms):
            with pytest.raises(DegeneracyError) as exc:
                check(imm, p)
            assert str(exc.value) == off.format((1.0005, 0.0), -0.00100025, -0.00100025)
        with pytest.raises(DegeneracyError) as exc:
            point_report(imm, (1.5, 0.0))
        assert str(exc.value) == off.format((1.5, 0.0), -1.25, -1.25)
        # the build kept before the failures is still kept
        builds.clear()
        codazzi_residual(imm, q)
        assert builds == []

    def test_scale_h12_fault_after_a_warm_call(self, builds, scale_h12):
        phi = catalog_get("phi_h42")
        p = (0.3, -0.4)
        structure_equation_check(phi, p)
        assert codazzi_residual(phi, p) <= 1e-4
        scale_h12(1.1)
        builds.clear()
        assert codazzi_residual(phi, p) > 1e-2
        # the faulty projection misses the kept report and makes its own build
        assert [b[0].shape for b in builds] == [(13,)]

    def test_switch_branch_fault_after_a_warm_call(self, builds, switch_branch):
        imm = catalog_get("phi_h42")
        target = (-0.2, 0.5)
        structure_equation_check(imm, target)
        want = codazzi_residual(imm, target)
        switch_branch(target, 1e-3)
        with pytest.raises(DegeneracyError) as exc:
            structure_equation_check(imm, target)
        assert str(exc.value) == "frame branch switch within the stencil at (s,t)=(-0.2, 0.5)"
        # Codazzi does not depend on the scan branch, from whichever build
        assert codazzi_residual(imm, target) == want


    def test_one_h_per_probe(self, builds, monkeypatch):
        # the report and Codazzi read the h of the kept report
        imm, p = catalog_get("random_polynomial", {"seed": 7}), (0.2, 0.1)
        projections, engine = [], curvature.second_fundamental_form
        monkeypatch.setattr(
            curvature, "second_fundamental_form",
            lambda imm, p, fr: projections.append(fr.jets.shape) or engine(imm, p, fr),
        )
        for _ in range(2):
            point_report(imm, p).canonical
            structure_equation_check(imm, p)
            codazzi_residual(imm, p)
        assert projections == [(13,)] and len(builds) == 1
        # a batch projects its own h, and neither reads nor evicts the kept one
        batch = (np.array([0.2]), np.array([0.1]))
        codazzi_residual(imm, batch)
        codazzi_residual(imm, batch)
        codazzi_residual(imm, p)
        assert projections == [(13,), (13, 1), (13, 1)] and len(builds) == 3

    def test_a_patched_projection_after_a_warm_probe(self, builds, scale_h12, monkeypatch):
        # the report is kept by the second_fundamental_form in force: a fault
        # moves the next report and Codazzi with one new build, and undoing it
        # gives the original bits back with one more
        imm, p = catalog_get("phi_h42"), (0.3, -0.4)
        engine = curvature.second_fundamental_form

        def probe():
            rep = point_report(imm, p)
            values = {key: getattr(rep, key) for key in ("K", "KD", "H2", "defect")}
            values["residual"] = rep.canonical.residual
            values["codazzi"] = codazzi_residual(imm, p)
            return values

        want = probe()
        structure_equation_check(imm, p)
        assert len(builds) == 1 and want["codazzi"] <= 1e-4
        scale_h12(1.1)
        faulty = probe()
        assert len(builds) == 2 and faulty["codazzi"] > 1e-2
        for key in ("K", "KD", "defect", "residual"):
            assert faulty[key] != want[key], key
        assert bits(faulty["H2"]) == bits(want["H2"])  # H = (h11 + h22) / 2 reads no h12
        monkeypatch.setattr(curvature, "second_fundamental_form", engine)
        assert {key: bits(x) for key, x in probe().items()} == {key: bits(x) for key, x in want.items()}
        assert len(builds) == 3


def first_pairs_minors(jp, count: int) -> np.ndarray:
    """The jets' signed minors of the first count pairs alone, the table the
    normal completion read before it read the all-pairs table's prefix."""
    off = curvature._OFF_PAIR[jp.ambient.signature.total_dim][:count].T
    if jp.ambient.is_flat:
        b, c = jp.table[1:3]
        minors = b[..., off[0]] * c[..., off[1]] - b[..., off[1]] * c[..., off[0]]
    else:
        a, b, c = jp.table[:3]
        i, j = curvature._PAIR_I, curvature._PAIR_J
        bc = b[..., i] * c[..., j] - b[..., j] * c[..., i]
        lm, km, kl = (bc[..., q] for q in curvature._OFF_SUB[:count].T)
        minors = a[..., off[0]] * lm - a[..., off[1]] * km + a[..., off[2]] * kl
    return minors * curvature._PAIR_SIGN[:count]


class TestJetMinors:
    """The jets' signed minors are formed once per FrameData, on the first
    read, for every pair; the normal completion reads the first pairs, KD's
    sign all."""

    @pytest.mark.parametrize("read_canonical", [True, False])
    def test_one_table_per_probe(self, monkeypatch, read_canonical):
        # the report completes the pair at the kept build's nodes, and its
        # KD and canonical frame read the rows taken from them
        imm, p = catalog_get("phi_h42"), (0.3, -0.4)
        tables, engine = [], curvature._jet_minors
        monkeypatch.setattr(curvature, "_jet_minors", lambda jp: tables.append(jp.shape) or engine(jp))
        curvature._kept_report.cache_clear()
        rep = point_report(imm, p)
        rep.KD
        if read_canonical:
            rep.canonical
        structure_equation_check(imm, p)
        codazzi_residual(imm, p)
        curvature._kept_report.cache_clear()
        assert tables == [(13,)]

    @pytest.mark.parametrize("name", ["phi_h42", "random_polynomial", "flat_L"])
    def test_one_table_per_verify(self, monkeypatch, name):
        # the stencil rows taken from verify's batch carry their minors
        imm = catalog_get(name)
        tables, engine = [], curvature._jet_minors
        monkeypatch.setattr(curvature, "_jet_minors", lambda jp: tables.append(jp.shape) or engine(jp))
        build_verification_report(imm, (33, 33), None, dict(DEFAULT_TOLERANCES))
        assert tables == [(33 * 33 + 9 * 13,)]

    @pytest.mark.parametrize("name", ["random_polynomial", "phi_h42"])
    def test_taken_rows_carry_their_minors_bit_for_bit(self, name, monkeypatch):
        imm = catalog_get(name)
        ss, ts = imm.domain.grid(9, 9)
        fr = build_frames(imm, np.meshgrid(ss, ts, indexing="ij"))
        tables, engine = [], curvature._jet_minors
        monkeypatch.setattr(curvature, "_jet_minors", lambda jp: tables.append(jp.shape) or engine(jp))
        # rows taken before the first read form their own minors at their nodes
        before = fr._take(np.array([1, 4]))
        assert bits(before.minors) == bits(engine(before.jets)) and tables == [(2, 9)]
        assert bits(fr.minors) == bits(engine(fr.jets)) and tables == [(2, 9), (9, 9)]
        for nodes in [3, np.array([[0, 8], [5, 2]]), slice(2, 6)]:
            taken = fr._take(nodes)
            assert bits(taken.minors) == bits(engine(taken.jets)), nodes
            assert bits(taken.minors) == bits(fr.minors[nodes]), nodes
        assert len(tables) == 2

    @pytest.mark.parametrize("name", ["random_polynomial", "phi_h42", "curved_sphere"])
    def test_the_prefix_is_the_first_pairs_bit_for_bit(self, name):
        # flat, pseudo-hyperbolic and pseudo-sphere ambients
        if name == "curved_sphere":
            imm = from_definition(parse_surface(CURVED_SPHERE))
        else:
            imm = catalog_get(name, {"seed": 3} if name == "random_polynomial" else {})
        ss, ts = imm.domain.grid(9, 9)
        dim = imm.ambient.signature.total_dim
        for p in [(float(ss[3]), float(ts[5])), curvature._nested_stencil((float(ss[6]), float(ts[2])), 1e-3),
                  tuple(np.meshgrid(ss, ts, indexing="ij"))]:
            jp = imm.evaluate(*p)
            table = curvature._jet_minors(jp)
            assert table.shape == jp.shape + (dim * (dim - 1) // 2,)
            for count in range(1, table.shape[-1] + 1):
                assert bits(table[..., :count]) == bits(first_pairs_minors(jp, count)), count


class TestOneFrameSource:
    tree = ast.parse(Path(curvature.__file__).read_text(encoding="utf-8"))

    def test_build_frames_only_in_the_builder_and_nested_report(self):
        # one FD frame source: no 5-point build and no second route to the FD values
        functions = [node for node in self.tree.body if isinstance(node, ast.FunctionDef)]
        users = {
            fn.name
            for fn in functions
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id == "build_frames"
        }
        assert users == {"_build_report", "_nested_report"}
        calls = [
            n for n in ast.walk(self.tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "build_frames"
        ]
        assert len(calls) == 1
        assert not {fn.name for fn in functions} & {"stencil_checks", "_report", "_stencil_nodes"}

    def test_one_kept_store(self):
        # the kept nested report is the only store: one functools cache, and
        # nothing keeps a second one (a kept dict) beside it
        nodes = list(ast.walk(self.tree))
        caches = [
            n for n in nodes
            if isinstance(n, ast.Attribute) and n.attr in {"lru_cache", "cache", "cached_property"}
            or isinstance(n, ast.Name) and n.id in {"lru_cache", "cache", "cached_property"}
        ]
        assert len(caches) == 1
        kept = [n for n in nodes if isinstance(n, ast.arg) and n.arg == "kept" or isinstance(n, ast.Name) and n.id == "kept"]
        assert kept == []


class TestPlainRecords:
    def test_no_attribute_hooks_object_calls_or_globals(self):
        # lazy fields are explicit (properties, a functools cache): no
        # __getattr__, no object.__new__ or object.__setattr__, no global state
        tree = ast.parse(Path(curvature.__file__).read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        assert not [n.name for n in nodes if isinstance(n, ast.FunctionDef) and n.name == "__getattr__"]
        assert not [n for n in nodes if isinstance(n, ast.Global)]
        assert not [
            n.attr for n in nodes
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "object"
        ]


# the closed forms of the catalog's surfaces: (K, KD, H2, defect) at every
# node, KD in the engine's orientation; c = -1 in H(3,2), 0 in E(2,2)
CLOSED_FORMS = {
    "phi_h42": (-1.0 / 3.0, -2.0 / 3.0, 0.0, 0.0),
    "totally_geodesic_h42": (-1.0, 0.0, 0.0, 0.0),
    "umbilical_flat": (-1.0, 0.0, -1.0, 0.0),
    "flat_L": (0.0, 0.0, 0.0, 1.0),
}


class TestInvariantsFromH:
    """K, KD, H2 and the defect come from h, with no normal basis."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS) + ["definition_file"])
    def test_closed_forms_on_65x65(self, name):
        # the normal scan lost 2-3 digits of K at about 0.7% of the phi_h42
        # nodes (6.8e-13 near (0.875, +-0.938)); h keeps roundoff everywhere
        if name == "definition_file":
            imm, want = from_definition(parse_surface(DEFINITION_FILE.read_text())), CLOSED_FORMS["phi_h42"]
        else:
            imm, want = catalog_get(name), CLOSED_FORMS[name]
        sample = sample_surface(imm, (65, 65))
        for key, value in zip(("K", "KD", "H2", "defect"), want):
            assert np.max(np.abs(getattr(sample, key) - value)) <= 1e-14, key

    def test_holomorphic_graph_on_65x65(self):
        # an equality surface of E(2,2): KD = -K and H = 0 at every node
        sample = sample_surface(catalog_get("holomorphic_graph", {"f": "z^2/2"}), (65, 65))
        assert np.max(np.abs(sample.K + sample.KD)) <= 1e-14
        assert np.max(np.abs(sample.H2)) <= 1e-14

    def test_parallel_axes_keep_kd_at_roundoff(self):
        # a graph in the Lorentzian 3-space x1 = 0 has a flat normal bundle:
        # h takes values on one line, so u and v are parallel and KD = 0;
        # <u,u><v,v> - <u,v>^2 computed as it stands gives |KD| ~ 8e-10 here
        imm = from_definition(parse_surface(
            "ambient E(2,2)\nx1 = 0\nx2 = 0.1*s^2 + 0.05*s*t - 0.08*t^2 + 0.03*s^3\nx3 = s\nx4 = t"
        ))
        sample = sample_surface(imm, (65, 65))
        assert np.max(sample.h_max) > 0.1
        assert np.max(np.abs(sample.KD)) <= 1e-15

    def test_kd_sign_under_isometries(self, monkeypatch):
        # an ambient isometry keeps K, H2 and the defect and multiplies KD by
        # its determinant; the images' normal pairs are seeded by every pair
        # and flip the normal completion picks, and KD's sign takes no LAPACK
        # determinant
        rng = np.random.default_rng(14)
        cases = []
        for imm in isometry_surfaces():
            ss, ts = imm.domain.grid(9, 9)
            points = [np.meshgrid(ss, ts, indexing="ij"), (float(ss[3]), float(ts[5]))]
            for k in range(8):
                iso = random_isometry(imm.ambient.signature, rng, generic=k % 2 == 1)
                cases.append((imm, isometric_image(imm, iso), np.linalg.det(iso), points))

        def no_det(*args, **kwargs):
            raise AssertionError("np.linalg.det called")

        monkeypatch.setattr(np.linalg, "det", no_det)
        seen = set()
        for imm, image, det, points in cases:
            for p in points:
                want = point_report(imm, p)
                got = point_report(image, p)
                for key in ("K", "H2", "defect"):
                    assert np.max(np.abs(getattr(got, key) - getattr(want, key))) <= 1e-12, (imm.name, key)
                assert np.max(np.abs(got.KD - round(det) * want.KD)) <= 1e-12, imm.name
                fr = got.frames
                seen |= set(zip(map(tuple, fr.scan.reshape(-1, 2).tolist()), np.ravel(fr.flipped).tolist()))
        assert seen == {(pair, flip) for pair in ((0, 1), (0, 2), (1, 2)) for flip in (False, True)}

    @pytest.mark.parametrize("name,params", FRAME_SURFACES + [("curved_sphere", {})])
    def test_kd_is_the_commutator_of_the_shape_operators(self, name, params):
        # KD's sign from the jets' minors is the frame orientation's:
        # KD = <[A3, A4] e1, e2> in the completed, oriented normal frame
        if name == "curved_sphere":
            imm = from_definition(parse_surface(CURVED_SPHERE))
        else:
            imm = frame_surface(name, params)
        ss, ts = imm.domain.grid(9, 9)
        rep = point_report(imm, np.meshgrid(ss, ts, indexing="ij"))
        a3, a4 = shape_operators(rep.h, rep.frames)
        commutator = a3.a12 * (a4.a11 - a4.a22) - a4.a12 * (a3.a11 - a3.a22)
        assert np.max(np.abs(rep.KD - commutator)) <= 1e-12
        if name == "curved_sphere":
            assert np.min(rep.KD) > 0.1

    @pytest.mark.parametrize("name", sorted(STACKED_SURFACES))
    def test_the_shape_operator_route_of_the_baseline(self, name):
        # bench/baseline.py calls invariants(*shape_operators(h, fr), fr, c),
        # which rebuilds h = -A3 e3 - A4 e4 from the normal pair
        imm = TestStackedStages.surface(name)
        c = imm.ambient.curvature
        ss, ts = TestStackedStages.inset_grid(imm, 3)
        for p in [(ss, ts)] + list(zip(ss.ravel().tolist(), ts.ravel().tolist())):
            fr = build_frames(imm, p)
            h = second_fundamental_form(imm, p, fr)
            a3, a4 = shape_operators(h, fr)
            got = curvature.invariants(a3, a4, fr, c)
            want = point_report(imm, p)
            assert got.A3 is a3 and got.A4 is a4
            for key in ("K", "KD", "H2", "defect"):
                assert np.max(np.abs(getattr(got, key) - getattr(want, key))) <= 1e-13, key
            assert np.max(np.abs(got.H.coords - want.H.coords)) <= 1e-13


class TestNormalPairOnFirstRead:
    """build_frames completes e3, e4, scan and flipped when something first
    reads them, at the nodes of the FrameData read."""

    @pytest.fixture
    def completions(self, monkeypatch):
        """The node shapes of every completion of a normal pair."""
        shapes, engine = [], curvature._complete_normals
        monkeypatch.setattr(
            curvature, "_complete_normals", lambda fr: shapes.append(fr.jets.shape) or engine(fr)
        )
        return shapes

    def test_a_report_without_the_canonical_frame_completes_nothing(self, completions):
        imm = catalog_get("random_polynomial", {"seed": 7})
        ss, ts = imm.domain.grid(9, 9)
        rep = point_report(imm, np.meshgrid(ss, ts, indexing="ij"))
        sample_surface(imm, (9, 9))
        assert completions == [] and rep.A3 is None and rep.A4 is None
        # the shape operators complete the frames' normal pair, once
        a3, a4 = shape_operators(rep.h, rep.frames)
        assert completions == [(9, 9)]
        assert np.array_equal(as_array(a4), as_array(shape_operators(rep.h, rep.frames)[1]))
        assert completions == [(9, 9)]

    def test_a_point_report_completes_once(self, completions):
        # at the 13 nested-stencil nodes, which the FD checks at that point read next
        imm, p = catalog_get("phi_h42"), (0.3, -0.4)
        fr = point_report(imm, p).frames
        assert completions == [(13,)]
        assert fr.scan.tolist() == [0, 1] and completions == [(13,)]
        structure_equation_check(imm, p)
        codazzi_residual(imm, p)
        assert completions == [(13,)]

    @pytest.mark.parametrize("name,params", FRAME_SURFACES)
    def test_taken_rows_complete_alone(self, name, params):
        # the taken rows of a build complete to the bits of the whole build's rows
        imm = frame_surface(name, params)
        ss, ts = imm.domain.grid(9, 9)
        p = tuple(x.ravel() for x in np.meshgrid(ss, ts, indexing="ij"))
        rows = np.array([[0, 40], [80, 17], [5, 5]])
        taken, whole = build_frames(imm, p)._take(rows), build_frames(imm, p)
        assert taken.normals is None
        for key in ("e3", "e4"):
            assert bits(getattr(taken, key).coords) == bits(getattr(whole, key).coords[rows]), key
        for key in ("scan", "flipped"):
            assert np.array_equal(getattr(taken, key), getattr(whole, key)[rows]), key
        # a completed build hands its normal pair on
        assert whole._take(rows).normals is not None

    def test_verify_completes_the_stencil_nodes_only(self, completions):
        # the 1089 grid nodes are never completed, the 13 x 9 FD stencil nodes once
        imm = catalog_get("phi_h42")
        report = build_verification_report(imm, (33, 33), None, dict(DEFAULT_TOLERANCES))
        assert report["equality"] and completions == [(13, 9)]


def ellipse_bits(ell) -> list:
    return [bits(getattr(ell, key)) for key in ("a", "b", "is_circle", "is_point")] + [bits(ell.center.coords)]


class TestEllipseOnFirstRead:
    """point_report forms the ellipse of curvature when it is first read,
    from the <u,u>, <u,v>, <v,v> of the invariants, at the report's nodes."""

    @pytest.fixture
    def formed(self, monkeypatch):
        """The node shapes of every ellipse formed."""
        shapes, engine = [], curvature.ellipse_of_curvature
        monkeypatch.setattr(
            curvature, "ellipse_of_curvature",
            lambda h, center, gram=None: shapes.append(np.shape(h.h11.coords)[:-1]) or engine(h, center, gram),
        )
        return shapes

    def test_a_probe_forms_no_ellipse_until_it_is_read(self, formed):
        imm, p = catalog_get("phi_h42"), (0.3, -0.4)
        rep = point_report(imm, p)
        structure_equation_check(imm, p)
        codazzi_residual(imm, p)
        assert formed == []
        # formed once, at the point alone, not at its 13 stencil nodes
        assert rep.ellipse is rep.ellipse
        assert formed == [()]
        assert rep.ellipse.is_circle and not rep.ellipse.is_point

    @pytest.mark.parametrize("name,params", FRAME_SURFACES)
    def test_equals_the_ellipse_of_h_bit_for_bit(self, name, params):
        imm = frame_surface(name, params)
        ss, ts = imm.domain.grid(9, 9)
        grid = tuple(x.ravel() for x in np.meshgrid(ss, ts, indexing="ij"))
        inset = 0.5 * (ss[1] + ss[2]), 0.5 * (ts[6] + ts[7])
        reports = {"grid": point_report(imm, grid)}
        # a probe is row 0 of its nested-stencil build, whose batch rounds
        # the gram as a matrix-vector product, not as one dot product
        nested = curvature._nested_report(imm, inset, curvature._FD_STEP)
        want = ellipse_bits(ellipse_of_curvature(nested.h, nested.H)._take(0))
        for read_canonical in (True, False):
            probe = point_report(imm, inset)
            if read_canonical:
                probe.canonical
            assert ellipse_bits(probe.ellipse) == want, read_canonical
        # verify's stencil rows, taken from the last block of its grid batch,
        # whose ellipse the grid's fields formed before the rows were taken
        step = curvature._FD_STEP
        fd = _fd_sample_points(imm.domain, step)
        stencils = _sample(imm, (9, 9), None, curvature._nested_stencil(fd, step))[2]
        reports["stencil rows"] = curvature._stencil_checks(stencils, fd, step)[0]
        # rows taken before the ellipse is formed, from the gram's rows, and after
        rows = np.array([[0, 40], [80, 17]])
        for formed_first in (False, True):
            whole = point_report(imm, grid)
            if formed_first:
                whole.ellipse
            taken = reports[f"taken, formed first: {formed_first}"] = whole._take(rows)
            assert ellipse_bits(taken.ellipse) == ellipse_bits(whole.ellipse._take(rows))
        for key, rep in reports.items():
            assert ellipse_bits(rep.ellipse) == ellipse_bits(ellipse_of_curvature(rep.h, rep.H)), key

    def test_a_report_built_with_its_ellipse_keeps_it(self):
        imm = catalog_get("random_polynomial", {"seed": 3})
        rep = point_report(imm, (0.1, 0.2))
        given = curvature.CurvatureReport(rep.A3, rep.A4, rep.H, rep.H2, rep.K, rep.KD, rep.defect, ellipse=rep.ellipse)
        assert given.ellipse is rep.ellipse
        assert curvature.CurvatureReport(rep.A3, rep.A4, rep.H, rep.H2, rep.K, rep.KD, rep.defect).ellipse is None


class TestKDOnFirstRead:
    """point_report signs KD when it is first read, from h and the jets'
    minors; the defect reads |KD| alone."""

    @pytest.fixture
    def signed(self, monkeypatch):
        """The node shapes of every KD signed."""
        shapes, engine = [], curvature._signed_kd
        monkeypatch.setattr(
            curvature, "_signed_kd",
            lambda h, frames, abs_kd: shapes.append(np.shape(abs_kd)) or engine(h, frames, abs_kd),
        )
        return shapes

    def test_a_grid_report_signs_no_kd_until_it_is_read(self, signed):
        imm = catalog_get("phi_h42")
        ss, ts = imm.domain.grid(5, 7)
        rep = point_report(imm, tuple(x.ravel() for x in np.meshgrid(ss, ts, indexing="ij")))
        rep.K, rep.H2, rep.defect, rep.abs_KD
        # nothing read the sign, so not even the jets' minors are formed
        assert signed == [] and rep.frames._minors is None
        assert rep.KD is rep.KD
        assert signed == [(35,)]
        assert np.array_equal(rep.abs_KD, np.abs(rep.KD))

    def test_taken_rows_are_signed_at_the_parents_nodes(self, signed):
        # one row alone would round its sign sum as a dot product, not as a
        # row of a matrix-vector product; where the sum is at roundoff that
        # can flip the sign (seen at one node of 324 isometric images of
        # 9x9 and 17x17 grids of the catalog, the sphere and a flat-normal graph)
        imm = catalog_get("random_polynomial", {"seed": 3})
        ss, ts = imm.domain.grid(5, 7)
        rep = point_report(imm, tuple(x.ravel() for x in np.meshgrid(ss, ts, indexing="ij")))
        for nodes in (5, np.array([0, 34])):
            rep._take(nodes).KD
        assert signed == [(35,)]

    @pytest.mark.parametrize("name,params", FRAME_SURFACES)
    def test_equals_the_eager_kd_bit_for_bit(self, name, params):
        imm = frame_surface(name, params)
        ss, ts = imm.domain.grid(9, 9)
        grid = tuple(x.ravel() for x in np.meshgrid(ss, ts, indexing="ij"))
        inset = 0.5 * (ss[1] + ss[2]), 0.5 * (ts[6] + ts[7])
        whole = point_report(imm, grid)
        want = {"grid": eager_kd(whole.h, whole.frames.jets)}
        got = {"grid": whole.KD}
        # a probe is row 0 of its nested-stencil build, signed at the 13 nodes
        nested = curvature._nested_report(imm, inset, curvature._FD_STEP)
        for read_canonical in (True, False):
            probe = point_report(imm, inset)
            if read_canonical:
                probe.canonical
            got[f"probe {read_canonical}"] = probe.KD
            want[f"probe {read_canonical}"] = eager_kd(nested.h, nested.frames.jets)[0]
        # verify's stencil rows, taken from the last block of its grid batch
        step = curvature._FD_STEP
        fd = _fd_sample_points(imm.domain, step)
        stencils = _sample(imm, (9, 9), None, curvature._nested_stencil(fd, step))[2]
        got["stencil rows"] = curvature._stencil_checks(stencils, fd, step)[0].KD
        want["stencil rows"] = eager_kd(stencils.h, stencils.frames.jets)[0]
        # rows taken before KD is signed, one row among them, and after
        for rows in (np.array([[0, 40], [80, 17]]), 5):
            for signed_first in (False, True):
                report = point_report(imm, grid)
                if signed_first:
                    report.KD
                got[f"taken {rows!r} {signed_first}"] = report._take(rows).KD
                want[f"taken {rows!r} {signed_first}"] = want["grid"][rows]
        # invariants() signs KD at once, on the h that the shape operators give back
        rep = point_report(imm, grid)
        rep.canonical  # fills A3 and A4
        inv = curvature.invariants(rep.A3, rep.A4, rep.frames, imm.ambient.curvature)
        e3, e4 = rep.frames.e3.coords, rep.frames.e4.coords
        h = SecondFF(*(
            PVector(-x3[..., None] * e3 - x4[..., None] * e4, rep.frames.e3.signature)
            for x3, x4 in ((rep.A3.a11, rep.A4.a11), (rep.A3.a12, rep.A4.a12), (rep.A3.a22, rep.A4.a22))
        ))
        got["invariants"], want["invariants"] = inv.KD, eager_kd(h, rep.frames.jets)
        assert got.keys() == want.keys()
        for key in want:
            assert bits(got[key]) == bits(want[key]), key


def canonical_bits(can: CanonicalFrame) -> list:
    return [bits(getattr(can, key)) for key in CanonicalFrame._fields]


def sym2_bits(a: Sym2) -> list:
    return [bits(x) for x in (a.a11, a.a12, a.a22)]


class TestCanonicalOnFirstRead:
    """point_report forms the canonical frame when it is first read, at the
    report's nodes, and fills A3 and A4 from h and the normal pair for it."""

    @pytest.fixture
    def formed(self, monkeypatch):
        """The node shapes of every canonical frame formed."""
        shapes, engine = [], curvature.canonical_equality_frame
        monkeypatch.setattr(
            curvature, "canonical_equality_frame",
            lambda a3, a4: shapes.append(np.shape(a3.a11)) or engine(a3, a4),
        )
        return shapes

    def test_a_report_forms_no_canonical_frame_until_it_is_read(self, formed):
        imm = catalog_get("phi_h42")
        ss, ts = imm.domain.grid(5, 7)
        rep = point_report(imm, np.meshgrid(ss, ts, indexing="ij"))
        rep.K, rep.KD, rep.defect, rep.ellipse
        assert formed == [] and rep.A3 is None and rep.A4 is None
        assert rep.canonical is rep.canonical
        assert formed == [(5, 7)] and rep.A3.a11.shape == (5, 7)
        # a probe forms it at its point alone, not at its 13 stencil nodes
        p = (0.3, -0.4)
        probe = point_report(imm, p)
        structure_equation_check(imm, p)
        codazzi_residual(imm, p)
        assert formed == [(5, 7)] and probe.A3 is None
        assert probe.canonical.residual <= 1e-12
        assert formed == [(5, 7), ()]

    @pytest.mark.parametrize("name,params", FRAME_SURFACES)
    def test_equals_the_canonical_frame_of_the_shape_operators_bit_for_bit(self, name, params):
        imm = frame_surface(name, params)
        ss, ts = imm.domain.grid(9, 9)
        grid = tuple(x.ravel() for x in np.meshgrid(ss, ts, indexing="ij"))
        inset = 0.5 * (ss[1] + ss[2]), 0.5 * (ts[6] + ts[7])
        reports = {"grid": point_report(imm, grid), "probe": point_report(imm, inset)}
        # verify's stencil rows, taken from the 13 x 9 nested stencils in the
        # last block of its grid batch, before and after those form theirs
        step = curvature._FD_STEP
        fd = _fd_sample_points(imm.domain, step)
        stencils = _sample(imm, (9, 9), None, curvature._nested_stencil(fd, step))[2]
        reports["stencil rows"] = curvature._stencil_checks(stencils, fd, step)[0]
        reports["stencils"] = stencils
        stencils.canonical
        reports["stencil rows, formed first"] = curvature._stencil_checks(stencils, fd, step)[0]
        # rows of a grid report taken before the canonical frame is formed, and after
        rows = np.array([[0, 40], [80, 17]])
        for formed_first in (False, True):
            whole = point_report(imm, grid)
            if formed_first:
                whole.canonical
            taken = reports[f"taken, formed first: {formed_first}"] = whole._take(rows)
            assert canonical_bits(taken.canonical) == canonical_bits(whole.canonical._take(rows))
        for key, rep in reports.items():
            a3, a4 = shape_operators(rep.h, rep.frames)
            assert canonical_bits(rep.canonical) == canonical_bits(canonical_equality_frame(a3, a4)), key
            assert sym2_bits(rep.A3) == sym2_bits(a3) and sym2_bits(rep.A4) == sym2_bits(a4), key

    def test_a_report_built_with_its_canonical_frame_keeps_it(self):
        imm = catalog_get("random_polynomial", {"seed": 3})
        rep = point_report(imm, (0.1, 0.2))
        can = rep.canonical
        given = curvature.CurvatureReport(rep.A3, rep.A4, rep.H, rep.H2, rep.K, rep.KD, rep.defect, canonical=can)
        assert given.canonical is can
        # a report with the shape operators alone forms its frame from them
        plain = curvature.CurvatureReport(rep.A3, rep.A4, rep.H, rep.H2, rep.K, rep.KD, rep.defect)
        assert canonical_bits(plain.canonical) == canonical_bits(can)

    def test_a_report_without_sources_reads_none(self):
        # built by hand from a probe whose canonical frame was never read:
        # no A3, A4, h or frames, so there is no canonical frame to form
        imm = catalog_get("phi_h42")
        rep = point_report(imm, (0.2, 0.1))
        plain = curvature.CurvatureReport(rep.A3, rep.A4, rep.H, rep.H2, rep.K, rep.KD, rep.defect)
        assert plain.A3 is None and plain.canonical is None
        assert plain.KD == rep.KD and plain.abs_KD == abs(rep.KD)
        assert "canonical=None" in repr(plain)
        # and no KD to sign without h and the frames
        bare = curvature.CurvatureReport(None, None, rep.H, rep.H2, rep.K, None, rep.defect)
        assert bare.KD is None and bare.abs_KD is None and bare.canonical is None
        assert "KD=None" in repr(bare) and "canonical=None" in repr(bare)


class TestAmbientCurvature:
    def test_flat_gives_zero(self):
        x, y, z = synthetic_frame().e1, synthetic_frame().e2, synthetic_frame().e3
        assert ambient_curvature(x, y, z, 0.0).euclid_norm() == 0.0

    def test_antisymmetry_collapse(self):
        x = synthetic_frame().e1
        assert ambient_curvature(x, x, x, -1.0).euclid_norm() == 0.0

    def test_orthonormal_substitution(self):
        fr = synthetic_frame()
        out = ambient_curvature(fr.e1, fr.e2, fr.e1, -1.0)
        # c(<X,X> Y - <Y,X> X) = -Y for space-like unit X orthogonal to Y
        assert np.allclose(out.coords, (-1.0 * fr.e2).coords, atol=1e-15)


class TestWintgenInequalityProperty:
    def test_catalog_and_random_seeds(self):
        rng = np.random.default_rng(40)
        specs = [
            ("phi_h42", {}),
            ("flat_L", {}),
            ("totally_geodesic_h42", {}),
            ("holomorphic_graph", {"f": "z^2/2"}),
            ("umbilical_flat", {}),
        ] + [("random_polynomial", {"seed": k}) for k in range(5)]
        for name, params in specs:
            imm = catalog_get(name, params)
            for p in sample_points(imm.domain, rng, 12):
                rep = point_report(imm, p)
                assert rep.defect >= -1e-8

    def test_equality_set(self):
        # equality surfaces: the hyperbolic-plane immersion, the totally
        # geodesic plane, the umbilical surface, and holomorphic graphs
        rng = np.random.default_rng(41)
        specs = [
            ("phi_h42", {}),
            ("totally_geodesic_h42", {}),
            ("umbilical_flat", {}),
            ("holomorphic_graph", {"f": "z^2/2"}),
            ("holomorphic_graph", {"f": "z^3/3"}),
            ("holomorphic_graph", {"f": "2*z + z^2/4"}),
        ]
        for name, params in specs:
            imm = catalog_get(name, params)
            for p in sample_points(imm.domain, rng, 12):
                rep = point_report(imm, p)
                assert abs(rep.defect) <= 1e-8
                assert rep.ellipse.is_circle or rep.ellipse.is_point
