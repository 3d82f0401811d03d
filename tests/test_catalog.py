import math
from pathlib import Path

import numpy as np
import pytest

from neutralsurf.catalog import (
    Immersion,
    JetPoint,
    _coefficients,
    _poly_coeffs_from_param,
    _uniform_draws,
    catalog_get,
    catalog_names,
    check_membership,
    from_definition,
)
from neutralsurf.curvature import point_report
from neutralsurf.errors import DegeneracyError, InputMismatchError
from neutralsurf.expr import parse_surface
from neutralsurf.jets import FIELDS
from oracles import accel_ss, accel_st, accel_tt, bits, induced_metric, random_polynomial_reference, sample_points


def scaled_copy(imm: Immersion, factor: float) -> Immersion:
    def evaluate(s, t):
        jp = imm.evaluate(s, t)
        return JetPoint(jp.ambient, tuple(factor * c for c in jp.components))

    return Immersion(
        name=f"{imm.name}_x{factor}",
        ambient=imm.ambient,
        evaluator=evaluate,
        domain=imm.domain,
    )


class TestCatalogGet:
    def test_phi_position_at_origin(self):
        phi = catalog_get("phi_h42")
        x = phi.evaluate(0.0, 0.0).position()
        assert np.allclose(x.coords, [-7 / 8, 0.0, 1 / 2, 0.0, -1 / 8], atol=1e-15)

    def test_flat_l_position_at_origin(self):
        fl = catalog_get("flat_L")
        x = fl.evaluate(0.0, 0.0).position()
        r = 1 / math.sqrt(2)
        assert np.allclose(x.coords, [r, r, 0.0, 0.0, 0.0], atol=1e-15)

    def test_linear_graph_is_flat_plane(self):
        # f(z) = 2z: affine graph, all second derivatives vanish
        imm = catalog_get("holomorphic_graph", {"f": "2*z"})
        jp = imm.evaluate(1.5, 1.0)
        for acc in (accel_ss(jp), accel_st(jp), accel_tt(jp)):
            assert acc.euclid_norm() <= 1e-12

    def test_unknown_name(self):
        with pytest.raises(InputMismatchError):
            catalog_get("nonexistent")

    def test_unknown_params_rejected(self):
        with pytest.raises(InputMismatchError):
            catalog_get("phi_h42", {"bogus": 1})

    def test_catalog_has_six_entries(self):
        assert len(catalog_names()) == 6

    def test_holomorphic_coefficient_list(self):
        by_text = catalog_get("holomorphic_graph", {"f": "z^2/2"})
        by_coeffs = catalog_get("holomorphic_graph", {"f": [0, 0, 0.5]})
        a = by_text.evaluate(1.5, 1.0).position()
        b = by_coeffs.evaluate(1.5, 1.0).position()
        assert np.allclose(a.coords, b.coords, atol=1e-15)

    @pytest.mark.parametrize("f,text", [(2, "2"), (1.5, "1.5")])
    def test_holomorphic_number_is_the_constant_polynomial(self, f, text):
        # as --param f=2 gives it: the polynomial of the same expression; a
        # constant graph is not space-like, and the metric check at the
        # sampled node says so
        assert np.array_equal(_poly_coeffs_from_param(f), _poly_coeffs_from_param(text))
        assert np.array_equal(_poly_coeffs_from_param(0.5 - 2j), [0.5 - 2j])
        imm = catalog_get("holomorphic_graph", {"f": f})
        with pytest.raises(DegeneracyError) as err:
            point_report(imm, (1.5, 1.0))
        assert str(err.value) == "surface 'holomorphic_graph' is not space-like at (s,t)=(1.5, 1.0): E=-1, EG-F^2=1"

    def test_holomorphic_requires_f(self):
        with pytest.raises(InputMismatchError):
            catalog_get("holomorphic_graph")

    def test_only_random_polynomial_evaluates_at_construction(self, monkeypatch):
        # space-likeness is checked on the nodes a command samples; only
        # random_polynomial's coefficient search samples its surface
        calls = []
        evaluate = Immersion.evaluate
        monkeypatch.setattr(Immersion, "evaluate", lambda imm, s, t: calls.append(imm.name) or evaluate(imm, s, t))
        for name in catalog_names():
            catalog_get(name, {"f": "z^2/2"} if name == "holomorphic_graph" else None)
        assert calls == ["random_polynomial"]
        # each build holds its own expected dict
        assert catalog_get("phi_h42").expected is not catalog_get("phi_h42").expected

    def test_random_polynomial_deterministic(self):
        a = catalog_get("random_polynomial", {"seed": 12})
        b = catalog_get("random_polynomial", {"seed": 12})
        c = catalog_get("random_polynomial", {"seed": 13})
        pa = a.evaluate(0.3, -0.2).position().coords
        pb = b.evaluate(0.3, -0.2).position().coords
        pc = c.evaluate(0.3, -0.2).position().coords
        assert np.array_equal(pa, pb)
        assert not np.array_equal(pa, pc)

    @pytest.mark.parametrize(
        "name,params,message",
        [
            ("random_polynomial", {"seed": -1}, "seed must be a non-negative integer, got -1"),
            ("random_polynomial", {"seed": "x"}, "seed must be a non-negative integer, got 'x'"),
            ("random_polynomial", {"amplitude": "x"}, "amplitude must be in (0, 0.1]"),
            ("umbilical_flat", {"radius": "x"}, "radius must be positive"),
            ("umbilical_flat", {"radius": math.inf}, "radius must be positive and finite"),
            ("umbilical_flat", {"radius": "inf"}, "radius must be positive and finite"),
            ("umbilical_flat", {"radius": 1e-170}, "radius^2 must be finite and nonzero"),
            ("umbilical_flat", {"radius": 1e200}, "radius^2 must be finite and nonzero"),
            ("holomorphic_graph", {"f": "z^2/2", "domain": 1}, "does not accept parameters ['domain']"),
            ("random_polynomial", {"seed": 3.7}, "seed must be a non-negative integer, got 3.7"),
            ("random_polynomial", {"seed": "3.7"}, "seed must be a non-negative integer, got '3.7'"),
            ("random_polynomial", {"seed": math.inf}, "seed must be a non-negative integer, got inf"),
        ],
    )
    def test_invalid_parameter_is_an_input_mismatch(self, name, params, message):
        # not a ValueError from numpy or float(): the CLI maps this error to exit 2
        with pytest.raises(InputMismatchError) as exc:
            catalog_get(name, params)
        assert message in str(exc.value)

    @pytest.mark.parametrize("seed", ["3", np.int64(3), 3.0])
    def test_integral_seed_spellings_are_seed_3(self, seed):
        # a fraction is rejected above rather than truncated; an integral value is that seed
        imm = catalog_get("random_polynomial", {"seed": seed})
        want = catalog_get("random_polynomial", {"seed": 3})
        assert imm.params == want.params == {"seed": 3, "amplitude": 0.1}
        assert bits(imm.evaluate(0.3, -0.2).position().coords) == bits(want.evaluate(0.3, -0.2).position().coords)


class TestMembership:
    def test_phi_on_random_points(self):
        phi = catalog_get("phi_h42")
        rng = np.random.default_rng(2)
        assert check_membership(phi, sample_points(phi.domain, rng, 100)) <= 1e-10

    def test_flat_l(self):
        fl = catalog_get("flat_L")
        rng = np.random.default_rng(2)
        assert check_membership(fl, sample_points(fl.domain, rng, 100)) <= 1e-10

    def test_scaled_copy_breaks_membership(self):
        phi = catalog_get("phi_h42")
        bad = scaled_copy(phi, 1.1)
        residual = check_membership(bad, [(0.0, 0.0)])
        # |1.1^2 * (-1) - (-1)| = 0.21
        assert residual == pytest.approx(0.21, abs=1e-12)

    def test_flat_ambient_rejected(self):
        with pytest.raises(InputMismatchError):
            check_membership(catalog_get("umbilical_flat"), [(0.0, 0.0)])


class TestInducedMetric:
    def test_phi_metric_closed_form(self):
        phi = catalog_get("phi_h42")
        rng = np.random.default_rng(4)
        for s, t in sample_points(phi.domain, rng, 60):
            m = induced_metric(phi, (s, t))
            assert abs(m.E - 1.0) <= 1e-10
            assert abs(m.F) <= 1e-10
            assert abs(m.G - math.exp(2 * s / math.sqrt(3))) <= 1e-10

    def test_totally_geodesic_at_origin_with_oracle(self):
        geo = catalog_get("totally_geodesic_h42")
        m = induced_metric(geo, (0.0, 0.0))
        assert (m.E, m.F, m.G) == pytest.approx((1.0, 0.0, 1.0), abs=1e-12)

        # independent finite-difference oracle on the raw chart
        def chart(s, t):
            return np.array(
                [
                    math.cosh(s) * math.cosh(t),
                    0.0,
                    0.0,
                    math.cosh(s) * math.sinh(t),
                    math.sinh(s),
                ]
            )

        h = 1e-6
        vs = (chart(h, 0) - chart(-h, 0)) / (2 * h)
        vt = (chart(0, h) - chart(0, -h)) / (2 * h)
        w = np.array([-1.0, -1.0, -1.0, 1.0, 1.0])
        assert float(np.dot(w * vs, vs)) == pytest.approx(m.E, abs=1e-9)
        assert float(np.dot(w * vs, vt)) == pytest.approx(m.F, abs=1e-9)
        assert float(np.dot(w * vt, vt)) == pytest.approx(m.G, abs=1e-9)

    def test_holomorphic_conformal_metric(self):
        imm = catalog_get("holomorphic_graph", {"f": "z^2/2"})
        m = induced_metric(imm, (1.6, 1.2))  # |z| = 2
        assert m.E == pytest.approx(3.0, abs=1e-12)
        assert m.G == pytest.approx(3.0, abs=1e-12)
        assert m.F == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_point_raises(self):
        imm = catalog_get("holomorphic_graph", {"f": "z^2/2"})
        with pytest.raises(DegeneracyError):
            induced_metric(imm, (0.5, 0.5))  # |f'| < 1


CATALOG_SPECS = [
    ("phi_h42", {}),
    ("flat_L", {}),
    ("totally_geodesic_h42", {}),
    ("holomorphic_graph", {"f": "z^2/2"}),
    ("umbilical_flat", {}),
    ("random_polynomial", {"seed": 9}),
]


@pytest.mark.parametrize("name,params", CATALOG_SPECS)
def test_every_surface_spacelike_on_grid(name, params):
    imm = catalog_get(name, params)
    ss, ts = imm.domain.grid(33, 33)
    for s in ss:
        for t in ts:
            m = induced_metric(imm, (s, t))
            assert m.positive_definite


def test_nonflat_membership_invariant():
    for name in ("phi_h42", "flat_L", "totally_geodesic_h42"):
        imm = catalog_get(name)
        ss, ts = imm.domain.grid(9, 9)
        pts = [(float(s), float(t)) for s in ss for t in ts]
        assert check_membership(imm, pts) <= 1e-9


def nodes(imm: Immersion) -> list[tuple]:
    """A single node and a 3x4 batch of nodes inside the domain."""
    ss, ts = imm.domain.grid(5, 6)
    return [(float(ss[1]), float(ts[4])), tuple(np.meshgrid(ss[1:4], ts[1:5], indexing="ij"))]


@pytest.mark.parametrize("seed", range(8))
def test_shared_powers_equal_jpow_monomials(seed):
    imm = catalog_get("random_polynomial", {"seed": seed})
    ref = random_polynomial_reference(seed)
    # beyond a node and a 3x4 batch: a 1206-node flat batch and a 65x65
    # grid, where the level-wise sums run at block sizes
    flat = (x.ravel() for x in np.meshgrid(*imm.domain.grid(18, 67), indexing="ij"))
    grid = np.meshgrid(*imm.domain.grid(65, 65), indexing="ij")
    for p in [*nodes(imm), tuple(flat), tuple(grid)]:
        got, want = imm.evaluate(*p).components, ref.evaluate(*p).components
        for k, (a, b) in enumerate(zip(got, want)):
            for name in FIELDS:
                assert bits(getattr(a, name)) == bits(getattr(b, name)), (seed, k, name)


class TestUniformDraws:
    """random_polynomial's coefficients are numpy's default_rng(seed).uniform
    stream bit for bit, drawn without numpy's random module."""

    @pytest.mark.parametrize("amplitude", [0.1, 1e-3])
    @pytest.mark.parametrize("seeds", [range(500), [2**32 - 1, 2**32, 2**64 + 7, 10**30, 2**130 + 5]], ids=["small", "multi_word"])
    def test_coefficients_equal_numpy_uniform(self, seeds, amplitude):
        for seed_value in seeds:
            rng, draws = np.random.default_rng(seed_value), _uniform_draws(seed_value)
            for k in range(2):
                want = rng.uniform(-amplitude, amplitude, size=10)
                assert bits(_coefficients(draws, amplitude)) == bits(want), (seed_value, k)

    def test_a_200_draw_stream(self):
        # twenty coefficient vectors: ten tries of the space-like validation
        draws = _uniform_draws(12345)
        got = np.concatenate([_coefficients(draws, 0.1) for _ in range(20)])
        assert bits(got) == bits(np.random.default_rng(12345).uniform(-0.1, 0.1, size=200))


VECTORS = (JetPoint.position, JetPoint.velocity_s, JetPoint.velocity_t, accel_ss, accel_st, accel_tt)


class TestJetPointTable:
    """The vectors are views of one table packed from the component jets."""

    @pytest.mark.parametrize("name,params", CATALOG_SPECS)
    def test_vectors_equal_broadcast_and_stack(self, name, params):
        imm = catalog_get(name, params)
        for p in nodes(imm):
            jp = imm.evaluate(*p)
            for vector, field in zip(VECTORS, FIELDS):
                # the construction before packing: broadcast each component, stack
                stacked = np.stack(
                    [np.broadcast_to(getattr(c, field), jp.shape) for c in jp.components], axis=-1
                )
                assert bits(vector(jp).coords) == bits(stacked), (name, vector.__name__)

    def test_scalar_component_is_broadcast(self):
        # flat_L's third component is the constant zero jet with float fields
        imm = catalog_get("flat_L")
        s, t = nodes(imm)[1]
        jp = imm.evaluate(s, t)
        assert all(np.ndim(getattr(jp.components[2], f)) == 0 for f in FIELDS)
        for vector in VECTORS:
            coords = vector(jp).coords
            assert coords.shape == s.shape + (5,)
            assert bits(coords[..., 2]) == bits(np.zeros(s.shape))

    @pytest.mark.parametrize("vector", VECTORS, ids=[v.__name__ for v in VECTORS])
    def test_vectors_are_read_only(self, vector):
        imm = catalog_get("phi_h42")
        for p in nodes(imm):
            jp = imm.evaluate(*p)
            v = vector(jp)
            with pytest.raises(ValueError):
                v.coords[..., 0] = 1.0
            with pytest.raises(ValueError):
                v.coords += 1.0


DEFINITION_FILE = Path(__file__).resolve().parent.parent / "bench" / "data" / "phi_h42.txt"


def shape_cases(imm: Immersion) -> list[tuple]:
    """(float, float), (float, 1-D) and (2-D, 2-D) nodes inside the domain."""
    ss, ts = imm.domain.grid(5, 6)
    return [
        (float(ss[2]), float(ts[3])),
        (float(ss[1]), ts[1:5]),
        tuple(np.meshgrid(ss[1:4], ts[1:5], indexing="ij")),
    ]


class TestJetPointShape:
    """A JetPoint from evaluate has the shape of its broadcast nodes."""

    @pytest.mark.parametrize(
        "imm",
        [catalog_get(name, params) for name, params in CATALOG_SPECS]
        + [from_definition(parse_surface(DEFINITION_FILE.read_text(encoding="utf-8")))],
        ids=[name for name, _ in CATALOG_SPECS] + ["definition_file"],
    )
    def test_shape_is_the_nodes_shape(self, imm):
        for s, t in shape_cases(imm):
            want = np.broadcast_shapes(np.shape(s), np.shape(t))
            jp = imm.evaluate(s, t)
            assert jp.shape == want
            for vector in VECTORS:
                assert vector(jp).coords.shape == want + (jp.ambient.signature.total_dim,)

    def test_direct_construction_broadcasts_its_fields(self):
        # as a test double builds one: flat_L's components with the constant
        # zero jet, whose fields are floats
        imm = catalog_get("flat_L")
        for s, t in shape_cases(imm):
            want = np.broadcast_shapes(np.shape(s), np.shape(t))
            components = imm.evaluate(s, t).components
            assert all(np.ndim(getattr(components[2], f)) == 0 for f in FIELDS)
            jp = JetPoint(imm.ambient, components)
            assert jp.shape == want
            coords = jp.velocity_t().coords
            assert coords.shape == want + (5,)
            assert bits(coords[..., 2]) == bits(np.zeros(want))
