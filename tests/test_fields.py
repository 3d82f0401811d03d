import json
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from neutralsurf import curvature, fields
from neutralsurf.ambient import DomainRect
from neutralsurf.catalog import catalog_get, from_definition
from neutralsurf.curvature import build_frames, point_report
from neutralsurf.errors import (
    DegeneracyError,
    FieldDomainError,
    InputMismatchError,
    PreconditionError,
)
from neutralsurf.expr import parse_surface
from neutralsurf.fields import (
    SAMPLE_FIELDS,
    GridField,
    grid_to_csv,
    grid_to_json,
    harmonicity_verdict,
    intrinsic_laplacian,
    resolve_identity,
    sample_field,
    sample_surface,
    verify_identity,
)
from oracles import bits, convergence_ratios, grid_csv_rows_joined, grid_from_csv, grid_from_json

DOM = DomainRect(-1.0, 1.0, -1.0, 1.0)
BENCH_SURFACE_FILE = Path(__file__).resolve().parent.parent / "bench" / "data" / "phi_h42.txt"


def analytic_grid(n, f, E=None, F=None, G=None):
    ss, ts = DOM.grid(n, n)
    S, T = np.meshgrid(ss, ts, indexing="ij")
    ones = np.ones_like(S)
    return GridField(
        DOM,
        n,
        n,
        f(S, T),
        E(S, T) if E else ones.copy(),
        F(S, T) if F else np.zeros_like(S),
        G(S, T) if G else ones.copy(),
    )


class TestSampleField:
    def test_phi_curvature_constant(self):
        phi = catalog_get("phi_h42")
        gf = sample_field(phi, "K", grid=(33, 33))
        assert np.max(np.abs(gf.values + 1.0 / 3.0)) <= 1e-8

    def test_phi_log_shifted_curvature(self):
        phi = catalog_get("phi_h42")
        gf = sample_field(phi, "ln(K+1)", grid=(9, 9))
        assert np.max(np.abs(gf.values - math.log(2.0 / 3.0))) <= 1e-8

    def test_flat_l_log_curvature_domain_error(self):
        fl = catalog_get("flat_L")
        with pytest.raises(FieldDomainError) as err:
            sample_field(fl, "ln(K)", grid=(9, 9))
        assert "node" in str(err.value)

    def test_unknown_quantity(self):
        with pytest.raises(InputMismatchError):
            sample_field(catalog_get("phi_h42"), "bogus", grid=(5, 5))


# totally geodesic 2-sphere in the unit pseudo-sphere: metric ds^2 + cos(s)^2 dt^2
SPHERE_FILE = """\
ambient S(2,3; 1)
x1 = 0
x2 = 0
x3 = cos(s)*cos(t)
x4 = cos(s)*sin(t)
x5 = sin(s)
"""

GRID_SURFACES = [
    ("phi_h42", {}),
    ("flat_L", {}),
    ("totally_geodesic_h42", {}),
    ("holomorphic_graph", {"f": "z^2/2"}),
    ("umbilical_flat", {}),
    ("random_polynomial", {"seed": 3}),
    ("file", {}),
]


def surface(name, params):
    if name == "file":
        return from_definition(parse_surface(SPHERE_FILE, name="sphere"))
    return catalog_get(name, params)


class TestSampleSurfaceBatches:
    @pytest.mark.parametrize("name,params", GRID_SURFACES)
    def test_grid_matches_point_reports(self, name, params):
        imm = surface(name, params)
        sample = sample_surface(imm, (9, 9))
        ss, ts = imm.domain.grid(9, 9)
        for i, s in enumerate(ss):
            for j, t in enumerate(ts):
                rep = point_report(imm, (s, t))
                metric = rep.frames.metric
                want = {
                    "K": rep.K,
                    "KD": rep.KD,
                    "H2": rep.H2,
                    "defect": rep.defect,
                    "E": metric.E,
                    "F": metric.F,
                    "G": metric.G,
                    "H_norm": rep.H.euclid_norm(),
                    "h_max": max(v.euclid_norm() for v in rep.h.components()),
                }
                for field, value in want.items():
                    assert abs(getattr(sample, field)[i, j] - value) <= 1e-12, (field, i, j)
                assert sample.ellipse_circle[i, j] == rep.ellipse.is_circle
                assert sample.ellipse_point[i, j] == rep.ellipse.is_point

    @pytest.mark.parametrize("name,params", GRID_SURFACES)
    @pytest.mark.parametrize("grid", [(70, 70), (3, 5000)], ids=["2_blocks", "rows_over_budget"])
    def test_block_rows_equal_row_reports(self, name, params, grid):
        # 70x70 is sampled in two blocks of 35 rows; a 5000-node row is a block of its own
        imm = surface(name, params)
        sample = sample_surface(imm, grid)
        ss, ts = imm.domain.grid(*grid)
        for i in (0, grid[0] // 2, grid[0] - 1):
            rep = point_report(imm, (ss[i], ts))
            metric = rep.frames.metric
            want = {
                "K": rep.K,
                "KD": rep.KD,
                "H2": rep.H2,
                "defect": rep.defect,
                "E": metric.E,
                "F": metric.F,
                "G": metric.G,
                "H_norm": rep.H.euclid_norm(),
                "h_max": np.max([v.euclid_norm() for v in rep.h.components()], axis=0),
                "ellipse_circle": rep.ellipse.is_circle,
                "ellipse_point": rep.ellipse.is_point,
            }
            for field, value in want.items():
                assert np.array_equal(getattr(sample, field)[i], value), (field, i)

    def test_degenerate_node_reported_in_s_major_order(self):
        # |f'(z)| = |z| for f = z^2/2: not space-like on the closed unit disk,
        # which these grids cross.  On 9x9, (-0.45, -0.8) would come first in
        # t-major order; on 70x70 the first offending row (43) is in the
        # second of two 35-row blocks.
        imm = catalog_get("holomorphic_graph", {"f": "z^2/2"})
        for grid, domain in (
            ((9, 9), DomainRect(-1.65, -0.05, -0.8, 0.8)),
            ((70, 70), DomainRect(-2.5, -0.05, -0.8, 0.8)),
        ):
            ss, ts = domain.grid(*grid)
            first = next((float(s), float(t)) for s in ss for t in ts if s * s + t * t <= 1.0)
            with pytest.raises(DegeneracyError) as at_node:
                build_frames(imm, first)
            with pytest.raises(DegeneracyError) as on_grid:
                sample_surface(imm, grid, domain)
            assert str(on_grid.value) == str(at_node.value)
            assert f"not space-like at (s,t)={first}" in str(on_grid.value)


def sample_bits(sample) -> dict:
    return {key: None if getattr(sample, key) is None else bits(getattr(sample, key)) for key in SAMPLE_FIELDS}


class TestSampleSelection:
    """sample_surface forms only the fields selected, each as the full sample has it."""

    # the selections of sample_field (a quantity, or K for its logarithm, and
    # the metric) and of verify_identity, and each field alone
    SELECTIONS = [
        ("defect", "E", "F", "G"),
        ("K", "E", "F", "G"),
        ("KD", "E", "F", "G"),
        ("K", "|KD|", "H2", "defect", "H_norm", "E", "F", "G"),
    ] + [(name,) for name in SAMPLE_FIELDS] + [("|KD|",), ()]

    @pytest.mark.parametrize("name,params", GRID_SURFACES + [("definition_file", {})])
    def test_selected_fields_equal_the_full_sample(self, name, params, monkeypatch):
        if name == "definition_file":
            imm = from_definition(parse_surface(BENCH_SURFACE_FILE.read_text(encoding="utf-8")))
        else:
            imm = surface(name, params)
        # 9x9 in blocks of 3 rows
        monkeypatch.setattr(fields, "_BLOCK_NODES", 27)
        sample = sample_surface(imm, (9, 9))
        full, abs_kd = sample_bits(sample), bits(np.abs(sample.KD))
        for select in self.SELECTIONS:
            got = sample_bits(sample_surface(imm, (9, 9), select=select))
            want = {key: full[key] if key in select else None for key in SAMPLE_FIELDS}
            if "|KD|" in select:
                want["KD"] = abs_kd
            assert got == want, select

    def test_grid_commands_form_no_kd_sign_and_no_ellipse(self, monkeypatch):
        def unread(*args):
            raise AssertionError("formed a value no field reads")

        monkeypatch.setattr(curvature, "_signed_kd", unread)
        monkeypatch.setattr(curvature, "ellipse_of_curvature", unread)
        sample_field(catalog_get("random_polynomial", {"seed": 3}), "defect", (9, 9))
        verify_identity(catalog_get("phi_h42"), "hyperbolic", (9, 9))
        verify_identity(catalog_get("holomorphic_graph", {"f": "z^2/2"}), "flat", (9, 9))

    def test_sample_field_kd_stays_signed(self):
        # phi_h42 has KD = -2/3 in its equality orientation
        imm = catalog_get("phi_h42")
        kd = sample_field(imm, "KD", (9, 9)).values
        assert np.max(kd) < 0.0
        assert bits(kd) == bits(sample_surface(imm, (9, 9)).KD)


class TestIntrinsicLaplacian:
    def test_flat_paraboloid(self):
        gf = analytic_grid(65, lambda S, T: S ** 2 + T ** 2)
        rep = intrinsic_laplacian(gf)
        assert np.max(np.abs(rep.laplacian - 4.0)) <= 1e-6

    def test_exponential_metric_linear_field(self):
        # closed form: lap(s) = d_s(sqrt(g))/sqrt(g) = 1/sqrt(3) for
        # the metric ds^2 + exp(2 s / sqrt(3)) dt^2
        gf = analytic_grid(
            65,
            lambda S, T: S.copy(),
            G=lambda S, T: np.exp(2.0 * S / math.sqrt(3.0)),
        )
        rep = intrinsic_laplacian(gf)
        assert np.max(np.abs(rep.laplacian - 1.0 / math.sqrt(3.0))) <= 1e-4

    def test_constant_field(self):
        gf = analytic_grid(17, lambda S, T: np.full_like(S, 3.7))
        rep = intrinsic_laplacian(gf)
        assert rep.max_abs_laplacian <= 1e-10

    def test_grid_too_small(self):
        gf = analytic_grid(4, lambda S, T: S)
        with pytest.raises(InputMismatchError):
            intrinsic_laplacian(gf)


class TestKDEqualitySigned:
    @staticmethod
    def sample(K, KD, H2):
        imm = catalog_get("phi_h42")  # c = -1
        arrays = [np.array([x], dtype=float) for x in (K, KD, H2)]
        zero = np.zeros(1)
        return fields.SurfaceSample(imm, imm.domain, 1, 1, arrays[0], arrays[1], arrays[2], *[zero] * 8)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize(
        "k,abs_kd,want",
        [(-0.75, 0.5, -0.5), (-1.25, 0.5, 0.5), (-1.0, 0.5, 0.5), (-1.0 + 2.0**-40, 1e6, 1e6)],
        ids=["closer_minus", "closer_plus", "tie", "tie_at_roundoff"],
    )
    def test_picks_plus_abs_kd_on_a_tie(self, sign, k, abs_kd, want):
        # X = K - H2 - c with c = -1; at a tie |X + |KD|| == |X - |KD|| in
        # floats (X = 0, or X = 2^-40 against |KD| = 1e6) the pick is +|KD|,
        # whatever KD's own sign, as for a sample holding |KD|
        sample = self.sample(k, sign * abs_kd, 0.0)
        assert sample.kd_equality_signed()[0] == want


class TestVerifyIdentity:
    def test_phi_hyperbolic_identity(self):
        phi = catalog_get("phi_h42")
        rep = verify_identity(phi, "eq5_11", grid=(65, 65))
        # both sides vanish independently, not just their difference
        assert np.max(np.abs(rep.lhs)) <= 1e-3
        assert np.max(np.abs(rep.rhs)) <= 1e-3
        assert rep.max_abs_residual <= 1e-3

    def test_holomorphic_flat_identity(self):
        imm = catalog_get("holomorphic_graph", {"f": "z^2/2"})
        rep = verify_identity(imm, "eq6_6", grid=(65, 65))
        assert rep.relative_residual <= 5e-3
        # the identity reduces to lap(ln K) = 6K since KD = -K
        sample = sample_surface(imm, (65, 65))
        six_k = 6.0 * sample.K[2:-2, 2:-2]
        rel = np.max(np.abs(rep.lhs - six_k)) / np.max(np.abs(six_k))
        assert rel <= 5e-3

    def test_totally_geodesic_precondition_failure(self):
        geo = catalog_get("totally_geodesic_h42")
        with pytest.raises(PreconditionError) as err:
            verify_identity(geo, "eq5_11", grid=(9, 9))
        assert "ln(K+1)" in str(err.value)

    def test_ambient_mismatch(self):
        imm = catalog_get("holomorphic_graph", {"f": "z^2/2"})
        with pytest.raises(PreconditionError):
            verify_identity(imm, "eq5_11", grid=(9, 9))

    def test_non_minimal_rejected(self):
        um = catalog_get("umbilical_flat")
        with pytest.raises(PreconditionError) as err:
            verify_identity(um, "eq6_6", grid=(9, 9))
        assert "not minimal" in str(err.value)

    def test_strict_inequality_surface_rejected(self):
        fl = catalog_get("flat_L")
        with pytest.raises(PreconditionError) as err:
            verify_identity(fl, "eq5_11", grid=(9, 9))
        assert "equality" in str(err.value)

    def test_identity_aliases(self):
        assert resolve_identity("eq5_11") == "hyperbolic"
        assert resolve_identity("eq6_6") == "flat"
        assert resolve_identity("eq7_7") == "spherical"
        assert resolve_identity("flat") == "flat"
        with pytest.raises(InputMismatchError):
            resolve_identity("eq9_99")


class TestHarmonicityVerdict:
    def test_phi_log_harmonic(self):
        phi = catalog_get("phi_h42")
        rep = verify_identity(phi, "hyperbolic", grid=(33, 33))
        assert harmonicity_verdict(rep, 1e-3) == "log-harmonic"

    def test_holomorphic_subharmonic_not_log_harmonic(self):
        imm = catalog_get("holomorphic_graph", {"f": "z^2/2"})
        rep = verify_identity(imm, "flat", grid=(33, 33))
        verdict = harmonicity_verdict(rep, 1e-3)
        assert verdict == "subharmonic"
        assert rep.min_laplacian > 0.0

    def test_exponential_on_flat_plane_subharmonic(self):
        gf = analytic_grid(33, lambda S, T: np.exp(S))
        rep = intrinsic_laplacian(gf)
        assert harmonicity_verdict(rep, 1e-3) == "subharmonic"


class TestGridConvergence:
    def test_holomorphic_identity_refinement(self):
        imm = catalog_get("holomorphic_graph", {"f": "z^2/2"})
        ratios = convergence_ratios(imm, "flat", grids=(17, 33, 65))
        for r in ratios:
            assert 3.2 <= r <= 4.8

    def test_analytic_laplacian_refinement(self):
        # fixed-region ratios for lap(ln(s^2+t^2+2)) on the flat metric
        def f(S, T):
            return np.log(S ** 2 + T ** 2 + 2.0)

        def exact(S, T):
            r2 = S ** 2 + T ** 2
            return 4.0 / (r2 + 2.0) - (4.0 * r2) / (r2 + 2.0) ** 2

        errs = []
        for n in (17, 33, 65):
            gf = analytic_grid(n, f)
            rep = intrinsic_laplacian(gf)
            ss, ts = DOM.grid(n, n)
            S, T = np.meshgrid(ss[2:-2], ts[2:-2], indexing="ij")
            # compare on the coarsest interior region only
            pad = 2.0 * 2.0 / 16
            mask = (np.abs(S) <= 1 - pad + 1e-12) & (np.abs(T) <= 1 - pad + 1e-12)
            errs.append(np.max(np.abs((rep.laplacian - exact(S, T))[mask])))
        assert 3.2 <= errs[0] / errs[1] <= 4.8
        assert 3.2 <= errs[1] / errs[2] <= 4.8


class TestRestatedClassifications:
    def test_spherical_identity_has_no_catalog_witness(self):
        # no built-in equality-case minimal surface lives in the unit
        # pseudo-sphere: every candidate must fail a precondition, or else
        # exhibit KD <= 0 (incompatible with the log-harmonic branch)
        specs = [
            ("phi_h42", {}),
            ("flat_L", {}),
            ("totally_geodesic_h42", {}),
            ("holomorphic_graph", {"f": "z^2/2"}),
            ("umbilical_flat", {}),
            ("random_polynomial", {"seed": 3}),
        ]
        for name, params in specs:
            imm = catalog_get(name, params)
            try:
                verify_identity(imm, "spherical", grid=(9, 9))
            except PreconditionError:
                continue
            sample = sample_surface(imm, (9, 9))
            assert np.max(sample.kd_equality_signed()) <= 0.0

    def test_flat_equality_surfaces_have_nonconstant_k(self):
        # non-geodesic equality-case minimal surfaces in the flat ambient
        # cannot have constant curvature; variance is normalized by the mean
        # squared so near-flat graphs with tiny K are judged on their scale
        for f in ("z^2/2", "z^3/3", "2*z + z^2/4"):
            imm = catalog_get("holomorphic_graph", {"f": f})
            sample = sample_surface(imm, (17, 17))
            assert np.max(sample.defect) <= 1e-8
            rel_var = float(np.var(sample.K)) / float(np.mean(sample.K)) ** 2
            assert rel_var > 1e-6

    def test_linear_graph_exempt(self):
        imm = catalog_get("holomorphic_graph", {"f": "2*z"})
        sample = sample_surface(imm, (9, 9))
        assert sample.totally_geodesic
        assert float(np.var(sample.K)) <= 1e-20


def _report_arrays(rep) -> list:
    """Weak references to arrays the report owns: K, the jets table, h11, E, e1."""
    arrays = (rep.K, rep.frames.jets.table, rep.h.h11.coords, rep.frames.metric.E, rep.frames.e1.coords)
    return [weakref.ref(a) for a in arrays]


class TestMemory:
    """A grid pass keeps at most one block's pipeline memory alive."""

    def test_one_block_report_alive(self, monkeypatch):
        imm = catalog_get("phi_h42")
        assert math.ceil(129 * 65 / fields._BLOCK_NODES) == 3
        kept, alive = [], []

        def recording(*args, **kwargs):
            alive.append([r() is not None for refs in kept for r in refs])
            rep = point_report(*args, **kwargs)
            kept.append(_report_arrays(rep))
            return rep

        monkeypatch.setattr(fields, "point_report", recording)
        sample_surface(imm, (129, 65))
        # when each block's build starts, no earlier block's array is alive
        assert alive == [[], [False] * 5, [False] * 10]
        # nor any block's, once the sample is made
        assert [r() for refs in kept for r in refs] == [None] * 15

    def test_traced_peak_of_a_129x129_defect_field(self):
        # four blocks of random_polynomial seed 7: 4.49 MB measured (7.0 MB
        # when every block's report lived to the end); bound 1.25 times that
        imm = catalog_get("random_polynomial", {"seed": 7})
        sample_field(imm, "defect", (129, 129))
        tracemalloc.start()
        try:
            sample_field(imm, "defect", (129, 129))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 4.49 * 2**20


class TestSerialization:
    def test_csv_round_trip_bit_exact(self):
        phi = catalog_get("phi_h42")
        gf = sample_field(phi, "defect", grid=(7, 9))
        text = grid_to_csv(gf)
        back = grid_from_csv(text)
        assert np.array_equal(back.values, gf.values)
        assert np.array_equal(back.E, gf.E)
        assert np.array_equal(back.F, gf.F)
        assert np.array_equal(back.G, gf.G)
        assert back.domain == gf.domain
        assert grid_to_csv(back) == text

    def test_json_round_trip_bit_exact(self):
        phi = catalog_get("phi_h42")
        gf = sample_field(phi, "KD", grid=(6, 5))
        text = grid_to_json(gf)
        back = grid_from_json(text)
        assert np.array_equal(back.values, gf.values)
        assert back.quantity == gf.quantity
        assert grid_to_json(back) == text

    @staticmethod
    def random_grid(nx, ny, seed=1):
        rng = np.random.default_rng(seed)
        # exact zeros of both signs, and magnitudes whose repr takes an exponent
        arrays = [rng.standard_normal((nx, ny)) * 10.0 ** rng.integers(-20, 20, (nx, ny)) for _ in range(4)]
        arrays[0].flat[:2] = 0.0, -0.0
        return GridField(DomainRect(-0.5, 0.5, -1.0, 2.0), nx, ny, *arrays, quantity="defect")

    @pytest.mark.parametrize("shape", [(2, 3), (9, 9), (65, 33)])
    def test_json_text_is_the_list_payloads(self, shape):
        # the grids reach the encoder as arrays, listed as it meets them
        gf = self.random_grid(*shape)
        payload = {
            "quantity": gf.quantity,
            "domain": list(gf.domain.as_tuple()),
            "nx": gf.nx,
            "ny": gf.ny,
            **{key: getattr(gf, key).tolist() for key in ("values", "E", "F", "G")},
        }
        want = json.dumps(payload, indent=2, sort_keys=True)
        assert grid_to_json(gf) == want
        assert "".join(fields.grid_json_chunks(gf)) == want

    @staticmethod
    def orjson_range_edges():
        """Floats on and past the edges of +-0.0 and 1e-4 <= |x| < 1e16, the
        range where orjson's text is repr's, the distinctive ones first."""
        specials = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.5e-310, 2.0**53, 2.0**53 + 2.0]
        integral = [10.0**k for k in range(16)] + [1e15 - 1.0, 123456789012345.0]
        # the 200 neighbours on each side of both bounds, and the bounds
        steps = np.arange(-200, 201)
        near = [(np.float64(b).view(np.int64) + steps).view(np.float64) for b in (1e-4, 1e16)]
        edges = np.concatenate([specials, integral, *near])
        return np.concatenate([edges, -edges[1:]])

    @staticmethod
    def orjson_range_bit_patterns(n, seed=3):
        """n seeded random bit patterns inside 1e-4 <= |x| < 1e16, both signs."""
        rng = np.random.default_rng(seed)
        lo, hi = np.array([1e-4, 1e16]).view(np.int64)
        return rng.integers(lo, hi, n).view(np.float64) * rng.choice([-1.0, 1.0], n)

    @pytest.mark.parametrize("shape", [(2, 3), (9, 9), (129, 33)])
    def test_csv_text_is_the_row_joined_text(self, shape):
        # tiny, huge and integral floats; an integer and a bool column print as floats
        gf = self.random_grid(*shape)
        gf.values.flat[2:6] = 1e-300, 1e22, 3.0, -7.0
        # orjson's range, its edges and what lies past them, as far as each grid holds
        # them; the largest holds all the edges and 4000 bit patterns inside the range
        edges = self.orjson_range_edges()
        gf.values.flat[6 : 6 + edges.size] = edges
        gf.E.flat[:4000] = self.orjson_range_bit_patterns(4000)
        gf.F = (gf.F > 0.0).astype(int) - 2 * (gf.F < -1.0)
        gf.G = gf.G > 0.0
        want = grid_csv_rows_joined(gf)
        assert "-0.0," in want and "1e-300," in want and "1e+22," in want and ",-1.0," in want
        assert grid_to_csv(gf) == want
        assert "".join(fields.grid_csv_chunks(gf)) == want

    def test_traced_peak_of_streaming_a_257x257_json_map(self):
        # one grid's lists at a time: 2.0 MB measured, 8.1 MB when the payload
        # held all four grids as lists; bound 1.25 times the measurement
        gf = self.random_grid(257, 257)
        tracemalloc.start()
        try:
            for _ in fields.grid_json_chunks(gf):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2.0 * 2**20

    def test_csv_rejects_garbage(self):
        with pytest.raises(InputMismatchError):
            grid_from_csv("hello,world\n1,2\n")
