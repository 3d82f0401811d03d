import gc
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from neutralsurf import catalog, cli, curvature, fields
from neutralsurf.catalog import Immersion, _membership_residual, catalog_get, check_membership, from_definition
from neutralsurf.cli import DEFAULT_TOLERANCES, _fd_sample_points, build_verification_report, main
from neutralsurf.curvature import (
    _FD_STEP,
    _nested_stencil,
    _stencil_checks,
    codazzi_residual,
    point_report,
    structure_equation_check,
)
from neutralsurf.errors import DegeneracyError
from neutralsurf.expr import parse_surface
from neutralsurf.fields import SurfaceSample, _sample, sample_surface
from oracles import grid_from_csv, grid_from_json

PHI_FILE = """\
ambient H(3,2; -1)
domain -1:1, -1:1
x1 = sinh(2*s/sqrt(3)) - t^2/3 - (7/8 + t^4/18)*exp(2*s/sqrt(3))
x2 = t + (t^3/3 - t/4)*exp(2*s/sqrt(3))
x3 = 1/2 + t^2/2*exp(2*s/sqrt(3))
x4 = t + (t^3/3 + t/4)*exp(2*s/sqrt(3))
x5 = sinh(2*s/sqrt(3)) - t^2/3 - (1/8 + t^4/18)*exp(2*s/sqrt(3))
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_text_listing(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        assert "built-in surfaces (6):" in out
        assert "phi_h42" in out
        assert "KD = 2K = -2/3" in out

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "list", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 6
        names = {entry["name"] for entry in payload}
        assert "phi_h42" in names and "random_polynomial" in names
        for entry in payload:
            assert {"name", "parameters", "default_domain", "note"} <= set(entry)

    def test_listing_evaluates_no_surface(self, capsys, monkeypatch):
        # the listing builds each surface for its default domain, a constant;
        # no build samples its surface
        calls = []
        monkeypatch.setattr(Immersion, "evaluate", lambda imm, s, t: calls.append(imm.name))
        for argv in (["list"], ["list", "--format", "json"]):
            assert run(capsys, *argv)[0] == 0
        assert calls == []


class TestVerify:
    def test_phi_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "phi_h42", "--grid", "17x17")
        assert code == 0
        assert "result: PASS" in out
        assert "KD=2K: True" in out

    def test_phi_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "phi_h42", "--grid", "9x9", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["equality"] is True
        assert report["minimal"] is True
        assert abs(report["summary"]["defect"]["max"]) <= 1e-8
        assert report["membership_residual"] <= 1e-10
        for check in report["checks"]:
            assert {"name", "value", "tolerance", "passed"} <= set(check)

    def test_flat_l(self, capsys):
        code, out, _ = run(capsys, "verify", "flat_L", "--grid", "9x9", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["minimal"] is True
        assert abs(report["summary"]["K"]["max"]) <= 1e-8
        assert abs(report["summary"]["KD"]["max"]) <= 1e-8
        # strict-inequality surface: the gap to equality is exactly 1
        assert report["summary"]["defect"]["min"] == pytest.approx(1.0, abs=1e-8)
        assert report["equality"] is False

    def test_random_polynomial_seed7(self, capsys):
        code, out, _ = run(
            capsys, "verify", "random_polynomial", "--seed", "7", "--grid", "9x9",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["defect"]["min"] >= -1e-8
        assert report["summary"]["defect"]["min"] > 1e-4
        assert report["equality"] is False

    def test_user_file(self, capsys, tmp_path):
        path = tmp_path / "phi.surface"
        path.write_text(PHI_FILE, encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--file", str(path), "--grid", "9x9")
        assert code == 0
        assert "result: PASS" in out

    def test_syntax_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.surface"
        path.write_text("ambient E(2,2)\nx1 = s +\nx2 = t\nx3 = s\nx4 = t")
        code, _, err = run(capsys, "verify", "--file", str(path))
        assert code == 2
        assert "2:" in err

    def test_degenerate_surface_exit_3(self, capsys, tmp_path):
        path = tmp_path / "degenerate.surface"
        path.write_text("ambient E(2,2)\nx1 = s\nx2 = t\nx3 = s\nx4 = t")
        code, _, err = run(capsys, "verify", "--file", str(path), "--grid", "5x5")
        assert code == 3
        assert "space-like" in err

    def test_off_quadric_file_names_the_node_exit_3(self, capsys, tmp_path):
        # a space-like position in H(3,2): Gram-Schmidt rejects it at a named node
        path = tmp_path / "off_quadric.surface"
        path.write_text("ambient H(3,2; -1)\nx1 = s/100\nx2 = t/100\nx3 = 0.1\nx4 = 2 + s\nx5 = t")
        code, _, err = run(capsys, "verify", "--file", str(path), "--grid", "5x5")
        assert code == 3
        assert "remainder is space-like, required time-like at (s,t)=(" in err

    @pytest.mark.parametrize(
        "component,error",
        [
            ("s + 1/(2-2)", "4:11: division by a jet with zero value"),
            ("s + log(0-1)", "4:10: log of non-positive value -1.0"),
        ],
    )
    def test_constant_singularity_in_file_exit_3(self, capsys, tmp_path, component, error):
        # the constant subtree folds, and raises, when the file compiles
        path = tmp_path / "singular.surface"
        path.write_text(f"ambient E(2,2)\nx1 = s\nx2 = t\nx3 = {component}\nx4 = t\n")
        code, out, err = run(capsys, "verify", "--file", str(path), "--grid", "5x5")
        assert (code, out, err) == (3, "", f"error: {error}\n")

    def test_overflowing_jets_name_the_node_exit_3(self, capsys):
        # exp overflows at s >= 625: not numpy warnings and a metric of nan
        # (skipped structural zeros turn some nan into inf), but the first
        # node whose jets are not finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "phi_h42", "--grid", "9x9", "--domain=600:700,-1:1")
        assert (code, out) == (3, "")
        assert err == "error: surface 'phi_h42' has jets that are not finite at (s,t)=(625.0, -1.0)\n"

    def test_overflowing_metric_names_the_node_exit_3(self, capsys):
        # the jets are finite at s in [300, 400], but the metric's products
        # overflow: no numpy warnings, the not-space-like error alone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "phi_h42", "--grid", "9x9", "--domain=300:400,-1:1")
        assert (code, out) == (3, "")
        assert err == (
            "error: surface 'phi_h42' is not space-like at (s,t)=(300.0, -1.0): "
            "E=-1.33832e+285, EG-F^2=-inf\n"
        )

    def test_unknown_surface_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "surface_that_is_not_there")
        assert code == 2
        assert "unknown surface" in err

    def test_unknown_tolerance_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "phi_h42", "--tol", "bogus=1")
        assert code == 2

    @pytest.mark.parametrize("step", ["0", "-1e-3", "nan", "inf"])
    def test_fd_step_must_be_finite_and_positive(self, capsys, step):
        code, _, err = run(capsys, "verify", "phi_h42", "--grid", "5x5", "--tol", f"fd_step={step}")
        assert code == 2
        assert "fd_step must be finite and > 0" in err

    @pytest.mark.parametrize("value", ["abc", "1e-3x", ""])
    def test_non_numeric_tolerance_exit_2(self, capsys, value):
        code, _, err = run(capsys, "verify", "phi_h42", "--grid", "5x5", "--tol", f"structure={value}")
        assert code == 2
        assert f"tolerance structure must be a number, got {value!r}" in err

    @pytest.mark.parametrize("value,expected", [("inf", 0), ("-1", 1)])
    def test_any_float_tolerance_is_accepted(self, capsys, value, expected):
        code, out, _ = run(capsys, "verify", "phi_h42", "--grid", "5x5", "--tol", f"structure={value}")
        assert code == expected
        assert f"(tolerance {value})" in out

    @pytest.mark.parametrize("value", ["nan", "NaN", "-nan"])
    def test_a_nan_tolerance_exit_2(self, capsys, value):
        # no value passes a NaN tolerance: an input error, not a FAIL (exit 1)
        code, out, err = run(capsys, "verify", "phi_h42", "--grid", "9x9", "--tol", f"codazzi={value}")
        assert (code, out, err) == (2, "", "error: tolerance codazzi must not be nan\n")

    def test_a_negative_defect_lower_asserts_a_gap(self, capsys):
        # flat_L's defect is 1: a strict gap of 0.5 holds, one of 2 fails
        for gap, expected in (("-0.5", 0), ("-2", 1)):
            code, _, _ = run(capsys, "verify", "flat_L", "--grid", "5x5", "--tol", f"defect_lower={gap}")
            assert code == expected, gap

    def test_tolerance_override_can_fail(self, capsys):
        code, out, _ = run(
            capsys, "verify", "random_polynomial", "--seed", "7", "--grid", "5x5",
            "--tol", "defect_lower=1e-20", "--tol", "codazzi=1e-30",
        )
        assert code == 1
        assert "FAIL" in out

    def test_fault_in_h12_fails_codazzi(self, capsys, scale_h12):
        scale_h12(1.1)
        code, out, _ = run(capsys, "verify", "phi_h42")
        assert code == 1
        assert "[FAIL] codazzi residual" in out

    def test_branch_switch_at_an_fd_point_exit_3(self, capsys, switch_branch):
        switch_branch((0.9, 0.0), 1e-3)  # one of the 9 FD points of phi_h42
        code, out, err = run(capsys, "verify", "phi_h42")
        assert code == 3
        assert out == ""
        assert err == "error: frame branch switch within the stencil at (s,t)=(0.9, 0.0)\n"

    def test_failing_fd_point_is_named_as_point_report_names_it(self, capsys, tmp_path):
        # E = s^4 vanishes on s = 0 only: the 4x4 grid misses it, the FD points (0, t) do not
        path = tmp_path / "cusp.surface"
        path.write_text("ambient E(2,2)\ndomain -1:1, -1:1\nx1 = 0\nx2 = 0\nx3 = s^3/3\nx4 = t\n")
        code, out, err = run(capsys, "verify", "--file", str(path), "--grid", "4x4")
        imm = from_definition(parse_surface(path.read_text(), name="cusp"))
        with pytest.raises(DegeneracyError) as at_points:
            point_report(imm, _fd_sample_points(imm.domain, 1e-3))
        assert code == 3
        assert out == ""
        assert err == f"error: {at_points.value}\n"

    @pytest.mark.parametrize("grid", ["33x33", "70x70"])
    def test_degenerate_grid_names_the_first_s_major_node(self, capsys, tmp_path, grid):
        # E = 1 - (s + 1/2)^2: not space-like from s = 1/2 on, which is in the
        # second block of a 70x70 grid, before the FD points at s = 0.9
        path = tmp_path / "band.surface"
        path.write_text("ambient E(2,2)\ndomain -1:1, -1:1\nx1 = s^2/2 + s/2\nx2 = 0\nx3 = s\nx4 = t\n")
        code, out, err = run(capsys, "verify", "--file", str(path), "--grid", grid)
        imm = from_definition(parse_surface(path.read_text(), name="band"))
        nx, ny = map(int, grid.split("x"))
        with pytest.raises(DegeneracyError) as on_grid:
            sample_surface(imm, (nx, ny))
        assert code == 3
        assert out == ""
        assert err == f"error: {on_grid.value}\n"
        assert "not space-like at (s,t)=(0.5" in err

    def test_holomorphic_graph_is_checked_on_the_domain_sampled(self, capsys):
        # f = z^2/4 is space-like where |z| > 2: on all of --domain 3:4,3:4,
        # but not at the first node of the default domain [1.2,2]x[0.5,1.5]
        argv = ["verify", "holomorphic_graph", "--param", "f=z^2/4", "--grid", "9x9"]
        code, out, err = run(capsys, *argv, "--domain", "3:4,3:4")
        assert (code, err) == (0, "")
        assert "result: PASS" in out
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: surface 'holomorphic_graph' is not space-like at (s,t)=(1.2, 0.5): ")

    @pytest.mark.parametrize("domain", ["1.0:1.2,0.2:0.4", "1.0:1.05,0.1:0.15", "1.0:1.01,0.05:0.06"])
    def test_equality_near_the_light_cone(self, capsys, domain):
        # f = z^2/2 is minimal with K = -KD, so its defect is exactly 0; it is
        # space-like where |z| > 1, and |K| grows to 1.3e8 towards |z| = 1.
        # The defect formed as K - |KD| - <H,H> - c read -4.3e-6 here.  The
        # FD checks still fail (truncation in the fast-turning frames).
        argv = ["verify", "holomorphic_graph", "--param", "f=z^2/2", "--domain", domain, "--format", "json"]
        _, out, _ = run(capsys, *argv)
        rep = json.loads(out)
        assert 0.0 <= rep["summary"]["defect"]["min"] and rep["summary"]["defect"]["max"] <= 1e-8
        passed = {check["name"]: check["passed"] for check in rep["checks"]}
        assert passed["wintgen-inequality (min defect >= -tol)"]
        assert passed["equality verdict matches expected True"]

    @pytest.mark.parametrize("surface", ["phi_h42", "umbilical_flat"])
    def test_canonical_check_reads_every_fd_point(self, capsys, monkeypatch, surface):
        # a canonical frame off equality at FD point 1 alone, which is neither
        # a corner nor the centre of the 3x3 FD sample, fails the check
        original = curvature.canonical_equality_frame

        def off_at_point_1(a3, a4):
            fields = {f: getattr(original(a3, a4), f) for f in curvature.CanonicalFrame._fields}
            fields["residual"] = fields["residual"] + (np.arange(9) == 1)
            return curvature.CanonicalFrame(**fields)

        monkeypatch.setattr(curvature, "canonical_equality_frame", off_at_point_1)
        code, out, _ = run(capsys, "verify", surface, "--grid", "9x9", "--format", "json")
        (check,) = [c for c in json.loads(out)["checks"] if c["name"] == "canonical equality-frame residual"]
        assert code == 1
        assert not check["passed"]
        assert check["value"] == pytest.approx(1.0)

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "random_polynomial", "--seed", "3", "--grid", "7x7", "--format", "json")
        _, out2, _ = run(capsys, "verify", "random_polynomial", "--seed", "3", "--grid", "7x7", "--format", "json")
        assert out1 == out2


class TestDefectMap:
    def test_phi_csv(self, capsys, tmp_path):
        out_path = tmp_path / "phi_defect.csv"
        code, out, _ = run(
            capsys, "defect-map", "phi_h42", "--grid", "9x9", "--out", str(out_path)
        )
        assert code == 0
        field = grid_from_csv(out_path.read_text())
        assert np.max(np.abs(field.values)) <= 1e-8

    def test_random_seed7_strictly_positive(self, capsys, tmp_path):
        out_path = tmp_path / "rand.json"
        code, _, _ = run(
            capsys, "defect-map", "random_polynomial", "--seed", "7",
            "--grid", "9x9", "--out", str(out_path), "--format", "json",
        )
        assert code == 0
        field = grid_from_json(out_path.read_text())
        assert np.min(field.values) > 0.0

    def test_missing_directory_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "defect-map", "phi_h42", "--grid", "5x5",
            "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv"),
        )
        assert code == 2
        assert "cannot write" in err

    @pytest.mark.parametrize("grid", [(3, 3), (129, 65), (130, 97), (3, 4097)], ids=str)
    def test_file_bytes_equal_grid_to_csv(self, capsys, tmp_path, grid):
        # the streamed file is grid_to_csv's text, over one block, three
        # blocks, and one s-row per block (3x4097: a row alone is a block)
        out_path = tmp_path / "rand.csv"
        code, _, _ = run(
            capsys, "defect-map", "random_polynomial", "--seed", "7",
            "--grid", f"{grid[0]}x{grid[1]}", "--out", str(out_path),
        )
        assert code == 0
        want = fields.grid_to_csv(fields.sample_field(catalog_get("random_polynomial", {"seed": 7}), "defect", grid))
        assert out_path.read_bytes() == want.encode()

    @pytest.mark.parametrize("grid", [(3, 3), (65, 33)], ids=str)
    def test_json_file_bytes_equal_grid_to_json(self, capsys, tmp_path, monkeypatch, grid):
        # the JSON map is streamed too: the file is grid_to_json's text, and
        # writelines receives it in many pieces, not as one string
        chunks, engine = [], cli.grid_json_chunks

        def recording(field):
            for chunk in engine(field):
                chunks.append(len(chunk))
                yield chunk

        monkeypatch.setattr(cli, "grid_json_chunks", recording)
        out_path = tmp_path / "rand.json"
        code, _, _ = run(
            capsys, "defect-map", "random_polynomial", "--seed", "7",
            "--grid", f"{grid[0]}x{grid[1]}", "--out", str(out_path), "--format", "json",
        )
        assert code == 0
        want = fields.grid_to_json(fields.sample_field(catalog_get("random_polynomial", {"seed": 7}), "defect", grid))
        assert out_path.read_bytes() == want.encode()
        assert len(chunks) > 1 and sum(chunks) == len(want)
        assert want == json.dumps(json.loads(want), indent=2, sort_keys=True)

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_failed_write_exit_2_and_closes_the_file(self, capsys):
        # /dev/full opens but fails every write: the error path, with the
        # file closed (no ResourceWarning)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "defect-map", "phi_h42", "--grid", "5x5", "--out", "/dev/full")
            gc.collect()
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write /dev/full: [Errno 28]")
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_file_bytes_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "defect-map", "random_polynomial", "--seed", "5", "--grid", "7x7", "--out", str(p1))
        run(capsys, "defect-map", "random_polynomial", "--seed", "5", "--grid", "7x7", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestLaplacianCheck:
    def test_phi_identity_passes(self, capsys):
        code, out, _ = run(capsys, "laplacian-check", "phi_h42", "eq5_11", "--grid", "33x33")
        assert code == 0
        assert "result: PASS" in out
        assert "log-harmonic" in out

    def test_holomorphic_identity_passes(self, capsys):
        code, out, _ = run(
            capsys, "laplacian-check", "holomorphic_graph", "eq6_6",
            "--param", "f=z^2/2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["verdict"] == "subharmonic"
        # lap(ln K) tracks 6K = 3 * (2K - KD) here, so both sides are large
        assert payload["max_abs_lhs"] > 1.0
        assert payload["relative_residual"] <= 5e-3

    def test_totally_geodesic_exit_3(self, capsys):
        code, _, err = run(capsys, "laplacian-check", "totally_geodesic_h42", "eq5_11", "--grid", "9x9")
        assert code == 3
        assert "ln(K+1)" in err

    def test_descriptive_identity_names(self, capsys):
        code, _, _ = run(capsys, "laplacian-check", "phi_h42", "hyperbolic", "--grid", "17x17")
        assert code == 0

    @pytest.mark.parametrize("name", ["identity_abs", "identity_rel"])
    def test_a_nan_tolerance_exit_2(self, capsys, name):
        code, out, err = run(capsys, "laplacian-check", "phi_h42", "eq5_11", "--grid", "9x9", "--tol", f"{name}=nan")
        assert (code, out, err) == (2, "", f"error: tolerance {name} must not be nan\n")

    def test_unknown_identity_exit_2(self, capsys):
        code, _, err = run(capsys, "laplacian-check", "phi_h42", "eq1_23", "--grid", "9x9")
        assert code == 2
        assert "unknown identity" in err


class TestUsageErrors:
    def test_bad_grid(self, capsys):
        code, _, _ = run(capsys, "verify", "phi_h42", "--grid", "abc")
        assert code == 2

    def test_a_grid_too_large_for_memory_exits_2(self):
        # address space capped at 4 GB, so that nothing is allocated: the
        # grid's first array cannot be, and one BLAS thread fits under the cap
        script = "import sys; from neutralsurf.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = [sys.executable, "-c", script, "verify", "phi_h42", "--grid", "2000000x2000000"]

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: Unable to allocate ")
        assert proc.stderr.count("\n") == 1

    def test_a_deeply_nested_f_exits_2(self, capsys):
        f = "(" * 3000 + "z" + ")" * 3000
        code, out, err = run(capsys, "verify", "holomorphic_graph", "--param", f"f={f}", "--grid", "5x5")
        assert (code, out) == (2, "")
        assert err.startswith("error: maximum recursion depth exceeded") and err.count("\n") == 1

    def test_a_deeply_nested_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.txt"
        path.write_text(f"ambient E(2,2)\nx1 = {'-' * 3000}s\nx2 = t\nx3 = s\nx4 = t\n")
        code, out, err = run(capsys, "verify", "--file", str(path), "--grid", "5x5")
        assert (code, out) == (2, "")
        assert err.startswith("error: maximum recursion depth exceeded") and err.count("\n") == 1

    def test_bad_domain(self, capsys):
        code, _, _ = run(capsys, "verify", "phi_h42", "--domain", "1,2,3")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "phi_h42", "--grid", "9x9"],
            ["verify", "phi_h42", "--grid", "9x9", "--format", "json"],
            ["laplacian-check", "phi_h42", "hyperbolic", "--grid", "9x9"],
            ["defect-map", "random_polynomial", "--seed", "7", "--grid", "5x5"],
        ],
        ids=["verify", "verify-json", "laplacian-check", "defect-map"],
    )
    def test_a_negative_lower_bound_takes_the_space_form(self, capsys, tmp_path, argv):
        # argparse alone reads '--domain -0.5:0.5,...' as an option with no value
        domain = "-0.5:0.5,-0.25:0.5"
        out_path = tmp_path / "map.csv"
        if argv[0] == "defect-map":
            argv = argv + ["--out", str(out_path)]

        def outcome(*extra):
            code, out, err = run(capsys, *argv, *extra)
            return code, out, err, out_path.read_bytes() if argv[0] == "defect-map" else None

        joined = outcome(f"--domain={domain}")
        assert joined[0] in (0, 1)
        # the domain is in force: the default domain gives other values
        assert outcome() != joined
        assert outcome("--domain", domain) == joined
        assert outcome("--dom", domain) == joined

    @pytest.mark.parametrize("value", ["-1,2,3", "-0.5:0.5", "-x"])
    def test_a_domain_of_another_shape_keeps_its_error(self, capsys, value):
        code, out, err = run(capsys, "verify", "phi_h42", "--domain", value)
        assert code == 2 and out == ""
        assert "argument --domain: expected one argument" in err

    def test_a_domain_after_the_end_of_options_is_not_joined(self, capsys):
        code, _, err = run(capsys, "verify", "phi_h42", "--", "-0.5:0.5,-0.5:0.5")
        assert code == 2
        assert "unrecognized arguments: -0.5:0.5,-0.5:0.5" in err

    def test_domain_as_the_last_argument_keeps_its_error(self, capsys):
        code, _, err = run(capsys, "verify", "phi_h42", "--domain")
        assert code == 2
        assert "argument --domain: expected one argument" in err

    @pytest.mark.parametrize("domain", ["-inf:1,-1:1", "-1:inf,-1:1", "-1:1,nan:1", "-1:1,-1:1e999", "-1e308:1e308,-1:1"])
    def test_a_non_finite_domain_bound_exit_2(self, capsys, domain):
        # an input error, not numpy warnings and a frame error at s = nan (exit 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "phi_h42", "--grid", "9x9", f"--domain={domain}")
        assert code == 2 and out == ""
        assert "argument --domain: domain bounds and sides must be finite, got [" in err

    def test_missing_surface(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2
        assert "required" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "random_polynomial"],
            ["defect-map", "random_polynomial", "--out", "unused.csv"],
            ["laplacian-check", "random_polynomial", "flat"],
        ],
    )
    def test_negative_seed_exit_2(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: random_polynomial seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "unused.csv").exists()

    @pytest.mark.parametrize("value", ["3.7", "inf"])
    def test_fractional_seed_exit_2(self, capsys, value):
        # not truncated to seed 3: a non-integer seed is an input error
        code, out, err = run(capsys, "verify", "random_polynomial", "--param", f"seed={value}")
        assert code == 2
        assert out == ""
        assert err == f"error: random_polynomial seed must be a non-negative integer, got {value}\n"

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0"])
    def test_radius_not_finite_positive_exit_2(self, capsys, value):
        # an infinite radius is an input error, not a surface with E = nan (exit 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "umbilical_flat", "--param", f"radius={value}")
        assert code == 2
        assert out == ""
        assert err == "error: umbilical_flat radius must be positive and finite\n"

    @pytest.mark.parametrize("value", ["1e-170", "1e200"])
    def test_radius_square_out_of_float_range_exit_2(self, capsys, value):
        # radius^2 underflows to 0 or overflows: not a ZeroDivisionError
        # traceback (exit 1) or a surface with E = nan (exit 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "umbilical_flat", "--param", f"radius={value}")
        assert code == 2
        assert out == ""
        assert err == (
            f"error: umbilical_flat radius^2 must be finite and nonzero, got radius {float(value)!r}\n"
        )

    def test_domain_as_a_param_exit_2(self, capsys):
        # not an AttributeError traceback (exit 1): the sampled domain is --domain
        code, out, err = run(capsys, "verify", "holomorphic_graph", "--param", "f=z^2/2", "--param", "domain=1")
        assert code == 2
        assert out == ""
        assert err == "error: holomorphic_graph does not accept parameters ['domain']\n"

    # holomorphic_graph's f -> its error message
    F_ERRORS = {
        "z/0": "1:2: division by zero",
        "1/0": "1:2: division by zero",
        "1/z": "1:2: the denominator must be a plain number here",
        "z/(z-z)": "1:2: the denominator must be a plain number here",
        "z^-1": "1:2: exponent must not be negative here",
        "0^-1": "1:2: power out of range here",
        "10^400": "1:3: power out of range here",
        "z^1001": "1:2: power out of range here",
        "(z^0)^1000000000": "1:6: power out of range here",
        "1e400*z": "holomorphic_graph f must have finite coefficients, got '1e400*z'",
        "z/1e-320": "holomorphic_graph f must have finite coefficients, got 'z/1e-320'",
        "inf": "holomorphic_graph f must have finite coefficients, got inf",
    }

    @pytest.mark.parametrize("f", F_ERRORS)
    def test_f_outside_polynomial_arithmetic_exit_2(self, capsys, f):
        # not a ZeroDivisionError, TypeError or ValueError traceback (exit 1),
        # nor an inf coefficient met as jets that are not finite (exit 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "holomorphic_graph", "--param", f"f={f}", "--grid", "5x5")
        assert code == 2 and out == ""
        assert err == f"error: {self.F_ERRORS[f]}\n"

    def test_a_power_above_100_is_its_repeated_product(self, capsys):
        # numpy's Polynomial ** stops at exponent 100 (maxpower)
        assert np.array_equal(catalog._poly_coeffs_from_param("z^101"), catalog._poly_coeffs_from_param("z^100*z"))
        argv = ["verify", "holomorphic_graph", "--grid", "5x5", "--param"]
        power, product = run(capsys, *argv, "f=z^101"), run(capsys, *argv, "f=z^100*z")
        assert power[0] == product[0] == 0
        assert power[1].replace('"z^101"', "f") == product[1].replace('"z^100*z"', "f")

    @pytest.mark.parametrize("value", ["2", "1.5"])
    def test_numeric_f_is_the_constant_polynomial(self, capsys, value):
        # --param f=2 reaches the catalog as a number: not a TypeError
        # traceback (exit 1), but a constant graph, which is not space-like
        code, out, err = run(capsys, "verify", "holomorphic_graph", "--param", f"f={value}")
        assert code == 3
        assert out == ""
        assert err == "error: surface 'holomorphic_graph' is not space-like at (s,t)=(1.2, 0.5): E=-1, EG-F^2=1\n"

    @pytest.mark.parametrize(
        "argv,limit,step",
        [
            (["--tol", "fd_step=10"], 0.25, 10.0),
            (["--domain", "0:1e-9,0:1e-9"], 1.25e-10, 1e-3),
            (["--domain", "0:1,0:4", "--tol", "fd_step=0.126"], 0.125, 0.126),
        ],
    )
    def test_fd_step_over_an_eighth_of_the_domain_exit_2(self, capsys, argv, limit, step):
        # the FD points and their stencils would leave the domain
        code, out, err = run(capsys, "verify", "phi_h42", "--grid", "5x5", *argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: tolerance fd_step must be at most 1/8 of the domain's width and height ({limit!r}), got {step!r}\n"
        )

    @pytest.mark.parametrize(
        "argv,step,point",
        [
            # no node moves: every check read exact zeros (exit 1 on the structure checks)
            (["phi_h42"], 1e-300, (-0.9, -0.9)),
            # the stencils at s = 0 move, those at |s| = 0.9 do not (half an ulp is 5.6e-17)
            (["phi_h42"], 1e-17, (-0.9, -0.9)),
            # s moves and t ~ 1000 does not: every check passed (exit 0)
            (["holomorphic_graph", "--param", "f=z^2/2", "--domain", "1.2:2,1000:1001"], 1e-14, (1.24, 1000.05)),
        ],
        ids=["nothing_moves", "some_stencils_move", "only_s_moves"],
    )
    def test_fd_step_too_small_to_move_the_stencil_exit_2(self, capsys, argv, step, point):
        # where the +-s or the +-t nodes of a stencil evaluate to one
        # position, its differences are exact zeros and pass vacuously
        code, out, err = run(capsys, "verify", *argv, "--tol", f"fd_step={step}", "--grid", "5x5")
        assert code == 2
        assert out == ""
        assert err == f"error: tolerance fd_step {step!r} is too small to move the FD stencil at (s,t)={point!r}\n"

    def test_fd_step_of_an_eighth_of_the_domain_is_accepted(self, capsys, monkeypatch):
        # the 9 FD points meet at the center; their stencils reach a quarter of the way out
        nodes = []
        original = fields._sample

        def recording(imm, grid, domain, extra, positions):
            nodes.append(extra)
            return original(imm, grid, domain, extra, positions)

        monkeypatch.setattr("neutralsurf.cli._sample", recording)
        code, out, _ = run(capsys, "verify", "phi_h42", "--grid", "5x5", "--domain", "0:1,0:2", "--tol", "fd_step=0.125")
        assert code in (0, 1)
        assert "result:" in out
        (s, t), = nodes
        assert s.min() == 0.25 and s.max() == 0.75
        assert t.min() >= 0.0 and t.max() <= 2.0

    def test_integer_seed_as_option_or_param(self, capsys):
        argv = ["verify", "random_polynomial", "--grid", "5x5", "--format", "json"]
        code, by_option, _ = run(capsys, *argv, "--seed", "3")
        assert code == 0
        assert json.loads(by_option)["params"]["seed"] == 3
        assert run(capsys, *argv, "--param", "seed=3") == (0, by_option, "")


DEFINITION_FILE = Path(__file__).resolve().parent.parent / "bench" / "data" / "phi_h42.txt"
ONE_PASS_SURFACES = [
    ("phi_h42", {}),
    ("flat_L", {}),
    ("totally_geodesic_h42", {}),
    ("holomorphic_graph", {"f": "z^2/2"}),
    ("umbilical_flat", {}),
    *(("random_polynomial", {"seed": seed}) for seed in range(4)),
    ("definition_file", None),
]


class TestOnePass:
    """verify's single pipeline pass equals the separate public calls bit for bit."""

    @pytest.mark.parametrize("grid", [(33, 33), (70, 70)], ids=["33x33", "70x70"])
    @pytest.mark.parametrize(
        "name,params", ONE_PASS_SURFACES, ids=[f"{n}-{p}" for n, p in ONE_PASS_SURFACES]
    )
    def test_equals_the_separate_calls(self, name, params, grid):
        if params is None:
            imm = from_definition(parse_surface(DEFINITION_FILE.read_text(encoding="utf-8")))
        else:
            imm = catalog_get(name, params)
        step = DEFAULT_TOLERANCES["fd_step"]
        points = _fd_sample_points(imm.domain, step)
        sample, positions, nested = _sample(
            imm, grid, None, _nested_stencil(points, step), positions=True
        )
        want = sample_surface(imm, grid)
        for field in SurfaceSample._fields[4:]:
            assert np.array_equal(getattr(sample, field), getattr(want, field)), field

        rep, (kw, kdw), codazzi = _stencil_checks(nested, points, step)
        want_rep = point_report(imm, points)
        want_kw, want_kdw = structure_equation_check(imm, points, step)
        want_codazzi = codazzi_residual(imm, points, step)
        for key in ("K", "KD", "H2", "defect"):
            assert np.array_equal(getattr(rep, key), getattr(want_rep, key)), key
        assert np.array_equal(rep.canonical.residual, want_rep.canonical.residual)
        assert np.array_equal(kw, want_kw)
        assert np.array_equal(kdw, want_kdw)
        assert np.array_equal(codazzi, want_codazzi)

        if not imm.ambient.is_flat:
            # verify's membership nodes: every (nx // 8)-th s and (ny // 8)-th t of the grid
            ss, ts = imm.domain.grid(*grid)
            a, b = max(1, grid[0] // 8), max(1, grid[1] // 8)
            membership = _membership_residual(imm, positions[::a, ::b])
            assert membership == check_membership(imm, [(s, t) for s in ss[::a] for t in ts[::b]])
            report = build_verification_report(imm, grid, None, DEFAULT_TOLERANCES)
            assert report["membership_residual"] == membership

    def test_the_default_fd_step_is_the_engine_step(self):
        # verify's FD rows and a probe's kept build are the same rows only at one step
        assert DEFAULT_TOLERANCES["fd_step"] == _FD_STEP

    def test_70x70_has_two_blocks(self):
        # the case above where the stencil nodes join the second of two blocks
        assert math.ceil(70 * 70 / fields._BLOCK_NODES) == 2
