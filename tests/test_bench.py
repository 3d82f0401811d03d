"""The benchmark's self-test: its tracer still finds every layer it patches,
and every workload's outcomes still match the recorded reference."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["grid_fields", "verify_catalog", "point_probe"])
def test_tiny_traced_run_is_correct(workload):
    argv = ["bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
            "--tiny", "--trace", "1"]
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "grid_fields":
        # a 9x9 grid fits one block: one point_report call per sample
        assert metrics["curvature.point_report.calls"] == metrics["fields.sample_surface.calls"]
        # the invariants come from h: the grid builds no shape operators
        assert metrics["curvature.shape_operators.calls"] == 0
        # neither grid command reads the ellipse of curvature, so none is formed
        assert metrics["curvature.ellipse_of_curvature.calls"] == 0
    if workload == "verify_catalog":
        # one pipeline pass per report: the 9x9 grid and the nested FD stencils
        # share one frame build and one evaluation, and the membership check
        # reads the grid's positions; catalog_get's space-like validation
        # is a bound on the coefficients and evaluates nothing
        reports = metrics["cli.build_verification_report.calls"]
        assert metrics["curvature.build_frames.calls"] == reports
        assert metrics["catalog.evaluate.calls"] == reports
        assert metrics["catalog.check_membership.calls"] == 0
        # the tracer counts constructions by patching Jet2.__init__: the
        # --file surface's compiled jets build Jet2s, so a count of 0 here
        # means construction bypasses the patch
        assert metrics["jets.Jet2.created"] > 0
    if workload == "point_probe":
        # the tracer counts constructions by patching PVector.__post_init__;
        # a count of 0 means construction bypasses it
        assert metrics["pseudo_linalg.PVector.created"] > 0
        # catalog surfaces write their jet tables directly: a probe builds no Jet2
        assert metrics["jets.Jet2.created"] == 0
        # operation budget: the stages work on stacked coordinate arrays and
        # build PVectors only for what they hand on (deterministic counts)
        probes = metrics["curvature.point_report.calls"]
        assert metrics["pseudo_linalg.PVector.created"] <= 100 * probes
        assert metrics["pseudo_linalg.inner.calls"] <= 40 * probes
        # one frame build per probe: the report reads row 0 of the nested
        # stencil it builds at its point, and structure_equation_check and
        # codazzi_residual read that kept build
        assert metrics["curvature.build_frames.calls"] == probes
        # one h per probe: the report and codazzi_residual read the h kept
        # beside that build
        assert metrics["curvature.second_fundamental_form.calls"] == probes
        # no probe reads the ellipse of curvature, so none is formed
        assert metrics["curvature.ellipse_of_curvature.calls"] == 0
