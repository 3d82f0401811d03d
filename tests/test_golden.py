"""Golden reports: CLI output pinned byte for byte, with its exit code.

Each case runs ``neutralsurf.cli.main`` in-process and compares the bytes it
produces (stdout, or the written file for ``defect-map``) with
``tests/data/golden/<case>.out``; ``exit_codes.json`` there holds the exit
codes.  A change that alters a report on purpose re-records the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which reports moved and why.  The last digits
of the CSV depend on the platform's math library, so a platform that rounds
transcendental functions differently needs its own recording.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from neutralsurf.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

# case name -> CLI arguments; "{out}" marks the path a defect map is written to
CASES = {
    "verify_phi_h42": ["verify", "phi_h42"],
    "verify_phi_h42_json": ["verify", "phi_h42", "--format", "json"],
    "verify_random_polynomial_seed7": ["verify", "random_polynomial", "--seed", "7"],
    # the known Codazzi FAIL (truncation error of the O(step^2) estimate): exit 1
    "verify_holomorphic_graph_z2": ["verify", "holomorphic_graph", "--param", "f=z^2/2"],
    "laplacian_phi_h42_hyperbolic": ["laplacian-check", "phi_h42", "hyperbolic", "--grid", "33x33"],
    "defect_map_random_polynomial_seed7": [
        "defect-map", "random_polynomial", "--seed", "7", "--grid", "17x17", "--out", "{out}",
    ],
}


def run_case(name: str, tmp_dir: Path) -> tuple[int, bytes]:
    """Exit code and report bytes of one case."""
    out = tmp_dir / f"{name}.csv"
    argv = [str(out) if arg == "{out}" else arg for arg in CASES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if "{out}" in CASES[name]:
        return code, out.read_bytes()
    return code, stdout.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    code, report = run_case(name, tmp_path)
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert report == (GOLDEN / f"{name}.out").read_bytes()


def test_one_process_prints_what_fresh_processes_print(tmp_path):
    """main builds its parser once per process; a usage error, a listing
    and two verify reports in a row read as each does alone."""
    codes = json.loads(EXIT_CODES.read_text())
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for argv in (["verify", "--grid", "1x1"], ["list"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "neutralsurf.cli", *argv], capture_output=True, env=env, timeout=120
        )
        assert (code, out.getvalue().encode(), err.getvalue().encode()) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        )
    for name in ("verify_phi_h42", "verify_holomorphic_graph_z2"):
        code, report = run_case(name, tmp_path)
        assert code == codes[name]
        assert report == (GOLDEN / f"{name}.out").read_bytes()


def record() -> None:
    """Re-record every golden file from the current source tree."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            codes[name], report = run_case(name, Path(tmp))
            (GOLDEN / f"{name}.out").write_bytes(report)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
