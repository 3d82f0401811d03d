"""Import cost guards, checked in fresh interpreters without timing.

A frozen dataclass costs about 1 ms to define, paid by every fresh
interpreter that imports the package (every CLI run), and importing the
``dataclasses`` module costs about 2 ms more.  The record types are
``__slots__`` classes: one check counts decorations, another finds the
module not loaded.

Importing numpy's random module costs a fresh interpreter about 6 MB and
13 ms.  random_polynomial draws its coefficients in-package, so the other
check builds one and verifies it, and finds that module not loaded.

orjson's own imports (uuid, zoneinfo, json, sysconfig) cost a fresh
interpreter about 10 ms, and only the CSV writer uses it: a run of verify
leaves it unloaded, and writing a defect-map CSV loads it.

The definition-file language (expr) and the jet algebra (jets) are about a
quarter of the package's compile time, paid by every fresh interpreter
(bytecode is not cached when PYTHONDONTWRITEBYTECODE is set), and only a
definition file and holomorphic_graph use them; json only the JSON grid
writer.  The package and the other catalog surfaces leave them unloaded,
and the package still exports their public names.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SURFACE_FILE = SRC.parent / "bench" / "data" / "phi_h42.txt"

# a fresh interpreter records every class dataclasses.dataclass decorates
# while the package and its CLI are imported
COUNT_DECORATIONS = """
import dataclasses, json, sys
seen = []
real = dataclasses.dataclass

def counting(cls=None, /, **kwargs):
    def decorate(c):
        seen.append(c.__module__ + "." + c.__qualname__)
        return real(c, **kwargs)
    return decorate if cls is None else decorate(cls)

dataclasses.dataclass = counting
import neutralsurf, neutralsurf.cli
print(json.dumps(sorted(name for name in seen if name.startswith("neutralsurf"))))
"""


DATACLASSES_LOADED = """
import sys
import neutralsurf, neutralsurf.cli
print("dataclasses" in sys.modules)
"""


RANDOM_MODULE_AFTER_VERIFY = """
import contextlib, io, sys
from neutralsurf import catalog_get, cli
catalog_get("random_polynomial", {"seed": 7})
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "random_polynomial", "--seed", "7", "--grid", "9x9"])
print(code, "numpy.random" in sys.modules)
"""


ORJSON_AFTER_VERIFY_THEN_DEFECT_MAP = """
import contextlib, io, sys
import neutralsurf, neutralsurf.cli
with contextlib.redirect_stdout(io.StringIO()):
    verified = neutralsurf.cli.main(["verify", "phi_h42", "--grid", "5x5"])
    after_verify = "orjson" in sys.modules
    mapped = neutralsurf.cli.main(["defect-map", "phi_h42", "--grid", "5x5", "--out", sys.argv[1]])
print(verified, after_verify, mapped, "orjson" in sys.modules)
"""


# a statement, run in a fresh interpreter after the package and its CLI are imported
EXPR_AND_JETS_AFTER = """
import contextlib, io, sys
import neutralsurf, neutralsurf.cli
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print("neutralsurf.expr" in sys.modules, "neutralsurf.jets" in sys.modules)
"""


PACKAGE_LEAVES_UNLOADED = """
import sys, neutralsurf
print(*(name in sys.modules for name in ("neutralsurf.expr", "neutralsurf.jets", "json")))
"""


PACKAGE_EXPORTS = """
import neutralsurf
from neutralsurf import Jet2, SurfaceDefinition, eval_on_jets, parse_expression, parse_surface
from neutralsurf import expr, jets
print(Jet2 is jets.Jet2, SurfaceDefinition is expr.SurfaceDefinition, eval_on_jets is expr.eval_on_jets,
      parse_expression is expr.parse_expression, parse_surface is expr.parse_surface)
names = ("Jet2", "SurfaceDefinition", "eval_on_jets", "parse_expression", "parse_surface")
print(*(name in dir(neutralsurf) for name in names))
"""


def run_fresh(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_no_class_is_a_dataclass():
    assert json.loads(run_fresh(COUNT_DECORATIONS)) == []


def test_the_package_leaves_dataclasses_unloaded():
    assert run_fresh(DATACLASSES_LOADED).split() == ["False"]


def test_only_the_csv_writer_loads_orjson(tmp_path):
    out = tmp_path / "defect.csv"
    assert run_fresh(ORJSON_AFTER_VERIFY_THEN_DEFECT_MAP, str(out)).split() == ["0", "False", "0", "True"]
    assert out.read_text().startswith("s,t,value,E,F,G\n")


def test_random_polynomial_leaves_numpy_random_unloaded():
    assert run_fresh(RANDOM_MODULE_AFTER_VERIFY).split() == ["0", "False"]



def test_the_package_leaves_expr_jets_and_json_unloaded():
    assert run_fresh(PACKAGE_LEAVES_UNLOADED).split() == ["False"] * 3


@pytest.mark.parametrize(
    "step,loaded",
    [
        ("pass", False),
        ("neutralsurf.cli.main(['verify', 'phi_h42', '--grid', '5x5'])", False),
        ("neutralsurf.cli.main(['verify', '--file', sys.argv[2], '--grid', '5x5'])", True),
        ("neutralsurf.catalog_get('holomorphic_graph', {'f': 'z^2/2'})", True),
    ],
    ids=["import", "verify", "verify-file", "holomorphic_graph"],
)
def test_only_a_definition_file_and_holomorphic_graph_load_expr_and_jets(step, loaded):
    assert run_fresh(EXPR_AND_JETS_AFTER, step, str(SURFACE_FILE)).split() == [str(loaded)] * 2


def test_the_package_exports_the_lazily_loaded_names():
    assert run_fresh(PACKAGE_EXPORTS).split() == ["True"] * 10
