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
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
