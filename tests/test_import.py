"""Import cost guard: the package defines no dataclass beyond the one that needs it.

A frozen dataclass costs about 1 ms to define, paid by every fresh
interpreter that imports the package (every CLI run).  The record types are
``__slots__`` classes; ``ConnectionSample`` stays a dataclass because
callers use ``dataclasses.astuple`` on it.  The check counts decorations,
so it needs no timing.
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


def test_only_connection_sample_is_a_dataclass():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", COUNT_DECORATIONS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["neutralsurf.curvature.ConnectionSample"]
