"""Record the reference outcome of every operation a workload seed can pick.

    python3 bench/record.py

Writes data/reference.json: the CLI outcomes (full and tiny grids) for the
fixed surfaces and every random_polynomial seed in the pool, and the probe
pools with each probe's outcome.  Run it only on a commit whose outputs are
the reference, since every later run is checked against this file.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

from workloads import PROBE_POOLS, REFERENCE, ROOT, SRC, all_cli_argvs, cli_op, probe_op, probe_points, surface

POINT_SEED = 2013


def main() -> int:
    sys.path.insert(0, str(SRC))
    cli = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        for size, tiny in (("full", False), ("tiny", True)):
            cli[size] = {}
            for argv in all_cli_argvs(tiny):
                op = cli_op(argv, Path(tmp))
                cli[size][op.key] = op.outcome(op.call())
                print(size, op.key, cli[size][op.key]["exit"], file=sys.stderr)
    rng = random.Random(POINT_SEED)
    probes = {}
    for cls, (keys, per_surface) in PROBE_POOLS.items():
        probes[cls] = []
        for key in keys:
            imm = surface(key)
            for p in probe_points(imm, per_surface, rng):
                probes[cls].append([key, p[0], p[1], probe_op(cls, key, imm, p).call()])
        print(cls, len(probes[cls]), "probes", file=sys.stderr)
    payload = {"cli": cli, "probes": probes}
    REFERENCE.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
