"""The simulator runs on the standard library alone.

numpy is a test-only oracle (see ``tests/workload/test_trace.py``);
importing it would cost every CLI call, test process and ``--jobs``
worker its start-up time and resident memory, and start a BLAS thread
before each fork.  This guard runs a real cluster in a fresh interpreter
so a later import of numpy anywhere on the simulation path shows up.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import sys

import repro
import repro.__main__
import repro.analysis
import repro.experiments
from repro.press import SMOKE_SCALE, TCP_PRESS, PressCluster

cluster = PressCluster(TCP_PRESS, scale=SMOKE_SCALE, seed=1)
cluster.start()
cluster.run_until(5.0)
assert cluster.engine.now >= 5.0, cluster.engine.now
assert cluster.monitor.availability() > 0.0
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy.")))
"""


def test_a_smoke_cluster_runs_without_importing_numpy():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
