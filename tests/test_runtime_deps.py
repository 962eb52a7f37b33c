"""A process imports only the modules it runs, from the standard library.

numpy is a test-only oracle (see ``tests/workload/test_trace.py``);
importing it would cost every CLI call, test process and ``--jobs``
worker its start-up time and resident memory, and start a BLAS thread
before each fork.  The same holds, on a smaller scale, for the exhibits,
the analysis package, ``statistics`` (which pulls in ``decimal`` and
``fractions``), ``hashlib`` (which loads OpenSSL) and the snapshot
pickler: a fault-free cell uses none of them, and the package
``__init__`` modules export their names lazily (``repro._lazy``) so it
loads none of them.  These guards run real
clusters in a fresh interpreter, so a later eager import anywhere on the
simulation path shows up.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro


def _run_probe(probe: str, *args: str) -> str:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


_NUMPY_PROBE = """
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
    assert _run_probe(_NUMPY_PROBE) == "[]"


#: What a fault-free campaign cell imports, then one SMOKE baseline run
#: with the observatory every cell attaches.
_STEADY_CELL_PROBE = """
import sys

from repro.core import faultload, model
from repro.experiments import phase1, runner, store, warmstart
from repro.experiments.settings import Phase1Settings
from repro.faults.spec import FaultKind
from repro.obs.bus import EventRecorder
from repro.obs.observatory import Observatory
from repro.press.cluster import SMOKE_SCALE
from repro.press.config import ALL_VERSIONS_EXTENDED
from repro.sim.engine import Engine

settings = Phase1Settings(scale=SMOKE_SCALE, seed=1, warm=5.0, fault_at=10.0)
obs = Observatory(recorder=EventRecorder(keep_events=False), env=settings.environment)
tn, cluster = phase1.run_baseline(
    ALL_VERSIONS_EXTENDED["VIA-PRESS-5"], settings, recorder=obs
)
obs.finish(cluster)
assert tn > 0.0, tn
print(sorted(m for m in sys.modules if m in set(sys.argv[1:])))
"""

#: Modules a fault-free cell never runs.  ``hashlib`` loads OpenSSL;
#: the simulator hashes with the builtin SHA-256 (``repro.sim.rng``).
_UNUSED_BY_A_STEADY_CELL = (
    "hashlib",
    "_hashlib",
    "pickle",
    "statistics",
    "decimal",
    "repro.sim.snapshot",
    "repro.analysis",
    "repro.experiments.campaign",
    "repro.experiments.performability",
    "repro.experiments.table1",
    "repro.experiments.timelines",
    "repro.experiments.validation",
    "repro.core.metric",
    "repro.core.sensitivity",
)


def test_a_steady_cell_imports_no_exhibit_analysis_or_pickler():
    assert _run_probe(_STEADY_CELL_PROBE, *_UNUSED_BY_A_STEADY_CELL) == "[]"


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    for package in _packages():
        for name in package.__all__:
            getattr(package, name)
            assert name in dir(package), (package.__name__, name)


_LAZY_PROBE = """
import sys

import repro

print(sorted(m for m in sys.modules if m.startswith("repro")))
assert "experiments" in dir(repro)
assert repro.press.PressCluster.__name__ == "PressCluster"
from repro.experiments import run_table1

assert run_table1.__module__ == "repro.experiments.table1"
assert repro.core.metric.performability_of is repro.core.performability_of
try:
    repro.no_such_module
except AttributeError:
    pass
else:
    raise AssertionError("repro.no_such_module resolved")
"""


def test_packages_import_their_submodules_on_first_access():
    assert _run_probe(_LAZY_PROBE) == "['repro', 'repro._lazy']"
