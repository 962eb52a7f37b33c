"""repro — reproduction of "Evaluating the Impact of Communication
Architecture on the Performability of Cluster-Based Services" (HPCA 2003).

The package is organized bottom-up:

* :mod:`repro.sim` — discrete-event engine, resources, monitors.
* :mod:`repro.net` — the cLAN-style fabric: links, switch, NICs.
* :mod:`repro.osim` — OS model: kernel memory, pinning, processes, nodes.
* :mod:`repro.transports` — TCP and VIA intra-cluster substrates.
* :mod:`repro.faults` — the Mendosus-like fault injector (Table 2).
* :mod:`repro.press` — the PRESS server and its five versions (Table 1).
* :mod:`repro.workload` — trace synthesis and open-loop clients.
* :mod:`repro.core` — the paper's methodology: 7-stage model, fault
  loads (Table 3), the AT/AA model, and the performability metric.
* :mod:`repro.experiments` — one entry point per table/figure.

Quickstart::

    from repro.press import PressCluster, TCP_PRESS
    from repro.faults import FaultKind, FaultSpec

    cluster = PressCluster(TCP_PRESS, seed=1)
    cluster.start()
    cluster.mendosus.schedule(
        FaultSpec(FaultKind.LINK_DOWN, target="node2", at=60, duration=60)
    )
    cluster.run_until(200)
    print(cluster.monitor.availability())
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: Every subpackage is imported on first access (see :mod:`repro._lazy`).
__all__ = [
    "sim",
    "net",
    "osim",
    "transports",
    "faults",
    "press",
    "workload",
    "core",
    "experiments",
    "analysis",
    "__version__",
]
_, __getattr__, __dir__ = lazy_exports(__name__, {})
