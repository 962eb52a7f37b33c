"""EXTENSION: quantify the paper's §7 "ideal" communication layer.

IDEAL-PRESS = VIA-PRESS-5's data path (message-based, zero-copy,
pre-allocated, fail-stop) + synchronous descriptor validation (errors
confined to the offending call).  Under the fault classes where each
existing design loses, the ideal layer should lose nowhere:

* bad parameters  — TCP survives (EFAULT) but VIA fail-fasts: ideal
  must survive like TCP;
* kernel memory   — VIA shrugs, TCP stalls: ideal must shrug;
* node crash      — both detect; ideal must detect instantly like VIA;
* throughput      — ideal keeps VIA-5's peak.
"""

from repro.experiments.table1 import measure_peak
from repro.experiments.timelines import run_timeline_figure
from repro.faults.spec import FaultKind

from .claims import check, fail_fasts
from .conftest import run_once

CONTENDERS = ["TCP-PRESS", "VIA-PRESS-5", "IDEAL-PRESS"]


def test_ideal_layer(benchmark, bench_settings):
    def run_all():
        out = {
            "peak": {
                v: measure_peak(v, bench_settings) for v in CONTENDERS
            },
            "null-pointer": run_timeline_figure(
                FaultKind.BAD_PARAM_NULL, CONTENDERS, bench_settings
            ),
            "off-by-size": run_timeline_figure(
                FaultKind.BAD_PARAM_SIZE, CONTENDERS, bench_settings
            ),
            "kernel-memory": run_timeline_figure(
                FaultKind.KERNEL_MEMORY, CONTENDERS, bench_settings
            ),
        }
        return out

    out = run_once(benchmark, run_all)
    print()
    print("§7 ideal layer vs. the studied designs")
    print(f"{'metric':26s} " + " ".join(f"{v:>12s}" for v in CONTENDERS))
    print(
        f"{'peak throughput (req/s)':26s} "
        + " ".join(f"{out['peak'][v]:12.0f}" for v in CONTENDERS)
    )
    for fault in ("null-pointer", "off-by-size", "kernel-memory"):
        records = out[fault].records
        print(
            f"{fault + ' procs lost':26s} "
            + " ".join(f"{fail_fasts(records[v]):12d}" for v in CONTENDERS)
        )
        print(
            f"{fault + ' avail':26s} "
            + " ".join(
                f"{records[v].timeline.availability:12.4f}"
                for v in CONTENDERS
            )
        )
    check("§7 ideal layer", out)
