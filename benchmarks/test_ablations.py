"""Ablations of the design choices the paper's Discussion (§7) singles
out.  Each flips exactly one property and quantifies the availability it
was buying:

* **pre-allocation** — run VIA with dynamic kernel-memory buffers and
  watch it inherit TCP's memory-exhaustion stall;
* **message boundaries** — run TCP with boundary-preserving framing and
  watch off-by-N faults stop killing processes;
* **heartbeat threshold** — sweep the detection threshold and expose the
  detection-latency side of the trade;
* **operator-free re-merge** — recompute the model with stage E removed,
  pricing PRESS's never-merge-partitions policy.
"""

import dataclasses

from repro.core.faultload import DAY, FaultLoad
from repro.core.model import evaluate
from repro.core.stages import STAGES, SevenStageProfile, Stage
from repro.faults.spec import FaultKind, FaultSpec
from repro.press.cluster import SMOKE_SCALE, PressCluster
from repro.press.config import TCP_PRESS, TCP_PRESS_HB, VIA_PRESS_0
from repro.transports.tcp.params import DEFAULT_TCP_PARAMS
from repro.transports.via.params import DEFAULT_VIA_PARAMS

from .claims import check
from .conftest import run_once


def test_ablation_preallocation(benchmark):
    """§7: "if there are enough resources these should be pre-allocated
    during channel set-up."  With dynamic buffers, the kernel-memory
    fault stalls VIA exactly as it stalls TCP."""

    def run_pair():
        out = {}
        for label, dynamic in (("preallocated", False), ("dynamic", True)):
            params = dataclasses.replace(
                DEFAULT_VIA_PARAMS, dynamic_buffers=dynamic
            )
            c = PressCluster(
                VIA_PRESS_0, scale=SMOKE_SCALE, seed=9, via_params=params
            )
            c.start()
            c.mendosus.schedule(
                FaultSpec(
                    FaultKind.KERNEL_MEMORY, target="node2", at=30.0,
                    duration=40.0,
                )
            )
            c.run_until(70.0)
            out[label] = (
                c.measured_rate(40.0, 70.0) / c.measured_rate(10.0, 30.0)
            )
        return out

    out = run_once(benchmark, run_pair)
    print()
    print("Ablation: pre-allocation under kernel-memory exhaustion")
    for label, ratio in out.items():
        print(f"  {label:13s} throughput retained: {ratio * 100:5.1f}%")
    # The dynamic variant loses the faulty node's whole contribution
    # (its sends starve) — though VIA's user-level flow control still
    # spares the *rest* of the cluster the total stall TCP suffers.
    check("§7 ablation: pre-allocation", out)


def test_ablation_message_boundaries(benchmark):
    """§7: byte streams let one bad send poison everything after it;
    with preserved boundaries the damage stays inside one message."""

    def run_pair():
        out = {}
        for label, preserve in (("byte-stream", False), ("boundaries", True)):
            params = dataclasses.replace(
                DEFAULT_TCP_PARAMS, boundary_preserving=preserve
            )
            c = PressCluster(
                TCP_PRESS, scale=SMOKE_SCALE, seed=9, tcp_params=params
            )
            c.start()
            c.mendosus.schedule(
                FaultSpec(
                    FaultKind.BAD_PARAM_SIZE, target="node2", at=30.0,
                    off_by_n=17,
                )
            )
            c.run_until(120.0)
            out[label] = {
                "fail_fasts": sum(
                    s.fail_fasts for s in c.servers.values()
                ),
                "availability": c.monitor.availability(),
            }
        return out

    out = run_once(benchmark, run_pair)
    print()
    print("Ablation: framing discipline under an off-by-N size fault")
    for label, row in out.items():
        print(
            f"  {label:12s} processes lost: {row['fail_fasts']}"
            f"   availability: {row['availability']:.4f}"
        )
    check("§7 ablation: message boundaries", out)


def test_ablation_heartbeat_threshold(benchmark):
    """Detection latency scales with the threshold: the paper's 3-beat
    choice trades speed against false positives."""

    def run_sweep():
        out = {}
        for threshold in (2, 3, 5):
            config = dataclasses.replace(
                TCP_PRESS_HB, heartbeat_threshold=threshold
            )
            c = PressCluster(config, scale=SMOKE_SCALE, seed=9)
            c.start()
            c.mendosus.schedule(
                FaultSpec(FaultKind.NODE_CRASH, target="node2", at=30.0)
            )
            c.run_until(90.0)
            detections = [
                t for t in c.annotations.times("reconfigured") if t >= 30.0
            ]
            out[threshold] = detections[0] - 30.0 if detections else None
        return out

    out = run_once(benchmark, run_sweep)
    print()
    print("Ablation: heartbeat threshold vs. detection latency")
    for threshold, latency in out.items():
        print(f"  {threshold} beats -> detected in {latency:5.1f}s")
    check("§7 ablation: heartbeat threshold", out)


def test_ablation_automatic_remerge_live(benchmark):
    """Live version of the re-merge ablation: run the Figure-2 link
    fault with the auto-remerge membership extension enabled and show
    the cluster heals without an operator."""

    def run_pair():
        from repro.press.config import VIA_PRESS_5

        out = {}
        for label, cfg in (
            ("stock", VIA_PRESS_5),
            (
                "auto-remerge",
                dataclasses.replace(
                    VIA_PRESS_5, auto_remerge=True, remerge_probe_interval=10.0
                ),
            ),
        ):
            c = PressCluster(cfg, scale=SMOKE_SCALE, seed=17)
            c.start()
            c.mendosus.schedule(
                FaultSpec(
                    FaultKind.LINK_DOWN, target="node2", at=30.0, duration=30.0
                )
            )
            c.run_until(220.0)
            out[label] = {
                "partitioned": c.is_partitioned(),
                "availability": c.monitor.availability(),
            }
        return out

    out = run_once(benchmark, run_pair)
    print()
    print("Ablation (live): automatic partition re-merge after a link fault")
    for label, row in out.items():
        state = "partitioned" if row["partitioned"] else "whole"
        print(f"  {label:13s} end state: {state:12s} avail: {row['availability']:.4f}")
    check("§7 ablation: re-merge (live)", out)


def test_ablation_automatic_remerge_model(benchmark, bench_settings, campaign):
    """Model-level version: re-evaluate with stage E (the sub-normal
    regime awaiting the operator) zeroed, bounding what a perfect
    re-merge protocol could buy."""

    def evaluate_both():
        load = FaultLoad.table3(app_fault_mttf=DAY)
        out = {}
        for version in ("TCP-PRESS-HB", "VIA-PRESS-5"):
            profiles = campaign[version]
            merged = _without_stage_e(profiles)
            out[version] = (
                evaluate(profiles, load).availability,
                evaluate(merged, load).availability,
            )
        return out

    out = run_once(benchmark, evaluate_both)
    print()
    print("Ablation: automatic partition re-merge (model-level)")
    for version, (actual, merged) in out.items():
        gain = (merged - actual) * 100
        print(
            f"  {version:14s} AA {actual:.5f} -> {merged:.5f}"
            f"  (+{gain:.4f} points)"
        )
    check("§7 ablation: re-merge (model)", out)


def _without_stage_e(profiles):
    from repro.core.model import ProfileSet

    stripped = ProfileSet(profiles.version, profiles.normal_throughput)
    for key in profiles.keys():
        p = profiles.get(key)
        stripped.add(
            SevenStageProfile.from_pairs(
                p.fault,
                p.version,
                p.normal_throughput,
                [
                    (s, p.duration(s), p.throughput(s))
                    for s in STAGES
                    if s is not Stage.E
                ],
            )
        )
    return stripped
