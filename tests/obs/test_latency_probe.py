"""LatencyProbe's shared single-stage sketch vs a two-sketch oracle.

Until a second stage appears the probe folds each latency once, into a
sketch that is both ``overall`` and ``by_stage[stage]``.  Whatever the
stage sequence, its summary and state digest must equal those of a
probe that feeds two sketches per request from the start, including
across a pickle round trip (the warm-start checkpoint path).
"""

from __future__ import annotations

import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.attribution import LatencyProbe
from repro.obs.events import WORKLOAD_REQUEST_DONE
from repro.obs.sketch import DEFAULT_QUANTILES, FOLD_BATCH, QuantileSketch
from repro.sim.engine import Engine
from repro.sim.snapshot import state_digest
from tests.obs.test_sketch import _LoopSketch, _markers


class _Detector:
    stage = "normal"


class _TwoSketchProbe(LatencyProbe):
    """The oracle: an overall sketch plus one per stage, always separate."""

    def _on_event(self, event) -> None:
        f = event.fields
        outcome = f["outcome"]
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if outcome != "ok":
            return
        self.overall.observe(f["latency"])
        stage = self.detector.stage
        sketch = self.by_stage.get(stage)
        if sketch is None:
            sketch = self.by_stage[stage] = QuantileSketch()
        sketch.observe(f["latency"])


class _Rig:
    """A bus feeding one probe, driven by (stage, outcome, latency)."""

    def __init__(self, probe_cls=LatencyProbe):
        self.detector = _Detector()
        self.bus = Engine().bus
        self.probe = probe_cls(detector=self.detector).attach(self.bus)

    def feed(self, stream):
        for stage, outcome, latency in stream:
            self.detector.stage = stage
            self.bus.publish(
                WORKLOAD_REQUEST_DONE, outcome=outcome, latency=latency
            )


def _stream(stages, n, seed=0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        stage = stages[min(i * len(stages) // n, len(stages) - 1)]
        outcome = "ok" if rng.random() < 0.9 else rng.choice(["reject", "timeout"])
        out.append((stage, outcome, rng.expovariate(20.0)))
    return out


def _assert_same(probe, oracle):
    assert probe.summary() == oracle.summary()
    assert state_digest(probe) == state_digest(oracle)


def _fed(stream, probe_cls=LatencyProbe):
    rig = _Rig(probe_cls)
    rig.feed(stream)
    return rig.probe


def test_single_stage_run_folds_each_latency_once():
    stream = _stream(["normal"], 400)
    probe = _fed(stream)
    assert probe.by_stage["normal"] is probe.overall
    _assert_same(probe, _fed(stream, _TwoSketchProbe))


def test_no_detector_shares_the_normal_bucket():
    bus = Engine().bus
    probe = LatencyProbe().attach(bus)
    bus.publish(WORKLOAD_REQUEST_DONE, outcome="ok", latency=0.01)
    assert probe.by_stage == {"normal": probe.overall}


def test_stage_split_matches_two_sketches():
    stream = _stream(["normal", "A", "B", "normal", "D"], 600, seed=1)
    probe = _fed(stream)
    assert all(s is not probe.overall for s in probe.by_stage.values())
    _assert_same(probe, _fed(stream, _TwoSketchProbe))


def test_split_during_the_five_sample_warmup():
    stream = [("normal", "ok", 0.3), ("normal", "ok", 0.1), ("A", "ok", 0.2)]
    stream += _stream(["A", "normal"], 50, seed=2)
    _assert_same(_fed(stream), _fed(stream, _TwoSketchProbe))


def test_sharing_survives_a_pickle_round_trip():
    head = _stream(["normal"], 200, seed=3)
    tail = _stream(["normal", "C", "normal"], 300, seed=4)
    rig = _Rig()
    rig.feed(head)
    restored = pickle.loads(pickle.dumps(rig))
    assert restored.probe.by_stage["normal"] is restored.probe.overall
    _assert_same(restored.probe, _fed(head, _TwoSketchProbe))
    restored.feed(tail)
    _assert_same(restored.probe, _fed(head + tail, _TwoSketchProbe))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["normal", "A", "B"]),
            st.sampled_from(["ok", "ok", "ok", "reject", "timeout"]),
            st.floats(0.0, 10.0),
        ),
        max_size=80,
    )
)
def test_any_stage_sequence_matches_two_sketches(stream):
    _assert_same(_fed(stream), _fed(stream, _TwoSketchProbe))


def test_split_in_the_middle_of_a_batch_folds_exactly():
    """The second stage arrives with half a batch of the first stage's
    latencies still buffered: the copy the split makes holds them
    folded, and every sketch stays equal to the textbook loop."""
    rng = random.Random(5)
    head = [("normal", "ok", rng.expovariate(20.0)) for _ in range(FOLD_BATCH * 3 // 2)]
    tail = [("A", "ok", 0.05)] + _stream(["A", "normal", "A"], 300, seed=6)
    oracles = {name: _LoopSketch(DEFAULT_QUANTILES) for name in ("overall", "normal", "A")}

    def feed(rig, stream):
        rig.feed(stream)
        for stage, outcome, latency in stream:
            if outcome == "ok":
                oracles["overall"].observe(latency)
                oracles[stage].observe(latency)

    rig = _Rig()
    feed(rig, head)
    overall = rig.probe.overall
    assert len(overall._pending) == FOLD_BATCH // 2
    feed(rig, tail[:1])
    normal = rig.probe.by_stage["normal"]
    assert normal is not overall and normal._pending == []
    assert repr(_markers(normal)) == repr(oracles["normal"].snapshot_state()["marks"])
    feed(rig, tail[1:])
    sketches = dict(rig.probe.by_stage, overall=overall)
    assert sorted(sketches) == sorted(oracles)
    for name, sketch in sketches.items():
        assert repr(sketch.snapshot_state()) == repr(oracles[name].snapshot_state())
