"""The per-NIC fast-path route cache (``Nic._routes``).

A NIC caches ``dst -> (src_link, dst_link)`` for every destination the
fabric found clean, and a cached route sends with one fabric call.  The
cache is only sound if every change to an eligibility input empties it,
so each fault entry point is checked here: afterwards every NIC's routes
are empty, the next send takes the checked path, and ``fast_eligible``
agrees with a fresh eligibility check.
"""

import pytest

from repro.net.fabric import Fabric
from repro.net.link import intra_cluster_kind
from repro.net.packet import Frame
from repro.sim.engine import Engine

NAMES = ("a", "b", "c")


def build(fastpath=True):
    engine = Engine()
    fabric = Fabric(engine, fastpath=fastpath)
    nics = {n: fabric.attach(n) for n in NAMES}
    for nic in nics.values():
        nic.on_receive(lambda frame: None)
    return engine, fabric, nics


def send(nics, src, dst, kind="x"):
    return nics[src].send(Frame(src=src, dst=dst, size=100, kind=kind))


def fill_routes(engine, fabric, nics):
    """Send between every ordered pair so every NIC caches every route."""
    for src in NAMES:
        for dst in NAMES:
            if src != dst:
                send(nics, src, dst)
    engine.run()
    for src in NAMES:
        assert set(nics[src]._routes) == set(NAMES) - {src}


class Spy:
    """Records which fabric entry point each send went through."""

    def __init__(self, fabric):
        self.calls = []
        self._in_checked = False
        checked = fabric.transmit
        fast = fabric._fast_send

        def transmit(src_nic, frame):
            self.calls.append("checked")
            self._in_checked = True
            try:
                return checked(src_nic, frame)
            finally:
                self._in_checked = False

        def fast_send(frame, route, *count):
            if not self._in_checked:
                self.calls.append("cached")
            return fast(frame, route, *count)

        fabric.transmit = transmit
        fabric._fast_send = fast_send


def _link_fail(engine, fabric, nics):
    fabric.link("b").fail()


def _link_fail_for(engine, fabric, nics):
    fabric.link("b").fail_for(intra_cluster_kind)


def _link_repair(engine, fabric, nics):
    fabric.link("b").repair()


def _switch_fail(engine, fabric, nics):
    fabric.switch.fail()


def _switch_repair(engine, fabric, nics):
    fabric.switch.repair()


def _power_off(engine, fabric, nics):
    nics["b"].power_off()


def _power_on(engine, fabric, nics):
    nics["b"].power_on()


def _attach(engine, fabric, nics):
    fabric.attach("d")


TRANSITIONS = {
    "link-fail": _link_fail,
    "link-fail-for": _link_fail_for,
    "link-repair": _link_repair,
    "switch-fail": _switch_fail,
    "switch-repair": _switch_repair,
    "nic-power-off": _power_off,
    "nic-power-on": _power_on,
    "fabric-attach": _attach,
}


@pytest.mark.parametrize("name", sorted(TRANSITIONS))
def test_every_fault_entry_point_empties_every_route_cache(name):
    engine, fabric, nics = build()
    fill_routes(engine, fabric, nics)
    epoch = fabric._topo_epoch
    TRANSITIONS[name](engine, fabric, nics)
    assert fabric._topo_epoch == epoch + 1
    for nic in fabric.nics.values():
        assert nic._routes == {}


@pytest.mark.parametrize("name", sorted(TRANSITIONS))
def test_next_send_after_a_transition_takes_the_checked_path(name):
    engine, fabric, nics = build()
    fill_routes(engine, fabric, nics)
    spy = Spy(fabric)
    send(nics, "a", "c")
    assert spy.calls == ["cached"]
    TRANSITIONS[name](engine, fabric, nics)
    spy.calls.clear()
    send(nics, "a", "c")
    assert spy.calls == ["checked"]
    # A checked send over a clean path refills the route; a failed switch
    # leaves a->c unclean, so sends keep taking the checked path.
    spy.calls.clear()
    send(nics, "a", "c")
    assert spy.calls == ["checked" if name == "switch-fail" else "cached"]
    engine.run()


@pytest.mark.parametrize("name", sorted(TRANSITIONS))
def test_fast_eligible_agrees_with_a_fresh_check(name):
    engine, fabric, nics = build()
    fill_routes(engine, fabric, nics)
    TRANSITIONS[name](engine, fabric, nics)
    for src in fabric.nics:
        for dst in fabric.nics:
            if src != dst:
                cached = fabric.fast_eligible(src, dst)
                assert cached == (fabric._check_fast(src, dst) is not None)


def test_reference_fabric_never_fills_routes():
    engine, fabric, nics = build(fastpath=False)
    for src in NAMES:
        for dst in NAMES:
            if src != dst:
                send(nics, src, dst)
                assert not fabric.fast_eligible(src, dst)
    nics["a"].send_train(
        [Frame(src="a", dst="b", size=100, kind="x") for _ in range(3)]
    )
    engine.run()
    assert fabric.frames_delivered == 9
    for nic in nics.values():
        assert nic._routes == {}
