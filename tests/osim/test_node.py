"""Tests for the node: crash/reboot, freeze, disks, process wiring."""

import pytest

from repro.net.fabric import Fabric
from repro.osim.node import Node
from repro.sim.engine import Engine


def make_node(e, reboot_time=30.0, restart_delay=2.0):
    fabric = Fabric(e)
    node = Node(
        e, "n0", fabric.attach("n0"), reboot_time=reboot_time,
        restart_delay=restart_delay,
    )
    return node


def test_crash_kills_process_and_nic():
    e = Engine()
    node = make_node(e)
    node.process.start()
    node.crash()
    assert not node.up
    assert not node.nic.powered
    assert not node.process.alive
    assert not node.cpu.alive


def test_transient_crash_reboots_and_restarts_process():
    e = Engine()
    node = make_node(e, reboot_time=30.0, restart_delay=2.0)
    node.process.start()
    hooks = []
    node.on_reboot_complete.append(lambda: hooks.append(e.now))
    e.call_after(10.0, node.crash)
    e.run()
    assert node.up
    assert node.nic.powered
    assert node.process.running
    assert node.process.incarnation == 2
    assert hooks == [40.0]


def test_permanent_crash_stays_down():
    e = Engine()
    node = make_node(e)
    node.process.start()
    node.crash(transient=False)
    e.run()
    assert not node.up
    assert not node.process.alive


def test_reboot_resets_kernel_memory_faults():
    e = Engine()
    node = make_node(e, reboot_time=5.0)
    node.process.start()
    node.kernel_memory.inject_allocation_fault()
    node.pinnable.inject_pin_fault(0)
    node.crash()
    e.run()
    assert node.kernel_memory.probe(100)
    assert node.pinnable.pin(100)


def test_crash_while_down_is_noop():
    e = Engine()
    node = make_node(e)
    node.process.start()
    node.crash()
    node.crash()
    assert node.crashes == 1


def test_freeze_stops_process_and_cpu():
    e = Engine()
    node = make_node(e)
    node.process.start()
    done = []
    node.cpu.submit(1.0, lambda: done.append(e.now))
    node.freeze()
    assert node.frozen
    assert not node.process.running
    e.call_after(20.0, node.unfreeze)
    e.run()
    assert done and done[0] >= 20.0
    assert node.process.running


def test_freeze_keeps_nic_powered():
    """A hung node's kernel still ACKs — the NIC stays on."""
    e = Engine()
    node = make_node(e)
    node.process.start()
    node.freeze()
    assert node.nic.powered


def test_disk_read_parallelism_bounded():
    e = Engine()
    node = make_node(e)
    node.process.start()
    done = []
    for _ in range(4):
        node.disk_read(1024, lambda: done.append(e.now))
    e.run()
    assert len(done) == 4
    # 2 disk threads: reads complete in two waves.
    assert done[0] == done[1]
    assert done[2] > done[0]


def test_disk_read_dropped_when_process_dead():
    e = Engine()
    node = make_node(e)
    node.process.start()
    done = []
    node.disk_read(1024, lambda: done.append(1))
    node.process.exit("crash")
    e.run()
    assert done == []
