"""Edge cases of the transport state machines."""

import pytest

from repro.net.packet import Frame
from repro.transports.base import CorruptionKind, Message, SendStatus
from repro.transports.costs import (
    TCP_COSTS,
    VIA0_COSTS,
    VIA3_COSTS,
    VIA5_COSTS,
    TransportCosts,
)
from repro.transports.tcp.connection import CtrlPayload


def run(pair, dt=1.0):
    pair.engine.run(until=pair.engine.now + dt)


class TestTcpEdges:
    def test_duplicate_syn_is_idempotent(self, tcp_pair):
        ch = tcp_pair.connect()
        # Replay the SYN the peer already accepted.
        tcp_pair.nodes["a"].nic.send(
            Frame(src="a", dst="b", size=64, kind="tcp-syn",
                  payload=CtrlPayload(gen=ch.gen))
        )
        run(tcp_pair)
        assert tcp_pair.transports["b"].channel("a").gen == ch.gen
        ch.send(Message("m", 64, payload="still works"))
        run(tcp_pair)
        assert [m.payload for _p, m in tcp_pair.messages["b"]] == ["still works"]

    def test_stale_generation_segment_draws_rst(self, tcp_pair):
        ch = tcp_pair.connect()
        from repro.transports.tcp.connection import SegPayload

        # A segment from a long-dead connection generation.
        tcp_pair.nodes["a"].nic.send(
            Frame(src="a", dst="b", size=100, kind="tcp-seg",
                  payload=SegPayload(gen=999999, seq=0, length=100))
        )
        run(tcp_pair)
        # The live connection must not be harmed by the stale-gen RST.
        assert not ch.broken

    def test_segment_after_close_draws_rst_not_crash(self, tcp_pair):
        ch = tcp_pair.connect()
        tcp_pair.transports["b"].close_channel("a")
        run(tcp_pair)
        ch2 = tcp_pair.transports["a"].channel("b")
        # a's endpoint broke via the close; further sends report BROKEN.
        assert ch.broken
        assert ch.send(Message("m", 64)).status is SendStatus.BROKEN

    def test_reconnect_after_break_gets_fresh_generation(self, tcp_pair):
        ch = tcp_pair.connect()
        old_gen = ch.gen
        tcp_pair.nodes["b"].process.exit("x")
        run(tcp_pair)
        tcp_pair.nodes["b"].process.start()
        run(tcp_pair)
        results = []
        ch2 = tcp_pair.transports["a"].connect("b", results.append)
        run(tcp_pair, 3.0)
        assert results == [True]
        assert ch2.gen != old_gen

    def test_zero_byte_message(self, tcp_pair):
        ch = tcp_pair.connect()
        ch.send(Message("ping", 0, payload="empty"))
        run(tcp_pair)
        assert [m.payload for _p, m in tcp_pair.messages["b"]] == ["empty"]

    def test_many_interleaved_sizes_keep_order(self, tcp_pair):
        ch = tcp_pair.connect()
        sizes = [0, 1, 700, 13, 1500, 64, 2048, 5]
        for i, size in enumerate(sizes):
            ch.send(Message("m", size, payload=i))
        run(tcp_pair, 5.0)
        assert [m.payload for _p, m in tcp_pair.messages["b"]] == list(
            range(len(sizes))
        )

    def test_negative_skew_poisons_stream_too(self, tcp_pair):
        ch = tcp_pair.connect()
        ch.send(
            Message("m", 64, corruption=CorruptionKind.OFF_BY_N_SIZE, skew=-9)
        )
        ch.send(Message("m", 64, payload="doomed"))
        run(tcp_pair, 2.0)
        assert any("framing" in f for f in tcp_pair.fatals["b"])

    def test_interposer_applies_and_clears(self, tcp_pair):
        ch = tcp_pair.connect()
        transport = tcp_pair.transports["a"]
        calls = []

        def interposer(msg):
            calls.append(msg.msg_type)
            return msg

        transport.interpose_send(interposer)
        ch.send(Message("m", 64))
        transport.send_interposers.remove(interposer)
        ch.send(Message("m", 64))
        assert calls == ["m"]


class TestViaEdges:
    def test_duplicate_connect_request_is_idempotent(self, via_pair):
        ch = via_pair.connect()
        via_pair.nodes["a"].nic.send(
            Frame(src="a", dst="b", size=64, kind="via-connect",
                  payload=(ch.gen, None))
        )
        run(via_pair)
        assert via_pair.transports["b"].channel("a").gen == ch.gen

    def test_credits_never_exceed_pool(self, via_pair):
        ch = via_pair.connect()
        ch.handle_credits(100)  # malicious/buggy credit return
        assert ch.credits == ch.params.credits

    def test_remote_error_on_unknown_gen_ignored(self, rdma_pair):
        rdma_pair.connect()
        rdma_pair.nodes["a"].nic.send(
            Frame(src="a", dst="b", size=64, kind="via-remote-error",
                  payload=(424242, "off-by-n-size"))
        )
        run(rdma_pair)
        assert rdma_pair.fatals["b"] == []

    def test_message_on_broken_channel_dropped(self, via_pair):
        ch = via_pair.connect()
        gen = ch.gen
        via_pair.transports["b"].close_channel("a")
        run(via_pair)
        via_pair.nodes["a"].nic.send(
            Frame(src="a", dst="b", size=64, kind="via-msg",
                  payload=(gen, Message("m", 64, payload="ghost")))
        )
        run(via_pair)
        assert via_pair.messages["b"] == []

    def test_double_crash_only_one_break_notification(self, via_pair):
        ch = via_pair.connect()
        via_pair.nodes["b"].crash(transient=False)
        ch.send(Message("m", 64))
        ch2 = via_pair.transports["a"].channel("b")
        run(via_pair)
        assert len(via_pair.breaks["a"]) == 1

    def test_pinned_bytes_balance_after_churn(self, via_pair):
        base = via_pair.nodes["a"].pinnable.pinned
        for _ in range(3):
            via_pair.connect()
            via_pair.transports["a"].close_channel("b")
            run(via_pair)
            # b's side also cleans up when it learns of the close
        run(via_pair, 2.0)
        assert via_pair.nodes["a"].pinnable.pinned == base


class TestCostModel:
    def test_send_cost_includes_copies(self):
        msg = Message("m", 10_000)
        assert TCP_COSTS.send_cost(msg) > TCP_COSTS.send_overhead
        assert VIA5_COSTS.send_cost(msg) == VIA5_COSTS.send_overhead

    def test_version_ordering_for_file_messages(self):
        """Per-message costs must order the versions as Table 1 does."""
        msg = Message("file-data", 10_240)
        total = lambda c: c.send_cost(msg) + c.recv_cost(msg)
        assert total(TCP_COSTS) > total(VIA0_COSTS) > total(VIA3_COSTS) > total(
            VIA5_COSTS
        )

    def test_scaling_keeps_byte_to_overhead_proportion(self):
        msg_full = Message("m", 10_000)
        msg_scaled = Message("m", 1_000)
        scaled = TCP_COSTS.scaled(10.0)
        ratio_full = (
            TCP_COSTS.send_copy_per_byte * msg_full.size
        ) / TCP_COSTS.send_overhead
        ratio_scaled = (
            scaled.send_copy_per_byte * msg_scaled.size
        ) / scaled.send_overhead
        assert ratio_scaled == pytest.approx(ratio_full)

    def test_scaled_total_cost_scales_linearly(self):
        msg_full = Message("m", 10_000)
        msg_scaled = Message("m", 1_000)
        assert TCP_COSTS.scaled(10.0).send_cost(msg_scaled) == pytest.approx(
            10.0 * TCP_COSTS.send_cost(msg_full)
        )
