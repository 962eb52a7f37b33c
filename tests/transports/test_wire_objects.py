"""The per-frame and per-message value objects keep their contract.

``Frame``, ``Message`` and ``SegPayload`` have hand-written ``__init__``
methods (they are built on every hop); these tests pin what the
generated ones used to guarantee: validation, defaults, ``replace``,
equality and pickling.
"""

import dataclasses
import pickle

import pytest

from repro.net.packet import Frame
from repro.transports.base import (
    SENT,
    CorruptionKind,
    Message,
    SendResult,
    SendStatus,
    _message_ids,
)
from repro.transports.tcp.connection import SegPayload


def test_negative_sizes_raise():
    with pytest.raises(ValueError, match="frame size"):
        Frame(src="a", dst="b", size=-1, kind="x")
    with pytest.raises(ValueError, match="message size"):
        Message("fwd-req", -1)
    Frame(src="a", dst="b", size=0, kind="x")
    Message("fwd-req", 0)


def test_frame_defaults():
    frame = Frame("a", "b", 10, "x")
    assert (frame.payload, frame.frame_id, frame.trace_id) == (None, 0, 0)


def test_message_defaults_draw_ids_from_the_message_counter():
    start = _message_ids.peek
    first = Message("fwd-req", 10)
    second = Message("fwd-req", 10, payload="p")
    assert (first.msg_id, second.msg_id) == (start, start + 1)
    assert _message_ids.peek == start + 2
    assert first.corruption is CorruptionKind.NONE
    assert (first.payload, first.skew, first.trace_id) == (None, 0, 0)
    # An explicit id is kept and does not advance the counter.
    assert Message("fwd-req", 10, msg_id=7).msg_id == 7
    assert _message_ids.peek == start + 2


def test_seg_payload_completed_is_a_fresh_list_each_time():
    one = SegPayload(gen=1, seq=0, length=10)
    two = SegPayload(gen=1, seq=0, length=10)
    assert one.completed == [] and two.completed == []
    assert one.completed is not two.completed
    given = []
    assert SegPayload(1, 0, 10, given).completed is given


def test_replace_keeps_the_message_id():
    msg = Message("file-data", 100, payload="body", trace_id=3)
    start = _message_ids.peek
    bad = dataclasses.replace(
        msg, corruption=CorruptionKind.OFF_BY_N_SIZE, skew=-4
    )
    assert _message_ids.peek == start
    assert bad.msg_id == msg.msg_id
    assert (bad.corruption, bad.skew) == (CorruptionKind.OFF_BY_N_SIZE, -4)
    assert (bad.msg_type, bad.size, bad.payload, bad.trace_id) == (
        "file-data", 100, "body", 3,
    )
    assert msg.corruption is CorruptionKind.NONE


def test_equality_is_field_wise():
    assert Frame("a", "b", 1, "x", payload=2) == Frame("a", "b", 1, "x", payload=2)
    assert Frame("a", "b", 1, "x") != Frame("a", "b", 1, "x", frame_id=1)
    assert Message("m", 1, msg_id=5) == Message("m", 1, msg_id=5)
    assert Message("m", 1, msg_id=5) != Message("m", 2, msg_id=5)


@pytest.mark.parametrize(
    "obj",
    [
        Frame("a", "b", 64, "tcp-seg", payload=SegPayload(1, 0, 64), frame_id=9,
              trace_id=4),
        Message("fwd-req", 128, payload=("f", 1), msg_id=11, trace_id=2,
                corruption=CorruptionKind.OFF_BY_N_POINTER, skew=3),
    ],
    ids=["frame", "message"],
)
def test_pickle_round_trip(obj):
    start = _message_ids.peek
    copy = pickle.loads(pickle.dumps(obj, protocol=4))
    assert copy == obj
    assert type(copy) is type(obj)
    assert _message_ids.peek == start  # unpickling draws no message id


def test_shared_sent_result_is_immutable():
    assert SENT.status is SendStatus.SENT and SENT.ok
    assert SENT == SendResult(SendStatus.SENT)
    with pytest.raises(dataclasses.FrozenInstanceError):
        SENT.status = SendStatus.BROKEN
    with pytest.raises(dataclasses.FrozenInstanceError):
        SENT.unblock_event = object()
    assert SENT.status is SendStatus.SENT
