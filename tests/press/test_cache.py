"""Tests for the file cache: LRU, broadcasts, pinning interplay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osim.memory import PinnableMemory
from repro.press.cache import FileCache
from repro.sim.engine import Engine


def test_insert_and_lookup():
    c = FileCache(Engine(), capacity_bytes=100)
    assert c.insert("f1", 40)
    assert c.lookup("f1") == 40
    assert c.hits == 1


def test_miss_counted():
    c = FileCache(Engine(), capacity_bytes=100)
    assert c.lookup("nope") is None
    assert c.misses == 1
    assert c.hit_ratio() == 0.0


def test_lru_eviction_order():
    c = FileCache(Engine(), capacity_bytes=100)
    c.insert("a", 40)
    c.insert("b", 40)
    c.lookup("a")  # refresh a
    c.insert("c", 40)  # evicts b (LRU)
    assert "a" in c and "c" in c and "b" not in c


def test_oversized_file_not_cached():
    c = FileCache(Engine(), capacity_bytes=100)
    assert not c.insert("big", 101)


def test_reinsert_refreshes_without_duplicating():
    c = FileCache(Engine(), capacity_bytes=100)
    c.insert("a", 40)
    c.insert("a", 40)
    assert c.used_bytes == 40
    assert len(c) == 1


def test_change_callbacks_fire():
    c = FileCache(Engine(), capacity_bytes=80)
    events = []
    c.on_change.append(lambda action, f: events.append((action, f)))
    c.insert("a", 40)
    c.insert("b", 40)
    c.insert("c", 40)  # evicts a
    assert ("add", "a") in events
    assert ("evict", "a") in events
    assert events[-1] == ("add", "c")


def test_explicit_evict():
    c = FileCache(Engine(), capacity_bytes=100)
    c.insert("a", 40)
    assert c.evict("a")
    assert not c.evict("a")
    assert c.used_bytes == 0


def test_pinned_cache_pins_and_unpins():
    pm = PinnableMemory(physical_bytes=400)  # limit 200
    c = FileCache(Engine(), capacity_bytes=200, pinned=True, pin_memory=pm)
    c.insert("a", 100)
    assert pm.pinned == 100
    c.evict("a")
    assert pm.pinned == 0


def test_pin_failure_sheds_lru_files():
    pm = PinnableMemory(physical_bytes=400)  # limit 200
    c = FileCache(Engine(), capacity_bytes=1000, pinned=True, pin_memory=pm)
    c.insert("a", 100)
    c.insert("b", 100)  # pinned = 200 = limit
    assert c.insert("c", 100)  # must shed a to pin c
    assert "a" not in c
    assert pm.pinned == 200
    assert c.pin_failures >= 1


def test_unpinnable_file_not_cached():
    pm = PinnableMemory(physical_bytes=400)
    pm.inject_pin_fault(0)
    c = FileCache(Engine(), capacity_bytes=1000, pinned=True, pin_memory=pm)
    assert not c.insert("a", 100)
    assert len(c) == 0


def test_preload_respects_budget_and_skips_callbacks():
    c = FileCache(Engine(), capacity_bytes=100)
    events = []
    c.on_change.append(lambda a, f: events.append(a))
    loaded = c.preload(["a", "b", "c"], 40)
    assert loaded == 2
    assert events == []


def test_preload_stops_at_pin_limit():
    pm = PinnableMemory(physical_bytes=200)  # limit 100
    c = FileCache(Engine(), capacity_bytes=1000, pinned=True, pin_memory=pm)
    loaded = c.preload([f"f{i}" for i in range(10)], 30)
    assert loaded == 3
    assert pm.pinned == 90


def test_release_returns_pins_silently():
    pm = PinnableMemory(physical_bytes=400)
    c = FileCache(Engine(), capacity_bytes=200, pinned=True, pin_memory=pm)
    events = []
    c.on_change.append(lambda a, f: events.append(a))
    c.insert("a", 100)
    del events[:]
    c.release()
    assert pm.pinned == 0
    assert events == []
    assert len(c) == 0


def test_pinned_cache_requires_pin_memory():
    with pytest.raises(ValueError):
        FileCache(Engine(), capacity_bytes=10, pinned=True)


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=20), st.integers(1, 50)),
        max_size=100,
    )
)
def test_property_used_bytes_never_exceeds_capacity(ops):
    c = FileCache(Engine(), capacity_bytes=100)
    for key, size in ops:
        c.insert(f"f{key}", size)
        assert c.used_bytes <= c.capacity_bytes
        assert c.used_bytes == sum(c._entries.values())


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "lookup", "evict"]),
            st.integers(min_value=0, max_value=10),
        ),
        max_size=120,
    )
)
def test_property_pinned_bytes_track_cache_exactly(ops):
    pm = PinnableMemory(physical_bytes=10_000)
    c = FileCache(Engine(), capacity_bytes=500, pinned=True, pin_memory=pm)
    for op, key in ops:
        name = f"f{key}"
        if op == "insert":
            c.insert(name, 37)
        elif op == "lookup":
            c.lookup(name)
        else:
            c.evict(name)
        assert pm.pinned == c.used_bytes
