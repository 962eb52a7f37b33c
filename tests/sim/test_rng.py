"""Tests for deterministic named RNG streams."""

import hashlib

import pytest

from repro.sim.rng import RngRegistry, derive_seed, sha256


def test_same_name_same_stream_object():
    reg = RngRegistry(1)
    assert reg.stream("a") is reg.stream("a")


def test_streams_reproducible_across_registries():
    a = RngRegistry(42).stream("clients")
    b = RngRegistry(42).stream("clients")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_differ():
    reg = RngRegistry(42)
    xs = [reg.stream("x").random() for _ in range(5)]
    ys = [reg.stream("y").random() for _ in range(5)]
    assert xs != ys


def test_different_seeds_differ():
    a = RngRegistry(1).stream("s")
    b = RngRegistry(2).stream("s")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_derive_seed_stable():
    assert derive_seed(7, "foo") == derive_seed(7, "foo")
    assert derive_seed(7, "foo") != derive_seed(7, "bar")
    assert derive_seed(7, "foo") != derive_seed(8, "foo")


@pytest.mark.parametrize(
    "data", [b"", b"abc", b"7:clients", bytes(range(256)) * 9]
)
def test_builtin_sha256_matches_hashlib(data):
    assert sha256(data).digest() == hashlib.sha256(data).digest()
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_fork_is_reproducible_and_independent():
    a = RngRegistry(5).fork("rep1")
    b = RngRegistry(5).fork("rep1")
    c = RngRegistry(5).fork("rep2")
    assert a.master_seed == b.master_seed
    assert a.master_seed != c.master_seed


def test_consumption_isolation():
    """Draining one stream must not perturb another."""
    reg1 = RngRegistry(9)
    reg2 = RngRegistry(9)
    for _ in range(100):
        reg1.stream("noisy").random()
    assert reg1.stream("quiet").random() == reg2.stream("quiet").random()
