"""Deterministic snapshot/restore of a live simulation.

A snapshot captures the *entire* object graph of a run — engine clock and
event heap, RNG streams, fabric/link serializer clocks, transports,
nodes, servers, caches, membership, the event bus with its subscribers —
so that a restored simulation resumes **bit-identically**: same event
order, same timestamps, same RNG draws, same published events.  The
campaign warm-start layer (:mod:`repro.experiments.warmstart`) uses this
to pay a version's warmup once instead of once per cell.

Why pickling is sufficient
--------------------------

The simulation is deterministic by construction (seq-numbered event
heap, named RNG streams) and single-threaded, and holds no handles to
anything outside itself: no file descriptors, no wall-clock reads, no
real I/O.  Its full state therefore *is* its object graph, and Python's
pickle machinery already round-trips that graph faithfully — including
``random.Random`` internals, bound methods, heap tuples and reference
cycles.  Three constructs need a rule of their own:

* **Plain instances** must come back in the fast attribute layout.  A
  freshly built CPython 3.11+ object keeps its attributes as inline
  values, which ``LOAD_ATTR``/``STORE_ATTR``/``LOAD_METHOD`` specialize
  on.  Pickle's default ``BUILD`` fills ``inst.__dict__`` instead, which
  turns the object into one with a per-instance dict, and every
  attribute site that sees it falls back to the generic lookup: the same
  events then run 1.3-1.7x slower after a restore.  So every ``repro``
  instance with the default reduction and a plain-dict state (see
  :func:`_state_getter`) is rebuilt attribute by attribute: pickle's
  ``NEWOBJ`` as usual, and then :func:`_set_attrs`, one
  ``object.__setattr__`` per item in state order, which leaves it laid
  out like a fresh one.
* **Functions** pickle by reference only, as pickle does them.  The
  hot paths schedule only bound methods and ``__slots__`` callables
  (see the fabric's ``_DeliverCb``), so no checkpoint holds a local
  function, a lambda or a closure; if one leaks in, capture fails with
  :class:`SnapshotError`.
* **Live generators** cannot be serialized at all (their frame is
  interpreter state).  The simulation graph holds none; if one leaks in,
  capture fails the same way rather than write a checkpoint that cannot
  resume.

Checkpoints are an internal format: they are only valid for the exact
interpreter and code that wrote them.  The warm-start cache
(:mod:`repro.experiments.warmstart`) writes the snapshot
:data:`FORMAT_VERSION` and the Python version into each checkpoint's
header (``_header``) and names the checkpoint after its simulation
inputs (``warm_digest``): a checkpoint from another format or
interpreter is reported invalidated, not resumed.

Verification
------------

Components that carry deterministic state implement the
:class:`Snapshottable` protocol: ``snapshot_state()`` returns a JSON-safe
digest of the state that must survive a round trip.  :func:`state_digest`
hashes that digest.  The warm-start layer does not compute it on restore
(that would cost time on every restore); the round trip is checked by
the tests that compare digests before capture and after restore
(``tests/sim/test_snapshot.py``, ``tests/experiments/test_warmstart.py``),
so a checkpoint format that silently drops state fails there rather than
three stages later as a diverged profile.
"""

from __future__ import annotations

import copyreg
import io
import json
import pickle
import sys
import types
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from .engine import SimulationError
from .rng import sha256

#: Bump when the snapshot encoding (this module) or any snapshotted
#: component changes its pickled layout in a way that invalidates
#: existing checkpoints.  Written into every warm checkpoint's header
#: (see :func:`repro.experiments.warmstart._header`), so stale
#: checkpoints are invalidated instead of resuming wrongly.
#:
#: v2: warm checkpoints carry the global id-counter positions
#:     (``repro.sim.ids``) alongside the (cluster, observatory) pair, and
#:     ``Frame`` grew a ``trace_id`` slot for request-scoped tracing.
#:
#: v3: the engine may be the sharded logical-process engine (per-LP
#:     event queues + shard map + channel clocks in the pickled layout),
#:     and ``Link`` carries its owner's LP affinity.
#:
#: v4: the engine carries flight-recorder churn counters
#:     (``_timer_allocs``/``_compactions``, plus the sharded engine's
#:     per-LP accounting) in its pickled layout; v3 blobs restored by v4
#:     code would lack them and die on first digest.
#:
#: v5: the sharded engine carries its execution backend and per-worker
#:     wall-clock slots (``backend``/``_proto``/``_worker_*``) in its
#:     pickled layout; parallel-backend workers rebuild their LP-slice
#:     mirrors from the restored queues at the next ``run()``, so a v4
#:     blob restored by v5 code would lack the slots those workers and
#:     ``lp_stats()`` read.
#:
#: v6: the event bus keeps its subscriber lists as tuples, ``SimEvent``
#:     is a named tuple, ``FileSet`` keeps its Zipf CDF as an
#:     ``array('d')``, and a latency probe's single-stage sketch is
#:     shared with its overall sketch; v5 blobs hold the old types.
#:
#: v7: ``FileSet`` builds its Zipf CDF with a pure-Python running sum
#:     instead of numpy.  Where numpy's SIMD ``power`` differs from libm
#:     ``pow`` (seen on an AVX-512 host), entries at 3,000 files and
#:     more (s=0.8) differ from the numpy-built ones by up to 2 ulp, so
#:     a v6 blob could restore a CDF that a cold cell no longer builds.
#:
#: v8: the sharded engine is removed and ``Link`` no longer carries an
#:     LP affinity slot; v7 blobs pickle the old ``Link`` layout.
#:
#: v9: the fabric's epoch-checked ``_fast_cache`` is gone and each
#:     ``Nic`` carries its own fast-path route cache (``_routes``); v8
#:     blobs pickle the old ``Fabric`` and ``Nic`` layouts.
#:
#: v10: the pickled ``Engine`` no longer carries a ``profiler`` attach
#:     point (``--profile`` wraps layer entry points instead); v9 blobs
#:     pickle the old ``Engine`` layout.
#:
#: v11: the ``Engine`` builds its own ``EventBus``, which carries the
#:     metrics registry and the span slot; the engine's ``metrics`` and
#:     ``spans`` attributes are gone, and ``FileCache`` holds its bus
#:     instead of an optional engine.  v10 blobs pickle the old layouts.
#:
#: v12: ``Event`` loses its ``ok`` slot (``Event.fail`` is gone) and
#:     ``Resource`` its ``_closed`` flag; a ``ClientMachine`` keeps the
#:     issue time alone per pending request plus one deadline-timer flag
#:     instead of a timer per request; a ``QuantileSketch`` carries a
#:     buffer of samples not yet folded.  v11 blobs pickle the old
#:     layouts.  ``tests/experiments/test_checkpoint_layout.py``
#:     records the layout digest of each version.
#:
#: v13: plain ``repro`` instances are rebuilt attribute by attribute by
#:     the :func:`_set_attrs` state setter instead of pickle's ``BUILD``
#:     (same layout digest as v12).  A v12 blob would still restore, but
#:     into per-instance dicts that run every callback slower.
FORMAT_VERSION = 13

#: Protocol 4 is the newest protocol supported by every interpreter in
#: the CI matrix; the digest pins the writer's Python anyway, this just
#: keeps the choice explicit and stable.
_PICKLE_PROTOCOL = 4


class SnapshotError(SimulationError):
    """A simulation could not be captured or restored faithfully."""


@runtime_checkable
class Snapshottable(Protocol):
    """A component whose deterministic state can be digested.

    ``snapshot_state()`` must return a JSON-serializable structure that
    covers every piece of state that influences future event order or
    values — clocks, sequence counters, RNG positions, queue depths.
    Equal digests before capture and after restore are what the
    snapshot and warm-start tests check a round trip by (see
    :func:`state_digest`).
    """

    def snapshot_state(self) -> dict: ...


#: ``object.__getstate__`` (Python 3.11+); Python 3.10 has none.
_OBJECT_GETSTATE = getattr(object, "__getstate__", None)


def _state_getter(cls: type) -> Optional[Callable[[Any], Any]]:
    """How to read a ``cls`` instance's state for :func:`_set_attrs`.

    Only ``repro`` classes that pickle by the default reduction of a
    plain object qualify: ``object``'s own ``__new__``, ``__reduce__``
    and ``__reduce_ex__`` (so no builtin base whose contents the default
    reduction would carry), no ``__setstate__``, and no ``__slots__``
    anywhere in the MRO.  Their state is the class's own
    ``__getstate__()`` where it defines one (the engine drops its timer
    freelist), else the instance ``__dict__``.
    """
    if not (
        cls.__module__.startswith("repro.")
        and cls.__new__ is object.__new__
        and cls.__reduce__ is object.__reduce__
        and cls.__reduce_ex__ is object.__reduce_ex__
        and not hasattr(cls, "__setstate__")
        and not any("__slots__" in klass.__dict__ for klass in cls.__mro__)
    ):
        return None
    getstate = getattr(cls, "__getstate__", None)
    return vars if getstate is _OBJECT_GETSTATE else getstate


def _set_attrs(obj: Any, state: dict) -> None:
    """State setter: assign each attribute in state order.

    Unlike pickle's ``BUILD``, which fills ``obj.__dict__`` and so turns
    it into a per-instance dict, this leaves the attributes as inline
    values, laid out like those of a freshly built instance.  Names are
    interned first, as compiled code's identifiers are: pickle's own
    copies would otherwise become the class's shared keys and the
    interpreter's type attribute cache entries, and stay alive there
    after the restore.
    """
    setattr_ = object.__setattr__
    intern = sys.intern
    for name, value in state.items():
        setattr_(obj, intern(name), value)


class SnapshotPickler(pickle.Pickler):
    """Pickler that rebuilds plain instances attribute by attribute and
    rejects generators.

    Functions pickle by reference, as pickle does them; one that cannot
    be found under its qualified name (a local function, a lambda, a
    closure) fails the capture.  A reference picks up code fixes on
    restore, which is fine, because a layout change bumps
    :data:`FORMAT_VERSION` and so invalidates old checkpoints.
    """

    def reducer_override(self, obj):
        cls = type(obj)
        getstate = _state_getter(cls)
        if getstate is not None:
            state = getstate(obj)
            if type(state) is dict:
                # The default reduction (``NEWOBJ``), with the state
                # applied by _set_attrs instead of ``BUILD``.
                return (copyreg.__newobj__, (cls,), state, None, None, _set_attrs)
            return NotImplemented
        if isinstance(obj, types.GeneratorType):
            raise pickle.PicklingError(
                f"cannot snapshot live generator {obj!r}: generator frames "
                "are interpreter state; schedule callbacks instead"
            )
        return NotImplemented


def capture(root: Any) -> bytes:
    """Serialize the simulation graph rooted at ``root`` to bytes.

    ``root`` is typically a tuple of every top-level object the resumed
    run needs (cluster, observatory, ...); shared references inside it
    are preserved, so the restored graph has the same shape.
    """
    buf = io.BytesIO()
    try:
        SnapshotPickler(buf, protocol=_PICKLE_PROTOCOL).dump(root)
    except SnapshotError:
        raise
    except (
        pickle.PicklingError, SimulationError, AttributeError, TypeError,
        ValueError,
    ) as exc:
        raise SnapshotError(f"cannot capture simulation state: {exc}") from exc
    return buf.getvalue()


def restore(blob: bytes) -> Any:
    """Rebuild the simulation graph from :func:`capture` output.

    The result is a deep, independent copy: restoring twice yields two
    simulations that can be driven divergently (that is the point).
    """
    try:
        return pickle.loads(blob)
    except Exception as exc:
        raise SnapshotError(f"cannot restore snapshot: {exc}") from exc


def state_digest(obj: Snapshottable) -> str:
    """Stable short hash of a component's ``snapshot_state()``.

    Compared across a capture/restore round trip to certify that no
    deterministic state was dropped; also cheap enough to log.
    """
    state = obj.snapshot_state()
    payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return sha256(payload.encode()).hexdigest()[:16]


def rng_digest(rng) -> str:
    """Short stable hash of a ``random.Random`` position."""
    return sha256(repr(rng.getstate()).encode()).hexdigest()[:12]
