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
cycles.  Only two constructs need help:

* **Closures and lambdas** are not picklable by reference.  The hot
  paths schedule only bound methods and ``__slots__`` callables (see the
  fabric's ``_DeliverCb``), but defensive coverage matters more than
  style: :class:`SnapshotPickler` serializes any non-importable function
  by value — ``marshal``-ed code object plus captured cell contents —
  and rebuilds it against its module's globals on load.
* **Live generators** cannot be serialized at all (their frame is
  interpreter state).  The live simulation graph does not contain any
  (the generator-based :mod:`repro.sim.process` framework is unused by
  the cluster assembly); if one ever leaks in, capture fails loudly
  rather than producing a checkpoint that cannot resume.

Checkpoints are an internal format: they are only valid for the exact
interpreter and code that wrote them, which is why
:func:`checkpoint_digest` folds in the snapshot :data:`FORMAT_VERSION`,
the Python version and the marshal format (see the warm-start cache for
the visible-invalidation behaviour built on top).

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

import hashlib
import importlib
import io
import json
import marshal
import pickle
import pickletools
import sys
import types
from typing import Any, Protocol, runtime_checkable

from .engine import SimulationError

#: Bump when the snapshot encoding (this module) or any snapshotted
#: component changes its pickled layout in a way that invalidates
#: existing checkpoints.  Folded into :func:`checkpoint_digest`, so stale
#: checkpoints miss instead of resuming wrongly.
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
FORMAT_VERSION = 11

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


def _rebuild_function(
    code_bytes: bytes,
    module: str,
    name: str,
    defaults,
    kwdefaults,
    n_cells,
):
    """Reconstruct the *skeleton* of a by-value-pickled function.

    Closure cells are created empty and filled afterwards by
    :func:`_fill_closure` (the reduce tuple's state setter).  The
    two-phase build lets the pickler memoize the function object before
    its closure values are serialized, so self-referential closures — a
    local function whose cell holds the function itself — round-trip
    instead of recursing forever.
    """
    code = marshal.loads(code_bytes)
    mod = importlib.import_module(module)
    if n_cells is None:
        cells = None
    else:
        cells = tuple(types.CellType() for _ in range(n_cells))
    fn = types.FunctionType(code, mod.__dict__, name, defaults, cells)
    if kwdefaults:
        fn.__kwdefaults__ = kwdefaults
    return fn


def _fill_closure(fn, closure_values) -> None:
    """State setter: pour captured values into the skeleton's cells."""
    if closure_values is not None:
        for cell, value in zip(fn.__closure__, closure_values):
            cell.cell_contents = value


def _lookup_qualname(module: str, qualname: str):
    """The object ``module.qualname`` refers to, or None."""
    try:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        return obj
    except Exception:
        return None


class SnapshotPickler(pickle.Pickler):
    """Pickler that serializes closures by value and rejects generators.

    Importable functions still pickle by reference (cheap, and they pick
    up code fixes on restore — which is fine, because the checkpoint
    digest already invalidates checkpoints across code changes).  Only
    functions that *cannot* be found under their qualified name — local
    functions, lambdas, decorated wrappers — are encoded by value.
    """

    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType):
            if _lookup_qualname(obj.__module__, obj.__qualname__) is obj:
                return NotImplemented  # importable: pickle by reference
            closure = obj.__closure__
            if closure is None:
                values = None
            else:
                values = tuple(cell.cell_contents for cell in closure)
            return (
                _rebuild_function,
                (
                    marshal.dumps(obj.__code__),
                    obj.__module__,
                    obj.__name__,
                    obj.__defaults__,
                    obj.__kwdefaults__,
                    None if closure is None else len(closure),
                ),
                values,  # state, applied after memoization ...
                None,
                None,
                _fill_closure,  # ... by this setter (see _rebuild_function)
            )
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
    except (pickle.PicklingError, SimulationError, TypeError, ValueError) as exc:
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
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def rng_digest(rng) -> str:
    """Short stable hash of a ``random.Random`` position."""
    return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:12]


def checkpoint_digest(*parts: Any) -> str:
    """Content address for a checkpoint derived from ``parts``.

    Always folds in everything that changes the meaning of the stored
    bytes: the snapshot format, the interpreter (marshal output is
    version-specific) — callers add the simulation inputs (version name,
    settings cache key, seed).
    """
    hasher = hashlib.sha256()
    hasher.update(
        f"snapshot-v{FORMAT_VERSION}"
        f"|py{sys.version_info[0]}.{sys.version_info[1]}"
        f"|marshal{marshal.version}".encode()
    )
    for part in parts:
        hasher.update(b"\x00")
        hasher.update(repr(part).encode())
    return hasher.hexdigest()


def blob_summary(blob: bytes) -> dict:
    """Size/opcode statistics for a snapshot blob (diagnostic aid)."""
    n_ops = 0
    for _op, _arg, _pos in pickletools.genops(blob):
        n_ops += 1
    return {"bytes": len(blob), "pickle_ops": n_ops}
