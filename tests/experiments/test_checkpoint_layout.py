"""Checkpoint layouts change only together with the snapshot format.

A warm-start checkpoint is the pickled object graph of a warm cluster,
so adding, removing or renaming a slot or attribute of any ``repro``
class in that graph changes what a checkpoint holds.  Checkpoints of
the old layout must then miss instead of resuming wrongly, which only
happens when :data:`repro.sim.snapshot.FORMAT_VERSION` is bumped.  This
test digests the class and attribute names of every ``repro`` object a
SMOKE warm checkpoint pickles and compares the digest with the one
recorded for the current format version.
"""

from __future__ import annotations

import enum
import hashlib
import io

from repro.experiments.settings import Phase1Settings
from repro.experiments.warmstart import simulate_warm
from repro.press.cluster import SMOKE_SCALE
from repro.sim import snapshot
from repro.sim.ids import global_id_state

#: FORMAT_VERSION -> layout digest of the warm checkpoints it writes.
#: When this test fails after a change to a checkpointed class, bump
#: FORMAT_VERSION (with a note in repro/sim/snapshot.py) and record the
#: digest the failure reports under the new version.
LAYOUT_DIGESTS = {
    11: "4314246d8cecc765",
    12: "66b64edd7c68ff0c",
    13: "66b64edd7c68ff0c",
}

SETTINGS = Phase1Settings(scale=SMOKE_SCALE, seed=5, warm=15.0, replications=1)
VERSIONS = ("TCP-PRESS", "VIA-PRESS-5")


class _LayoutPickler(snapshot.SnapshotPickler):
    """The checkpoint pickler, noting each ``repro`` object it writes."""

    def __init__(self, file, layouts):
        super().__init__(file)
        self.layouts = layouts

    def reducer_override(self, obj):
        cls = type(obj)
        if cls.__module__.startswith("repro."):
            names = set()
            if not isinstance(obj, enum.Enum):  # pickled by name
                for klass in cls.__mro__:
                    slots = klass.__dict__.get("__slots__", ())
                    names.update((slots,) if isinstance(slots, str) else slots)
                names.update(getattr(obj, "__dict__", ()))
                names.update(getattr(cls, "_fields", ()))
            key = f"{cls.__module__}.{cls.__qualname__}"
            self.layouts.setdefault(key, set()).update(names)
        return super().reducer_override(obj)


def checkpoint_layout() -> str:
    """``class: attr,attr`` lines of every ``repro`` object pickled by
    the warm checkpoints of TCP-PRESS and VIA-PRESS-5."""
    layouts = {}
    for version in VERSIONS:
        cluster, obs = simulate_warm(version, SETTINGS, keep_events=False)
        _LayoutPickler(io.BytesIO(), layouts).dump(
            (cluster, obs, global_id_state())
        )
    return "\n".join(
        f"{key}: {','.join(sorted(names))}" for key, names in sorted(layouts.items())
    )


def test_checkpoint_layout_is_recorded_for_the_format_version():
    layout = checkpoint_layout()
    digest = hashlib.sha256(layout.encode()).hexdigest()[:16]
    version = snapshot.FORMAT_VERSION
    assert LAYOUT_DIGESTS.get(version) == digest, (
        f"the warm checkpoint layout digests to {digest}, but "
        f"FORMAT_VERSION {version} recorded {LAYOUT_DIGESTS.get(version)!r}: "
        "a checkpointed class changed its slots or attributes; bump "
        "FORMAT_VERSION and record the new digest under it.\n" + layout
    )
