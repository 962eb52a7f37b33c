"""Deterministic, named random-number streams.

Every stochastic component (client arrival process, trace generation, fault
schedules, link loss) draws from its own named stream so that changing one
component's consumption pattern does not perturb the others.  Streams are
derived from a master seed with a stable hash, making whole experiments
reproducible from a single integer.
"""

from __future__ import annotations

import random
from typing import Dict

# The builtin SHA-256 rather than ``hashlib``'s, which loads OpenSSL
# (about 3.7 MB of resident memory) into every process that hashes.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256


def derive_seed(master_seed: int, name: str) -> int:
    """Stable 64-bit seed for stream ``name`` under ``master_seed``.

    Uses SHA-256 rather than ``hash()`` because the latter is salted per
    interpreter run.
    """
    digest = sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RngRegistry:
    """Factory and cache of named :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose master seed is derived from ``name``.

        Useful for giving each experiment repetition an independent but
        reproducible universe of streams.
        """
        return RngRegistry(derive_seed(self.master_seed, name))

    def snapshot_state(self) -> dict:
        """Deterministic-state digest input (see repro.sim.snapshot).

        Each stream's Mersenne Twister position is hashed, so a restored
        registry that would produce even one different draw produces a
        different digest.
        """
        from .snapshot import rng_digest

        return {
            "master_seed": self.master_seed,
            "streams": {
                name: rng_digest(rng) for name, rng in sorted(self._streams.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RngRegistry seed={self.master_seed}"
            f" streams={sorted(self._streams)}>"
        )
