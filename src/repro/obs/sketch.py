"""Streaming quantile sketches for per-request latency (stdlib only).

The paper reports availability and throughput averages; what makes the
TCP-vs-VIA comparison *interpretable* is the tail — the p95/p99/p999 of
client-observed request latency per stage, where TCP's retransmission
backoff and VIA's fail-fast rejections pull in opposite directions.
Recording every latency sample per cell would bloat the result store
(a standard-scale cell completes tens of thousands of requests), so the
observatory folds each sample into a fixed-size streaming sketch
instead.

The estimator is the P² algorithm (Jain & Chlamtac, CACM 1985): five
markers per tracked quantile, updated with a piecewise-parabolic height
adjustment — O(1) memory and time per observation, and fully
deterministic (same sample sequence, same estimate), which keeps
warm/cold and serial/parallel campaign parity intact.  Samples are
folded in batches of at most :data:`FOLD_BATCH`, and always before the
markers are read, so every read sees exactly the state a per-sample
fold would have reached.  The same no-scipy constraint as
:mod:`repro.experiments.repeaters` applies: stdlib ``math`` only.

Accuracy is what P² promises, not an order statistic: a few percent of
the true quantile on smooth distributions, looser on pathological ones.
The hypothesis suite (``tests/obs/test_sketch.py``) pins the envelope
against exact percentiles on synthetic distributions.  Exactness where
it matters is preserved structurally: ``min``/``max`` are exact, and
sketches with five or fewer samples report exact order statistics.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Sequence, Tuple

#: The campaign's standard latency grid: median plus the tails the
#: paper's availability story turns on.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99, 0.999)

#: Samples a sketch buffers before folding them into its marker banks.
#: Every read folds first, so the cap only bounds the deferred work.
FOLD_BATCH = 256


class P2Quantile:
    """One P² marker bank estimating a single quantile ``p``.

    A bank holds marker state only: :meth:`QuantileSketch.observe`
    buffers samples, and :func:`_fold` folds a batch into one bank at a
    time.  :attr:`value` is current only after the owning sketch folded
    its buffer, which every sketch read does first.
    """

    __slots__ = ("p", "_q", "_n", "_np", "_dn", "count")

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        self.count = 0
        self._q: List[float] = []  # marker heights
        self._n: List[float] = []  # marker positions (1-based)
        self._np: List[float] = []  # desired positions
        self._dn: List[float] = []  # desired position increments

    @property
    def value(self) -> float:
        """Current estimate (exact order statistic below six samples)."""
        if self.count == 0:
            return float("nan")
        q = self._q
        if self.count <= 5:
            # Nearest-rank on the sorted buffer.
            idx = max(0, min(len(q) - 1, round(self.p * (len(q) - 1))))
            return q[idx]
        return q[2]


def _fold(m: P2Quantile, xs: List[float]) -> None:
    """Fold the samples ``xs``, in order, into marker bank ``m``.

    This is the latency hot path, so the bank's markers live in locals
    for the whole batch and the update is unrolled over the five
    markers; every float operation happens in the order of the textbook
    per-sample loop (``tests/obs/test_sketch.py`` keeps that loop as the
    oracle and checks the two agree bit for bit).
    """
    count = m.count
    q = m._q
    i = 0
    while count < 5 and i < len(xs):
        count += 1
        q.append(xs[i])
        q.sort()
        i += 1
        if count == 5:
            p = m.p
            m._n = [1.0, 2.0, 3.0, 4.0, 5.0]
            m._np = [1.0, 1 + 2 * p, 1 + 4 * p, 3 + 2 * p, 5.0]
            m._dn = [0.0, p / 2, p, (1 + p) / 2, 1.0]
    m.count = count + len(xs) - i
    if i == len(xs):
        return
    q0, q1, q2, q3, q4 = q
    n0, n1, n2, n3, n4 = m._n
    np_ = m._np
    np1, np2, np3, np4 = np_[1], np_[2], np_[3], np_[4]
    # dn[0] is 0.0: the lowest marker's desired position never moves.
    _, dn1, dn2, dn3, dn4 = m._dn
    for x in xs[i:] if i else xs:
        # Locate the cell x falls in, bump the outer markers and the
        # positions of every marker above the cell.  ``not x >= q1``
        # (rather than ``x < q1``) keeps the loop form's cell for NaN.
        if x < q0:
            q0 = x
            n1 += 1.0
            n2 += 1.0
            n3 += 1.0
        elif x >= q4:
            q4 = x
        elif not x >= q1:
            n1 += 1.0
            n2 += 1.0
            n3 += 1.0
        elif not x >= q2:
            n2 += 1.0
            n3 += 1.0
        elif not x >= q3:
            n3 += 1.0
        n4 += 1.0
        np1 += dn1
        np2 += dn2
        np3 += dn3
        np4 += dn4

        # Nudge the three middle markers toward their desired positions:
        # a piecewise-parabolic (P²) height, falling back to linear
        # towards the neighbour in direction s when the parabola would
        # leave the bracketing cell.
        d = np1 - n1
        if (d >= 1.0 and n2 - n1 > 1.0) or (d <= -1.0 and n0 - n1 < -1.0):
            s = 1.0 if d >= 0 else -1.0
            qp = q1 + s / (n2 - n0) * (
                (n1 - n0 + s) * (q2 - q1) / (n2 - n1)
                + (n2 - n1 - s) * (q1 - q0) / (n1 - n0)
            )
            if q0 < qp < q2:
                q1 = qp
            elif s > 0:
                q1 = q1 + s * (q2 - q1) / (n2 - n1)
            else:
                q1 = q1 + s * (q0 - q1) / (n0 - n1)
            n1 += s
        d = np2 - n2
        if (d >= 1.0 and n3 - n2 > 1.0) or (d <= -1.0 and n1 - n2 < -1.0):
            s = 1.0 if d >= 0 else -1.0
            qp = q2 + s / (n3 - n1) * (
                (n2 - n1 + s) * (q3 - q2) / (n3 - n2)
                + (n3 - n2 - s) * (q2 - q1) / (n2 - n1)
            )
            if q1 < qp < q3:
                q2 = qp
            elif s > 0:
                q2 = q2 + s * (q3 - q2) / (n3 - n2)
            else:
                q2 = q2 + s * (q1 - q2) / (n1 - n2)
            n2 += s
        d = np3 - n3
        if (d >= 1.0 and n4 - n3 > 1.0) or (d <= -1.0 and n2 - n3 < -1.0):
            s = 1.0 if d >= 0 else -1.0
            qp = q3 + s / (n4 - n2) * (
                (n3 - n2 + s) * (q4 - q3) / (n4 - n3)
                + (n4 - n3 - s) * (q3 - q2) / (n3 - n2)
            )
            if q2 < qp < q4:
                q3 = qp
            elif s > 0:
                q3 = q3 + s * (q4 - q3) / (n4 - n3)
            else:
                q3 = q3 + s * (q2 - q3) / (n2 - n3)
            n3 += s
    m._q = [q0, q1, q2, q3, q4]
    m._n = [n0, n1, n2, n3, n4]
    m._np = [np_[0], np1, np2, np3, np4]


class QuantileSketch:
    """A bank of P² estimators plus exact count/min/max/mean.

    ``observe`` is the hot-path entry point — one call per completed
    request: it updates the exact statistics and buffers the sample,
    and every :data:`FOLD_BATCH` samples the buffer is folded into the
    marker banks, one bank at a time.  Each read (``quantile``,
    ``to_dict``, ``copy``, ``snapshot_state``) folds the buffer first.
    ``to_dict`` emits the JSON-ready digest stored in cell payloads and
    aggregated by the campaign report.
    """

    __slots__ = ("quantiles", "_marks", "_pending", "count", "sum", "min", "max")

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES):
        self.quantiles: Tuple[float, ...] = tuple(quantiles)
        self._marks = [P2Quantile(p) for p in self.quantiles]
        self._pending: List[float] = []  # observed, not yet folded
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, x: float) -> None:
        self.count += 1
        self.sum += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        pending = self._pending
        pending.append(x)
        if len(pending) >= FOLD_BATCH:
            self._flush()

    def _flush(self) -> None:
        """Fold the buffered samples into every marker bank."""
        pending = self._pending
        if pending:
            for mark in self._marks:
                _fold(mark, pending)
            pending.clear()

    def copy(self) -> "QuantileSketch":
        """An independent sketch in exactly this one's state."""
        self._flush()
        return copy.deepcopy(self)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def quantile(self, p: float) -> float:
        self._flush()
        for mark in self._marks:
            if mark.p == p:
                return mark.value
        raise KeyError(f"quantile {p} not tracked (have {self.quantiles})")

    @staticmethod
    def _label(p: float) -> str:
        # 0.5 -> "p50", 0.999 -> "p999": the report/dashboard key style
        # (percent, with the decimal point dropped for sub-percent tails).
        percent = f"{p * 100:.6f}".rstrip("0").rstrip(".")
        return "p" + percent.replace(".", "")

    def to_dict(self) -> dict:
        self._flush()
        out: Dict[str, object] = {
            "count": self.count,
            "mean": self.mean if self.count else None,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }
        for mark in self._marks:
            out[self._label(mark.p)] = mark.value if self.count else None
        return out

    # -- snapshot support (see repro.sim.snapshot) ---------------------
    def snapshot_state(self) -> dict:
        """Full marker state, so warm/cold digests agree mid-stream."""
        self._flush()
        return {
            "quantiles": list(self.quantiles),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "marks": [
                {
                    "q": list(m._q),
                    "n": list(m._n),
                    "np": list(m._np),
                    "dn": list(m._dn),
                    "count": m.count,
                }
                for m in self._marks
            ],
        }
