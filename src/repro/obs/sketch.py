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
adjustment — O(1) memory and time per observation, no buffers beyond
the first five samples, and fully deterministic (same sample sequence,
same estimate), which keeps warm/cold and serial/parallel campaign
parity intact.  The same no-scipy constraint as
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


class P2Quantile:
    """One P² marker bank estimating a single quantile ``p``.

    A bank holds marker state only: :meth:`QuantileSketch.observe` folds
    each sample into all of a sketch's banks in one pass (:func:`_fold`).
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


def _parabolic(q: List[float], n: List[float], i: int, s: float) -> float:
    return q[i] + s / (n[i + 1] - n[i - 1]) * (
        (n[i] - n[i - 1] + s)
        * (q[i + 1] - q[i])
        / (n[i + 1] - n[i])
        + (n[i + 1] - n[i] - s)
        * (q[i] - q[i - 1])
        / (n[i] - n[i - 1])
    )


def _linear(q: List[float], n: List[float], i: int, s: float) -> float:
    j = i + int(s)
    return q[i] + s * (q[j] - q[i]) / (n[j] - n[i])


def _adjust(q: List[float], n: List[float], i: int, s: float) -> None:
    """Move middle marker ``i`` one position in direction ``s``.

    Piecewise-parabolic (P²) height, falling back to linear when the
    parabola would leave the bracketing cell.
    """
    qp = _parabolic(q, n, i, s)
    if q[i - 1] < qp < q[i + 1]:
        q[i] = qp
    else:
        q[i] = _linear(q, n, i, s)
    n[i] += s


def _fold(marks, x: float) -> None:
    """Fold ``x`` into every marker bank of ``marks`` in one pass.

    This is the per-request hot path, so the marker update is unrolled
    over constant indices; every float operation happens in the order
    of the textbook loop (``tests/obs/test_sketch.py`` keeps that loop
    as the oracle and checks the two agree bit for bit).
    """
    for m in marks:
        count = m.count + 1
        m.count = count
        q = m._q
        if count <= 5:
            q.append(x)
            q.sort()
            if count == 5:
                p = m.p
                m._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                m._np = [1.0, 1 + 2 * p, 1 + 4 * p, 3 + 2 * p, 5.0]
                m._dn = [0.0, p / 2, p, (1 + p) / 2, 1.0]
            continue
        n = m._n

        # Locate the cell x falls in, bump the outer markers and the
        # positions of every marker above the cell.  ``not x >= q[k]``
        # (rather than ``x < q[k]``) keeps the loop form's cell for NaN.
        if x < q[0]:
            q[0] = x
            n[1] += 1.0
            n[2] += 1.0
            n[3] += 1.0
        elif x >= q[4]:
            q[4] = x
        elif not x >= q[1]:
            n[1] += 1.0
            n[2] += 1.0
            n[3] += 1.0
        elif not x >= q[2]:
            n[2] += 1.0
            n[3] += 1.0
        elif not x >= q[3]:
            n[3] += 1.0
        n[4] += 1.0
        np_, dn = m._np, m._dn
        # dn[0] is 0.0: the lowest marker's desired position never moves.
        np_[1] += dn[1]
        np_[2] += dn[2]
        np_[3] += dn[3]
        np_[4] += dn[4]

        # Nudge the three middle markers toward their desired positions.
        d = np_[1] - n[1]
        if (d >= 1.0 and n[2] - n[1] > 1.0) or (d <= -1.0 and n[0] - n[1] < -1.0):
            _adjust(q, n, 1, 1.0 if d >= 0 else -1.0)
        d = np_[2] - n[2]
        if (d >= 1.0 and n[3] - n[2] > 1.0) or (d <= -1.0 and n[1] - n[2] < -1.0):
            _adjust(q, n, 2, 1.0 if d >= 0 else -1.0)
        d = np_[3] - n[3]
        if (d >= 1.0 and n[4] - n[3] > 1.0) or (d <= -1.0 and n[2] - n[3] < -1.0):
            _adjust(q, n, 3, 1.0 if d >= 0 else -1.0)


class QuantileSketch:
    """A bank of P² estimators plus exact count/min/max/mean.

    ``observe`` is the hot-path entry point — one call per completed
    request — and costs a handful of float compares per tracked
    quantile.  ``to_dict`` emits the JSON-ready digest stored in cell
    payloads and aggregated by the campaign report.
    """

    __slots__ = ("quantiles", "_marks", "count", "sum", "min", "max")

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES):
        self.quantiles: Tuple[float, ...] = tuple(quantiles)
        self._marks = [P2Quantile(p) for p in self.quantiles]
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
        _fold(self._marks, x)

    def copy(self) -> "QuantileSketch":
        """An independent sketch in exactly this one's state."""
        return copy.deepcopy(self)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def quantile(self, p: float) -> float:
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
