"""The paper's claims, each written once.

One record per checkable claim: the exhibit that tests it, the paper's
statement and value, the quantity measured from the exhibit's result,
and the bound asserted on that quantity.  Each exhibit bench runs its
experiment, prints its rows and calls :func:`check`, which asserts every
row of that exhibit.  A run of the exhibit suite that measured and
passed every row rewrites the generated blocks of EXPERIMENTS.md and
README.md (:func:`write_docs`, called from ``conftest.py``);
``tests/test_claims.py`` holds the committed blocks' static columns to
this table.

A row's ``measure`` returns ``{label: value}``; the label is empty for a
single value.  Values are numbers, booleans, ``None`` (nothing to
measure, which fails every bound), tuples (for :class:`Rising`) or
replicate bands (anything with ``value``, ``half_width`` and ``n``).  A
row that ranges over groups (Figure 6's two rates) returns
``{group: {label: value}}`` and its bound holds in each group.
The ✓ column says whether every value lies inside the paper's own band
(``paper_band``); a row without one is the paper's claim made
checkable, so its bound is the band.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union

from repro.core.faultload import DAY, MONTH
from repro.press.config import PAPER_TABLE1_THROUGHPUT

ROOT = Path(__file__).resolve().parents[1]

TCP = ("TCP-PRESS", "TCP-PRESS-HB")
VIA = ("VIA-PRESS-0", "VIA-PRESS-3", "VIA-PRESS-5")
RATES = ((DAY, "1/day"), (MONTH, "1/month"))


def _num(x):
    return getattr(x, "value", x)


def _limit(x: float, spec: str) -> str:
    if spec == "yes":
        return "yes" if x else "no"
    return format(x, "g")


def _groups(entries: Dict[str, Any]):
    """``[(group, {label: value})]``: one unnamed group for a flat row."""
    if any(isinstance(v, dict) for v in entries.values()):
        return list(entries.items())
    return [("", entries)]


def show(x, spec: str) -> str:
    """One measured value as the block prints it."""
    if x is None:
        return "none"
    if spec == "yes":
        return "yes" if x else "no"
    if isinstance(x, tuple):
        return " < ".join(show(v, spec) for v in x)
    if hasattr(x, "half_width"):
        text = format(x.value, spec)
        return f"{text} ± {x.half_width:{spec}}" if x.n >= 2 else text
    return format(x, spec)


@dataclass(frozen=True)
class Range:
    """Every checked value lies between ``lo`` and ``hi`` (None: no
    limit), inclusive when ``closed``.  With ``ref`` the limits are
    factors of reference entries of the same row: ``lo`` scales the
    largest reference, ``hi`` the smallest, and only the other entries
    are checked."""

    lo: Optional[float] = None
    hi: Optional[float] = None
    closed: bool = False
    ref: Tuple[str, ...] = ()

    def misses(self, entries: Dict[str, Any]) -> Dict[str, str]:
        """``{label: "above" | "below" | "missing"}`` per value out of range."""
        out = {}
        for group, values in _groups(entries):
            refs = [_num(values[r]) for r in self.ref]
            lo, hi = self.lo, self.hi
            if refs:
                lo = None if lo is None else lo * max(refs)
                hi = None if hi is None else hi * min(refs)
            for label, value in values.items():
                if label in self.ref:
                    continue
                x = _num(value)
                if x is None:
                    miss = "missing"
                elif lo is not None and (x < lo if self.closed else x <= lo):
                    miss = "below"
                elif hi is not None and (x > hi if self.closed else x >= hi):
                    miss = "above"
                else:
                    continue
                out[f"{group} {label}".strip()] = miss
        return out

    def limit_text(self, limit: float, pick: str, spec: str) -> str:
        if not self.ref:
            return _limit(limit, spec)
        name = self.ref[0] if len(self.ref) == 1 else (
            f"{pick}({', '.join(self.ref)})"
        )
        return name if limit == 1 else f"{limit:g} × {name}"

    def text(self, quantity: str, spec: str) -> str:
        lo = None if self.lo is None else self.limit_text(self.lo, "max", spec)
        hi = None if self.hi is None else self.limit_text(self.hi, "min", spec)
        op = "≤" if self.closed else "<"
        if lo is not None and lo == hi:
            return f"{quantity} = {lo}"
        if lo is not None and hi is not None:
            return f"{lo} {op} {quantity} {op} {hi}"
        if lo is not None:
            return f"{quantity} {'≥' if self.closed else '>'} {lo}"
        return f"{quantity} {op} {hi}"

    def direction_text(self, direction: str, spec: str) -> str:
        if direction == "above":
            return f"above {self.limit_text(self.hi, 'min', spec)}"
        if direction == "below":
            return f"below {self.limit_text(self.lo, 'max', spec)}"
        return direction


@dataclass(frozen=True)
class Rising:
    """Every value is a tuple whose elements strictly increase."""

    def misses(self, entries: Dict[str, Any]) -> Dict[str, str]:
        return {
            label: "not rising"
            for label, chain in entries.items()
            if None in chain or any(a >= b for a, b in zip(chain, chain[1:]))
        }

    def text(self, quantity: str, spec: str) -> str:
        return f"{quantity} strictly rising"

    def direction_text(self, direction: str, spec: str) -> str:
        return direction


YES = Range(1, 1, closed=True)
NO = Range(0, 0, closed=True)


def equal(value: float) -> Range:
    return Range(value, value, closed=True)


@dataclass(frozen=True)
class Claim:
    """One row: ``measure`` maps the exhibit's result to the values that
    ``bound`` must hold; ``spec`` formats them (``"yes"`` for booleans);
    ``headline`` rows also go to the README."""

    id: str
    exhibit: str
    statement: str
    paper: str
    quantity: str
    measure: Callable[[Any], Dict[str, Any]]
    bound: Union[Range, Rising]
    spec: str = ".2f"
    paper_band: Optional[Range] = None
    headline: bool = False

    def bound_text(self) -> str:
        return self.bound.text(self.quantity, self.spec)

    def shown(self, entries: Dict[str, Any]) -> str:
        groups = []
        for group, values in _groups(entries):
            text = ("; " if not group else ", ").join(
                f"{label} {show(v, self.spec)}" if label else show(v, self.spec)
                for label, v in values.items()
            )
            groups.append(f"{group}: {text}" if group else text)
        return "; ".join(groups)

    def status(self, entries: Dict[str, Any]) -> str:
        """✓ when every value lies inside the paper's band, else how many
        lie outside it and on which side; — for a claim the paper does
        not make (an extension)."""
        if self.paper == "—":
            return "—"
        band = self.paper_band or self.bound
        misses = band.misses(entries)
        if not misses:
            return "✓"
        checked = sum(
            len(values) - len(getattr(band, "ref", ()))
            for _, values in _groups(entries)
        )
        if checked == 1:
            return f"✗: {band.direction_text(*misses.values(), self.spec)}"
        counts: Dict[str, int] = {}
        for direction in misses.values():
            counts[direction] = counts.get(direction, 0) + 1
        detail = ", ".join(
            f"{n} of {checked} {band.direction_text(d, self.spec)}"
            for d, n in counts.items()
        )
        return f"partly: {detail}" if len(misses) < checked else f"✗: {detail}"


# -- measures -----------------------------------------------------------------
HB = ("TCP-PRESS-HB",)
HB_VIA5 = ("TCP-PRESS-HB", "VIA-PRESS-5")


def _latency(record) -> Optional[float]:
    if record.detection_at is None:
        return None
    return record.detection_at - record.injected_at


def _share(record, start: float, end: float) -> float:
    """Mean rate over [start, end), over Tn."""
    return record.timeline.mean_rate(start, end) / record.normal_throughput


def _since(offset: float, until: Optional[float] = None):
    """Share from ``offset`` s after injection to ``until`` s after it,
    or to the repair."""

    def measure(r):
        end = r.cleared_at if until is None else r.injected_at + until
        return _share(r, r.injected_at + offset, end)

    return measure


def _fault_share(record) -> float:
    """Mean rate while the fault is active, over Tn."""
    return _share(record, record.injected_at, record.cleared_at)


def _after_detection(record) -> Optional[float]:
    """Mean rate from 5 s after detection to repair, over Tn."""
    if record.detection_at is None:
        return None
    return _share(record, record.detection_at + 5, record.cleared_at)


def _stranded(record) -> bool:
    return not record.recovered_fully and record.reset_at is not None


def fail_fasts(record) -> int:
    return sum(1 for a in record.timeline.annotations if a.label == "fail-fast")


def _each(versions, fn, figure=None, label=None):
    """``fn`` of each version's record of a timeline figure (of
    ``figures[figure]`` for Figure 4 and the ideal layer); ``label``
    replaces the version name of a one-version row."""

    def measure(result):
        records = (result if figure is None else result[figure]).records
        if label is not None:
            return {label: fn(records[versions[0]])}
        return {v: fn(records[v]) for v in versions}

    return measure


def _one(version, fn):
    return _each((version,), fn, label="")


def _key(*path):
    """The value at ``out[path[0]][path[1]]...`` of an ablation's result."""

    def measure(out):
        for key in path:
            out = out[key]
        return {"": out}

    return measure


def _table1_order(rows):
    measured = {r.version: r.measured for r in rows}
    return {"": tuple(measured[v] for v in ("TCP-PRESS",) + VIA)}


def _table1_ratio(rows):
    measured = {r.version: r.measured for r in rows}
    paper = PAPER_TABLE1_THROUGHPUT
    return {
        v: (measured[v] / measured["TCP-PRESS"]) / (p / paper["TCP-PRESS"])
        for v, p in paper.items()
    }


def _figure6(field: str):
    """``field`` of every version's Figure 6 row, grouped by rate."""

    def measure(rows):
        by = {(r.version, r.app_mttf): r for r in rows}
        return {
            label: {v: getattr(by[(v, mttf)], field) for v in TCP + VIA}
            for mttf, label in RATES
        }

    return measure


def _aa_rising(rows):
    by = {(r.version, r.app_mttf): r for r in rows}
    return {
        v: tuple(by[(v, mttf)].availability for mttf, _ in RATES)
        for v in ("TCP-PRESS", "VIA-PRESS-5")
    }


def _sensitivity(rate: str):
    return lambda fig: {
        "TCP-PRESS-HB": fig.tcp["TCP-PRESS-HB"],
        **{v: fig.via[rate][v] for v in VIA},
    }


def _rising(*rates):
    return lambda fig: {
        v: tuple(fig.via[rate][v] for rate in rates) for v in VIA
    }


def _below_hb(fig):
    p_hb = fig.tcp["TCP-PRESS-HB"]
    return {"": sum(1 for p in fig.via["combined"].values() if p < p_hb)}


def _mean_crossover(bands):
    values = [b.value for b in bands.values()]
    return {"": sum(values) / len(values)}


def _peaks(versus):
    return lambda out: {v: out["peak"][v] for v in (versus, "IDEAL-PRESS")}


def _bad_params(version, fn):
    return lambda out: {
        f: fn(out[f].records[version]) for f in ("null-pointer", "off-by-size")
    }


# -- the table ------------------------------------------------------------------
CLAIMS: Tuple[Claim, ...] = (
    Claim("t1.order", "Table 1",
          "peak throughput rises TCP-PRESS < VIA-PRESS-0 < VIA-PRESS-3 < VIA-PRESS-5",
          "4965 < 6031 < 6221 < 7058 req/s", "req/s",
          _table1_order, Rising(), ".0f"),
    Claim("t1.ratio", "Table 1", "near-peak throughput relative to TCP-PRESS",
          "1.00 / 1.00 / 1.21 / 1.25 / 1.42",
          "measured ratio to TCP-PRESS / paper's",
          _table1_ratio, Range(0.92, 1.08, closed=True), ".3f", headline=True),
    # Figure 2: transient link failure
    Claim("f2.tcp-blind", "Figure 2",
          "TCP-PRESS never reconfigures during a link fault",
          "no detection", "TCP-PRESS detected the fault",
          _one("TCP-PRESS", lambda r: r.detection_at is not None), NO, "yes"),
    Claim("f2.tcp-stall", "Figure 2", "TCP-PRESS stalls to ~0 for the whole fault",
          "~0 req/s", "TCP-PRESS rate from +15 s to repair / Tn",
          _one("TCP-PRESS", _since(15)), Range(hi=0.15),
          headline=True),
    Claim("f2.tcp-resumes", "Figure 2",
          "TCP-PRESS resumes after the link is repaired",
          "full recovery", "TCP-PRESS recovered fully",
          _one("TCP-PRESS", lambda r: r.recovered_fully), YES, "yes"),
    Claim("f2.hb-detect", "Figure 2",
          "TCP-PRESS-HB splinters 3+1 after 3 missed heartbeats",
          "15 s", "TCP-PRESS-HB detection latency (s)",
          _one("TCP-PRESS-HB", _latency), Range(10.0, 25.0, closed=True), ".1f"),
    Claim("f2.hb-splinter", "Figure 2",
          "TCP-PRESS-HB does not re-merge; the operator must reset it",
          "operator reset", "TCP-PRESS-HB partitioned until an operator reset",
          _one("TCP-PRESS-HB", _stranded), YES, "yes"),
    Claim("f2.via-detect", "Figure 2", "VIA splinters 3+1 almost instantaneously",
          "almost instantaneous", "VIA-PRESS-5 detection latency (s)",
          _one("VIA-PRESS-5", _latency), Range(hi=2.0), ".1f", headline=True),
    Claim("f2.via-dip", "Figure 2",
          "VIA keeps serving at the 3-node level during the fault",
          "minor dip", "VIA-PRESS-5 rate during the fault / Tn",
          _one("VIA-PRESS-5", _fault_share), Range(lo=0.6)),
    Claim("f2.via-splinter", "Figure 2",
          "VIA does not re-merge after the link heals",
          "stays split", "VIA-PRESS-5 recovered fully",
          _one("VIA-PRESS-5", lambda r: r.recovered_fully), NO, "yes"),
    # Figure 3: node crash
    Claim("f3.tcp-stall", "Figure 3",
          "TCP-PRESS grinds to a halt while the node is down",
          "~0 req/s", "TCP-PRESS rate from +15 s to +55 s / Tn",
          _one("TCP-PRESS", _since(15, 55)), Range(hi=0.2)),
    Claim("f3.tcp-stranded", "Figure 3",
          "the rebooted TCP-PRESS node's rejoin is disregarded until the operator resets",
          "stranded singleton", "TCP-PRESS partitioned until an operator reset",
          _one("TCP-PRESS", _stranded), YES, "yes", headline=True),
    Claim("f3.three-node", "Figure 3",
          "TCP-PRESS-HB and VIA run 3-node during the outage",
          "3-node level", "rate from +20 s to +55 s / Tn",
          _each(HB_VIA5, _since(20, 55)), Range(lo=0.5)),
    Claim("f3.rejoin", "Figure 3",
          "TCP-PRESS-HB and VIA re-integrate the rebooted node by themselves",
          "automatic rejoin", "rejoined and recovered fully",
          _each(HB_VIA5, lambda r: r.recovered_fully and r.rejoined_at is not None),
          YES, "yes"),
    Claim("f3.via-faster", "Figure 3",
          "VIA detects the crash faster than heartbeats do",
          "VIA first", "VIA-PRESS-5 detection latency (s)",
          _each(HB_VIA5, _latency), Range(hi=1, ref=("TCP-PRESS-HB",)), ".1f"),
    # Figure 4: memory exhaustion
    Claim("f4.tcp-km-stall", "Figure 4",
          "kernel-memory exhaustion drives TCP-PRESS to ~0",
          "~0 req/s", "TCP-PRESS rate from +15 s to repair / Tn",
          _each(("TCP-PRESS",), _since(15), "kernel-memory", ""),
          Range(hi=0.15)),
    Claim("f4.hb-km-splinter", "Figure 4",
          "TCP-PRESS-HB splinters and serves at the 3-node level",
          "3-node level", "TCP-PRESS-HB rate from detection +5 s to repair / Tn",
          _each(("TCP-PRESS-HB",), _after_detection, "kernel-memory", ""),
          Range(lo=0.5)),
    Claim("f4.via-km-immune", "Figure 4",
          "VIA shows no degradation under kernel-memory exhaustion",
          "no impact", "rate during the fault / Tn",
          _each(VIA, _fault_share, "kernel-memory"), Range(lo=0.9), headline=True),
    Claim("f4.pin-immune", "Figure 4",
          "pinnable-memory exhaustion spares TCP and VIA-PRESS-0",
          "no impact", "rate during the fault / Tn",
          _each(("TCP-PRESS", "VIA-PRESS-0"), _fault_share, "memory-pinning"),
          Range(lo=0.9)),
    Claim("f4.pin-via5", "Figure 4",
          "VIA-PRESS-5 sheds pinned cache files and degrades during the pin fault",
          "degrades", "VIA-PRESS-5 rate during the fault / Tn",
          _each(("VIA-PRESS-5",), _fault_share, "memory-pinning", ""),
          Range(hi=0.97), headline=True),
    # Figure 5: NULL pointer passed to send()
    Claim("f5.tcp-efault", "Figure 5",
          "TCP detects the NULL send synchronously (EFAULT) and continues",
          "0 processes lost", "processes lost",
          _each(TCP, fail_fasts), equal(0), "d", headline=True),
    Claim("f5.tcp-no-dip", "Figure 5", "TCP's throughput does not dip",
          "no dip", "rate over the 30 s after injection / Tn",
          _each(TCP, _since(0, 30)), Range(lo=0.85)),
    Claim("f5.via0-one", "Figure 5",
          "VIA-PRESS-0 fail-fasts the process at one endpoint",
          "1 process", "VIA-PRESS-0 processes lost",
          _one("VIA-PRESS-0", fail_fasts), equal(1), "d", headline=True),
    Claim("f5.rdma-two", "Figure 5",
          "remote writes report the error at both endpoints: 2 processes",
          "2 processes", "processes lost",
          _each(VIA[1:], fail_fasts), equal(2), "d", headline=True),
    Claim("f5.recover", "Figure 5",
          "restart and rejoin return every version to normal",
          "all recover", "recovered fully",
          _each(TCP + VIA, lambda r: r.recovered_fully), YES, "yes"),
    # Figure 6: unavailability and performability under one fault load
    Claim("f6.aa-band", "Figure 6", "availability is uniformly terrible",
          "99–99.8%", "AA", _figure6("availability"), Range(0.98, 0.9995),
          ".5f", paper_band=Range(0.99, 0.998, closed=True), headline=True),
    Claim("f6.via-aa", "Figure 6",
          "every VIA version's availability beats both TCP versions' at each rate",
          "VIA above TCP", "VIA AA", _figure6("availability"),
          Range(lo=1, ref=TCP), ".5f", headline=True),
    Claim("f6.p", "Figure 6",
          "performability follows performance: VIA beats both TCP versions at each rate",
          "VIA above TCP", "VIA P", _figure6("performability"),
          Range(lo=1, ref=TCP), ".1f"),
    Claim("f6.aa-rises", "Figure 6",
          "fewer application faults give higher availability",
          "AA at 1/day < 1/month", "AA at 1/day, 1/month",
          _aa_rising, Rising(), ".5f"),
    # Figures 7-10: pessimistic VIA-only fault sources
    Claim("f7.day", "Figure 7",
          "TCP wins when VIA drops packets more often than weekly",
          "TCP above at 1/day", "VIA P at 1/day",
          _sensitivity("1/day"), Range(hi=1, ref=HB), ".1f", headline=True),
    Claim("f7.month", "Figure 7", "VIA wins when drops are rarer than weekly",
          "VIA above at 1/month", "VIA P at 1/month",
          _sensitivity("1/month"), Range(lo=0.95, ref=HB), ".1f"),
    Claim("f7.rising", "Figure 7", "VIA's performability rises as drops get rarer",
          "monotone", "VIA P at 1/day, 1/week, 1/month",
          _rising("1/day", "1/week", "1/month"), Rising(), ".1f"),
    Claim("f8.day", "Figure 8", "TCP wins when VIA has an extra bug daily",
          "TCP above at 1/day", "VIA P at 1/day",
          _sensitivity("1/day"), Range(hi=1, ref=HB), ".1f", headline=True),
    Claim("f8.month", "Figure 8", "VIA is ahead when its extra bugs come monthly",
          "VIA above at 1/month", "VIA P at 1/month",
          _sensitivity("1/month"), Range(lo=0.9, ref=HB), ".1f"),
    Claim("f8.rising", "Figure 8",
          "performability is comparable near one extra bug per week",
          "crossover ≈ 1/week", "VIA P at 1/day, 1/week, 1/month",
          _rising("1/day", "1/week", "1/month"), Rising(), ".1f"),
    Claim("f9.week", "Figure 9", "weekly VIA system crashes hand the win to TCP",
          "TCP above at 1/week", "VIA P at 1/week",
          _sensitivity("1/week"), Range(hi=1, ref=HB), ".1f", headline=True),
    Claim("f9.rising", "Figure 9", "rarer system crashes leave VIA ahead",
          "monotone", "VIA P at 1/week, 1/month, 1/3months",
          _rising("1/week", "1/month", "1/3months"), Rising(), ".1f"),
    Claim("f10.below-hb", "Figure 10",
          "under the combined load two of the three VIA versions fall below TCP-PRESS-HB",
          "2 of 3", "VIA versions below TCP-PRESS-HB",
          _below_hb, Range(lo=2, closed=True), "d",
          paper_band=equal(2), headline=True),
    Claim("f10.no-lead", "Figure 10",
          "the combined load erases VIA's lead over TCP-PRESS-HB",
          "no VIA lead", "VIA P", _sensitivity("combined"),
          Range(hi=1.1, ref=HB), ".1f"),
    Claim("f10.via5-speed", "Figure 10",
          "VIA-PRESS-5's speed keeps it near plain TCP-PRESS",
          "near TCP-PRESS", "VIA-PRESS-5 P",
          lambda fig: {"TCP-PRESS": fig.tcp["TCP-PRESS"],
                       "VIA-PRESS-5": fig.via["combined"]["VIA-PRESS-5"]},
          Range(lo=0.8, ref=("TCP-PRESS",)), ".1f"),
    # §9: the crossover; the result is crossover_bands of the bench campaign
    Claim("x9.each", "§9 crossover",
          "VIA faults must occur at approximately 4× the TCP rate before"
          " performabilities equalize",
          "≈4×", "crossover multiplier",
          dict, Range(2.0, 10.0, closed=True), headline=True),
    Claim("x9.mean", "§9 crossover",
          "the mean crossover over the VIA versions is about 4×",
          "≈4×", "mean multiplier",
          _mean_crossover, Range(0.0, 8.0, closed=True)),
    # §7 ablations
    Claim("abl.prealloc-immune", "§7 ablation: pre-allocation",
          "pre-allocated VIA is immune to kernel-memory exhaustion",
          "no impact", "pre-allocated throughput retained",
          _key("preallocated"), Range(lo=0.9)),
    Claim("abl.dynamic-stalls", "§7 ablation: pre-allocation",
          "with dynamic buffers the fault stalls VIA as it stalls TCP",
          "stalls", "dynamic throughput retained",
          _key("dynamic"), Range(hi=0.75)),
    Claim("abl.prealloc-gap", "§7 ablation: pre-allocation",
          "pre-allocation is what buys the immunity",
          "—", "pre-allocated − dynamic retained",
          lambda out: {"": out["preallocated"] - out["dynamic"]}, Range(lo=0.15)),
    Claim("abl.bytestream-one", "§7 ablation: message boundaries",
          "a byte stream lets one bad send kill a process",
          "1 process", "byte-stream processes lost",
          _key("byte-stream", "fail_fasts"), equal(1), "d"),
    Claim("abl.boundaries-none", "§7 ablation: message boundaries",
          "preserved boundaries confine the damage to one message",
          "0 processes", "boundary-preserving processes lost",
          _key("boundaries", "fail_fasts"), equal(0), "d"),
    Claim("abl.boundaries-avail", "§7 ablation: message boundaries",
          "boundaries cost no availability",
          "—", "boundaries availability",
          lambda out: {k: row["availability"] for k, row in out.items()},
          Range(lo=1, closed=True, ref=("byte-stream",)), ".4f"),
    Claim("abl.hb-rising", "§7 ablation: heartbeat threshold",
          "detection latency grows with the heartbeat threshold",
          "—", "latency (s) at 2, 3, 5 beats",
          lambda out: {"": (out[2], out[3], out[5])}, Rising(), ".1f"),
    Claim("abl.hb-three", "§7 ablation: heartbeat threshold",
          "the paper's 3 beats detect within 15 s plus the heartbeat phase",
          "15 s", "latency at 3 beats (s)",
          _key(3), Range(hi=21.0, closed=True), ".1f"),
    Claim("abl.remerge-stock", "§7 ablation: re-merge (live)",
          "stock PRESS stays partitioned after a link fault",
          "stays split", "stock ends partitioned",
          _key("stock", "partitioned"), YES, "yes"),
    Claim("abl.remerge-auto", "§7 ablation: re-merge (live)",
          "automatic re-merge heals the split without an operator",
          "—", "auto-remerge ends partitioned",
          _key("auto-remerge", "partitioned"), NO, "yes"),
    Claim("abl.remerge-model", "§7 ablation: re-merge (model)",
          "removing stage E never lowers availability",
          "—", "AA gain without stage E",
          lambda out: {v: merged - actual for v, (actual, merged) in out.items()},
          Range(lo=-1e-9, closed=True), ".5f"),
    # Extensions: the §7 ideal layer and the model validation
    Claim("ideal.peak", "§7 ideal layer", "the ideal layer keeps VIA-PRESS-5's peak",
          "—", "IDEAL-PRESS peak (req/s)", _peaks("VIA-PRESS-5"),
          Range(0.95, 1.05, closed=True, ref=("VIA-PRESS-5",)), ".0f"),
    Claim("ideal.peak-tcp", "§7 ideal layer",
          "the ideal layer is well ahead of TCP-PRESS",
          "—", "IDEAL-PRESS peak (req/s)", _peaks("TCP-PRESS"),
          Range(lo=1.3, ref=("TCP-PRESS",)), ".0f"),
    Claim("ideal.no-deaths", "§7 ideal layer",
          "synchronous validation confines bad parameters: no process lost",
          "—", "IDEAL-PRESS processes lost",
          _bad_params("IDEAL-PRESS", fail_fasts), equal(0), "d"),
    Claim("ideal.via5-deaths", "§7 ideal layer",
          "VIA-PRESS-5 loses two processes to the same faults",
          "2 processes", "VIA-PRESS-5 processes lost",
          _bad_params("VIA-PRESS-5", fail_fasts), equal(2), "d"),
    Claim("ideal.recovers", "§7 ideal layer",
          "the ideal layer recovers fully from bad parameters",
          "—", "IDEAL-PRESS recovered fully",
          _bad_params("IDEAL-PRESS", lambda r: r.recovered_fully), YES, "yes"),
    Claim("ideal.km-immune", "§7 ideal layer",
          "pre-allocation keeps the ideal layer immune to kernel-memory faults",
          "—", "IDEAL-PRESS rate during the fault / Tn",
          _each(("IDEAL-PRESS",), _fault_share, "kernel-memory", ""),
          Range(lo=0.9)),
    Claim("val.sequential", "model validation: sequential",
          "the additive model predicts a sequential fault roster",
          "—", "error / unavailability",
          lambda results: {v: r.relative_error for v, r in results.items()},
          Range(hi=0.6)),
    Claim("val.monte-carlo", "model validation: Monte Carlo",
          "the model predicts random overlapping faults",
          "—", "simulated unavailability",
          lambda r: {"predicted": 1 - r.predicted_availability,
                     "simulated": 1 - r.simulated_availability},
          Range(0.4, 2.5, ref=("predicted",)), ".4f"),
)


# -- checking -----------------------------------------------------------------
#: ``{claim id: entries}`` of every row checked in this process.
MEASURED: Dict[str, Dict[str, Any]] = {}


def check(exhibit: str, result) -> None:
    """Measure and assert every row of ``exhibit`` on its ``result``.

    Fails with one line per row out of bound, naming the exhibit, the
    statement, the bound and the measured value."""
    rows = [c for c in CLAIMS if c.exhibit == exhibit]
    if not rows:
        raise KeyError(f"no claims for exhibit {exhibit!r}")
    failures = []
    for claim in rows:
        entries = claim.measure(result)
        MEASURED[claim.id] = entries
        if claim.bound.misses(entries):
            failures.append(
                f"{claim.id} ({exhibit}): {claim.statement}; bound"
                f" {claim.bound_text()}; measured {claim.shown(entries)}"
            )
    if failures:
        raise AssertionError("\n".join(failures))


# -- the generated blocks -------------------------------------------------------
def _row(cells) -> str:
    for cell in cells:
        if "|" in cell:
            raise ValueError(f"'|' in a table cell: {cell!r}")
    return "| " + " | ".join(cells) + " |"


def claims_static(claim: Claim) -> Tuple[str, ...]:
    return (claim.id, claim.exhibit, claim.statement, claim.paper,
            claim.bound_text())


def headline_static(claim: Claim) -> Tuple[str, ...]:
    return (f"{claim.statement} ({claim.exhibit})", claim.paper,
            claim.bound_text())


class Block(NamedTuple):
    """One generated table: where it goes, its columns and its rows."""

    doc: str
    marker: str
    header: Tuple[str, ...]
    static: Callable[[Claim], Tuple[str, ...]]
    headline_only: bool

    def rows(self):
        return [c for c in CLAIMS if c.headline or not self.headline_only]

    def render(self, measured: Dict[str, Dict[str, Any]]) -> str:
        lines = [_row(self.header), _row(["---"] * len(self.header))]
        for claim in self.rows():
            entries = measured[claim.id]
            lines.append(_row(self.static(claim) + (
                claim.shown(entries), claim.status(entries)
            )))
        return "\n".join(lines)

    def split(self, text: str) -> Tuple[str, str, str]:
        """``text`` as (up to and including the begin marker line, the
        block between the markers, from the end marker on)."""
        begin = f"<!-- {self.marker}:begin -->\n"
        end = f"\n<!-- {self.marker}:end -->"
        head, rest = text.split(begin, 1)
        inner, tail = rest.split(end, 1)
        return head + begin, inner, end + tail


BLOCKS = (
    Block("EXPERIMENTS.md", "claims",
          ("id", "exhibit", "statement", "paper", "bound",
           "measured, seed 7", "in the paper's band"),
          claims_static, headline_only=False),
    Block("README.md", "headlines",
          ("claim", "paper", "bound", "measured, seed 7",
           "in the paper's band"),
          headline_static, headline_only=True),
)


def write_docs(measured: Dict[str, Dict[str, Any]] = MEASURED,
               root: Path = ROOT) -> None:
    """Rewrite every generated block in place from ``measured``."""
    for block in BLOCKS:
        path = root / block.doc
        text = path.read_text(encoding="utf-8")
        head, _, tail = block.split(text)
        new = head + block.render(measured) + tail
        if new != text:
            path.write_text(new, encoding="utf-8")
