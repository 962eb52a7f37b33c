"""The claims table (``benchmarks/claims.py``) and its committed copies.

The exhibit suite asserts every row and rewrites the generated blocks of
EXPERIMENTS.md and README.md; these tests hold the checker's failure
message and the blocks' static columns without running the suite.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from benchmarks import claims


def _band(value):
    return SimpleNamespace(value=value, half_width=0.5, n=3)


def test_check_names_exhibit_statement_bound_and_measured_value():
    bands = {
        "VIA-PRESS-0": _band(4.0),
        "VIA-PRESS-3": _band(12.5),
        "VIA-PRESS-5": _band(4.0),
    }
    with pytest.raises(AssertionError) as failure:
        claims.check("§9 crossover", bands)
    (line,) = str(failure.value).splitlines()
    row = next(c for c in claims.CLAIMS if c.id == "x9.each")
    assert "§9 crossover" in line
    assert row.statement in line
    assert "2 ≤ crossover multiplier ≤ 10" in line
    assert "VIA-PRESS-3 12.50 ± 0.50" in line


def test_check_passes_values_inside_every_bound():
    claims.check("§9 crossover", {"VIA-PRESS-0": _band(4.0)})


def test_an_unknown_exhibit_has_no_rows():
    with pytest.raises(KeyError):
        claims.check("Figure 11", None)


@pytest.mark.parametrize(
    "bound, entries, misses",
    [
        (claims.Range(0.98, 0.9995), {"a": 0.98, "b": 0.99}, {"a": "below"}),
        (claims.Range(hi=21.0, closed=True), {"": 21.0}, {}),
        (claims.Range(lo=2, closed=True), {"": None}, {"": "missing"}),
        (
            claims.Range(lo=0.95, ref=("tcp",)),
            {"tcp": 20.0, "via": 19.0, "via5": 19.5},
            {"via": "below"},
        ),
        (
            claims.Range(lo=1, ref=("t1", "t2")),
            {"t1": 1.0, "t2": 3.0, "v": 2.0},
            {"v": "below"},
        ),
        (
            claims.Range(lo=1, ref=("t",)),
            {"1/day": {"t": 1.0, "v": 2.0}, "1/month": {"t": 3.0, "v": 2.0}},
            {"1/month v": "below"},
        ),
        (claims.Rising(), {"a": (1, 2, 3), "b": (1, 1)}, {"b": "not rising"}),
    ],
)
def test_bounds(bound, entries, misses):
    assert bound.misses(entries) == misses


def test_status_counts_values_outside_the_papers_band():
    row = next(c for c in claims.CLAIMS if c.id == "f6.aa-band")
    entries = {
        "1/day": {f"v{i}": 0.995 for i in range(5)},
        "1/month": {f"v{i}": 0.999 if i else 0.997 for i in range(5)},
    }
    assert row.status(entries) == "partly: 4 of 10 above 0.998"
    assert row.status({"r": 0.995}) == "✓"
    assert row.status({"r": 0.985}) == "✗: below 0.99"


@pytest.mark.parametrize("block", claims.BLOCKS, ids=lambda b: b.doc)
def test_committed_block_static_columns_match_the_table(block):
    text = (claims.ROOT / block.doc).read_text(encoding="utf-8")
    committed = [
        [cell.strip() for cell in line[1:-1].split(" | ")]
        for line in block.split(text)[1].splitlines()[2:]
    ]
    expected = [list(block.static(c)) for c in block.rows()]
    assert [cells[: len(expected[0])] for cells in committed] == expected
    assert all(len(cells) == len(block.header) for cells in committed)


def test_every_row_has_a_unique_id_and_renders():
    ids = [c.id for c in claims.CLAIMS]
    assert len(ids) == len(set(ids))
    for c in claims.CLAIMS:
        assert "|" not in "".join(claims.claims_static(c))
