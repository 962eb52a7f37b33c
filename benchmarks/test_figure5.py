"""Regenerates Figure 5: a NULL pointer passed to the send API.

The TCP versions get EFAULT synchronously and sail on; VIA-PRESS-0 gets
an asynchronous completion error and fail-fasts one process; the
remote-write versions (VIA-3/5) report the error at both endpoints and
lose two.  All recover by restart and rejoin.
"""

from repro.experiments.timelines import format_timeline_figure, run_figure5

from .claims import check
from .conftest import run_once


def test_figure5(benchmark, bench_settings):
    fig = run_once(benchmark, lambda: run_figure5(bench_settings))
    print()
    print(
        format_timeline_figure(
            fig, bucket=10.0, title="Figure 5 — NULL-pointer send fault"
        )
    )
    check("Figure 5", fig)
