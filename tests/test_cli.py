"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.__main__ import _settings, build_parser, main
from tests.payloads import cell_payload


def run_cli(capsys, *argv):
    main(list(argv))
    return capsys.readouterr().out


FAST = ["--scale", "200", "--seed", "3", "--replications", "1"]


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_accepts_global_flags():
    args = build_parser().parse_args(
        ["--scale", "50", "--seed", "9", "table1"]
    )
    assert args.scale == 50.0
    assert args.seed == 9
    assert args.command == "table1"


def test_table1_command(capsys):
    out = run_cli(capsys, *FAST, "table1")
    assert "VIA-PRESS-5" in out
    assert "paper" in out


def test_timeline_command(capsys):
    out = run_cli(
        capsys, *FAST, "timeline",
        "--version", "VIA-PRESS-0", "--fault", "application-crash",
    )
    assert "VIA-PRESS-0 / application-crash" in out
    assert "availability over the run" in out


def test_timeline_rejects_unknown_fault():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["timeline", "--version", "X", "--fault", "not-a-fault"]
        )


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["timeline", "--version", "NOPE", "--fault", "node-crash"],
         "--version"),
        (["campaign", "--versions", "TCP-PRESS", "NOPE"], "--versions"),
        (["--spans", "{spans}", "--span-sample", "0", "timeline",
          "--version", "TCP-PRESS", "--fault", "node-crash"],
         "--span-sample"),
        (["--spans", "{spans}", "--span-sample", "-3", "campaign",
          "--versions", "TCP-PRESS"],
         "--span-sample"),
    ],
    ids=["timeline-version", "campaign-versions", "timeline-sample-0",
         "campaign-sample-negative"],
)
def test_bad_names_and_sample_counts_exit_before_simulating(
    argv, flag, capsys, tmp_path
):
    spans = tmp_path / "spans"
    argv = [a.replace("{spans}", str(spans)) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*FAST, *argv])
    assert exc.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.startswith("repro") and f"argument {flag}:" in error
    assert not spans.exists()


def test_figure_command_rejects_unknown_number():
    with pytest.raises(SystemExit):
        main([*FAST, "figure", "11"])


def test_figure5_command(capsys):
    out = run_cli(capsys, *FAST, "figure", "5")
    assert "bad-param-null-pointer" in out
    assert "TCP-PRESS" in out


def test_parser_accepts_jobs_and_cache_dir(tmp_path):
    args = build_parser().parse_args(
        ["--jobs", "4", "--cache-dir", str(tmp_path), "campaign"]
    )
    assert args.jobs == 4
    assert args.cache_dir == str(tmp_path)


def test_campaign_command_with_cache_dir(capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = [
        *FAST, "--cache-dir", str(cache), "campaign",
        "--versions", "TCP-PRESS",
    ]
    out = run_cli(capsys, *argv)
    assert "PHASE 1" in out and "campaign:" in out
    assert "0 from cache" in out
    assert any(cache.rglob("*.json"))
    # Second invocation replays entirely from the store.
    out = run_cli(capsys, *argv)
    assert "0 executed" in out


def test_campaign_clear_cache_flag(capsys, tmp_path):
    cache = tmp_path / "cache"
    argv = [*FAST, "--cache-dir", str(cache)]
    run_cli(capsys, *argv, "campaign", "--versions", "TCP-PRESS")
    out = run_cli(
        capsys, *argv, "--clear-cache", "campaign", "--versions", "TCP-PRESS"
    )
    assert "0 from cache" in out


# ----------------------------------------------------------------------
# dashboard / trace-validate subcommands
# ----------------------------------------------------------------------


def _seed_store(cache_dir):
    """A minimal persisted campaign (one version, one fault)."""
    from repro.experiments.runner import run_campaign
    from repro.experiments.settings import Phase1Settings
    from repro.experiments.store import DiskStore
    from repro.faults.spec import FaultKind
    from repro.press.cluster import SMOKE_SCALE

    settings = Phase1Settings(
        scale=SMOKE_SCALE, seed=1234, warm=15.0, fault_at=30.0,
        fault_duration=40.0, post_recovery=60.0, tail=40.0, replications=1,
    )
    run_campaign(
        settings, versions=["TCP-PRESS"], faults=[FaultKind.LINK_DOWN],
        store=DiskStore(cache_dir),
    )


def test_dashboard_command_renders_a_store(capsys, tmp_path):
    store = tmp_path / "cache"
    _seed_store(store)
    out_file = tmp_path / "dash.html"
    out = run_cli(capsys, "dashboard", str(store), "--out", str(out_file))
    assert str(out_file) in out
    html = out_file.read_text(encoding="utf-8")
    assert "<svg" in html and "TCP-PRESS" in html and "link-down" in html


def test_dashboard_command_defaults_into_the_store(capsys, tmp_path):
    store = tmp_path / "cache"
    _seed_store(store)
    out = run_cli(capsys, "dashboard", str(store))
    assert str(store / "dashboard.html") in out
    assert (store / "dashboard.html").exists()


def test_dashboard_command_exits_nonzero_on_empty_store(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["dashboard", str(tmp_path)])
    assert exc.value.code != 0


def test_dashboard_command_into_a_directory_is_one_error_line(tmp_path):
    """``--out`` naming a directory ends in one ``dashboard:`` line, not
    an IsADirectoryError traceback."""
    from repro.experiments.store import CellKey, DiskStore

    store = tmp_path / "cache"
    DiskStore(store).put(
        CellKey("TCP-PRESS", (), None, 1, rep=0), cell_payload()
    )
    with pytest.raises(SystemExit) as exc:
        main(["dashboard", str(store), "--out", str(tmp_path)])
    assert str(exc.value.code).startswith("dashboard: ")
    assert "\n" not in str(exc.value.code)


def _write_traces(trace_dir):
    from repro.obs.bus import SimEvent
    from repro.obs.exporters import export_run

    events = [
        SimEvent(time=0.5, seq=1, name="press.cache.hit", node="n0"),
        SimEvent(time=0.7, seq=2, name="press.cache.miss", node="n0"),
    ]
    export_run(events, trace_dir, "run")


def test_trace_validate_command_reports_per_file_counts(capsys, tmp_path):
    _write_traces(tmp_path)
    out = run_cli(capsys, "trace-validate", str(tmp_path))
    assert "run.jsonl: 2 events ok" in out
    assert "trace-validate: 2 file(s) ok" in out


def test_trace_validate_exits_nonzero_on_malformed_trace(tmp_path):
    _write_traces(tmp_path)
    (tmp_path / "run.jsonl").write_text("this is not json\n")
    with pytest.raises(SystemExit) as exc:
        main(["trace-validate", str(tmp_path)])
    assert exc.value.code != 0
    assert "not JSON" in str(exc.value.code)


def test_trace_validate_exits_nonzero_on_empty_dir(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["trace-validate", str(tmp_path)])
    assert exc.value.code != 0
    assert "no trace files" in str(exc.value.code)


def test_timeline_exports_events_and_spans(capsys, tmp_path):
    from repro.obs.exporters import validate_trace_dir

    out_dir = tmp_path / "timeline"
    out = run_cli(
        capsys, *FAST, "--trace-dir", str(out_dir), "--spans", str(out_dir),
        "timeline", "--version", "TCP-PRESS", "--fault", "link-down",
    )
    assert "trace:" in out and "spans:" in out
    label = "TCP-PRESS__link-down__seed3"
    names = {
        label + suffix
        for suffix in (".jsonl", ".trace.json", ".spans.jsonl",
                       ".spans.trace.json")
    }
    assert {path.name for path in out_dir.iterdir()} == names
    assert set(validate_trace_dir(out_dir)) == names
    want = {"version": "TCP-PRESS", "fault": "link-down", "seed": 3}
    for name in names:
        text = (out_dir / name).read_text()
        if name.endswith(".jsonl"):
            meta = json.loads(text.splitlines()[0])["meta"]
        else:
            meta = json.loads(text)["otherData"]
        assert want.items() <= meta.items(), name


def test_restored_campaign_defaults_turn_tracing_back_off(tmp_path):
    """The flags of one ``main`` call do not leak into the next."""
    from repro.experiments import campaign as campaign_mod

    _write_traces(tmp_path)
    before = dict(campaign_mod._defaults)
    assert before["trace_dir"] is None and before["spans_dir"] is None
    main(["--trace-dir", str(tmp_path), "--spans", str(tmp_path),
          "--jobs", "2", "trace-validate", str(tmp_path)])
    assert campaign_mod._defaults == before
    main(["trace-validate", str(tmp_path)])
    assert campaign_mod._defaults == before


@pytest.mark.parametrize("scale", ["0", "-5"])
def test_non_positive_scale_is_a_clean_cli_error(scale):
    with pytest.raises(SystemExit) as exc:
        main(["--scale", scale, "--replications", "1", "table1"])
    assert str(exc.value.code).startswith("repro: ")
    assert "must be > 0" in str(exc.value.code)


# ----------------------------------------------------------------------
# adaptive replication flags
# ----------------------------------------------------------------------


def test_parser_accepts_replication_flags():
    args = build_parser().parse_args(
        ["--replications", "2", "--reps-max", "8", "campaign"]
    )
    assert (args.replications, args.reps_max) == (2, 8)
    settings = _settings(args)
    assert (settings.replications, settings.max_replications) == (2, 8)
    # Without --reps-max every stream runs exactly --replications.
    assert build_parser().parse_args(["campaign"]).reps_max is None


@pytest.mark.parametrize(
    "argv",
    [["--replications", "5", "--reps-max", "3"], ["--reps-max", "0"]],
    ids=["below-replications", "zero"],
)
def test_reps_max_below_replications_is_a_clean_cli_error(argv):
    args = build_parser().parse_args(argv + ["table1"])
    with pytest.raises(SystemExit) as exc:
        _settings(args)
    assert str(exc.value.code).startswith("repro: max_replications")


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_non_positive_jobs_is_rejected(jobs):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--jobs", jobs, "campaign"])


def test_zero_replications_is_a_clean_cli_error():
    with pytest.raises(SystemExit) as exc:
        main(["--replications", "0", "table1"])
    assert "replications must be a positive" in str(exc.value.code)


def test_campaign_command_prints_the_replication_table(capsys):
    # Two replications per stream, extended to at most three while the
    # stream's CI half width is wider than the target.
    out = run_cli(
        capsys, "--scale", "200", "--seed", "3", "--replications", "2",
        "--reps-max", "3", "campaign", "--versions", "TCP-PRESS",
    )
    assert "replication (ci policy):" in out
    assert "converged" in out and "max-reps" in out
    assert "reps spent:" in out and "% saved" in out
    assert "adaptive replication (ci):" in out


# ----------------------------------------------------------------------
# store-diff subcommand
# ----------------------------------------------------------------------


def _put_cell(cache_dir, schema, tn=1.0):
    from repro.experiments.store import CellKey, DiskStore

    DiskStore(cache_dir).put(
        CellKey(
            version="TCP-PRESS",
            settings_key=("cli", 1),
            fault=None,
            seed=7,
            schema=schema,
            rep=0,
        ),
        cell_payload(tn=tn),
    )


def test_store_diff_identical_stores_pass(capsys, tmp_path):
    from repro.experiments.store import SCHEMA_VERSION

    a, b = tmp_path / "a", tmp_path / "b"
    _put_cell(a, SCHEMA_VERSION)
    _put_cell(b, SCHEMA_VERSION)
    out = run_cli(capsys, "store-diff", str(a), str(b))
    assert "1 cell(s) compared, payloads identical" in out


def test_store_diff_exits_nonzero_on_payload_mismatch(tmp_path):
    from repro.experiments.store import SCHEMA_VERSION

    a, b = tmp_path / "a", tmp_path / "b"
    _put_cell(a, SCHEMA_VERSION, tn=1.0)
    _put_cell(b, SCHEMA_VERSION, tn=2.0)
    with pytest.raises(SystemExit) as exc:
        main(["store-diff", str(a), str(b)])
    assert "1 difference(s)" in str(exc.value.code)


def test_store_diff_keeps_every_settings_universe_of_a_mixed_store(
    capsys, tmp_path
):
    """Cells are matched by their on-disk digest, which covers the
    settings: a store holding one grid at two scales (same versions,
    faults and seeds) is not mistaken for the one-scale store."""
    from repro.experiments.settings import Phase1Settings
    from repro.experiments.store import CellKey, DiskStore
    from repro.press.cluster import ExperimentScale

    def put(cache_dir, factor):
        sim_key = Phase1Settings(
            scale=ExperimentScale(cpu_factor=factor)
        ).sim_key()
        for fault in (None, "application-crash"):
            DiskStore(cache_dir).put(
                CellKey(
                    version="TCP-PRESS",
                    settings_key=sim_key,
                    fault=fault,
                    seed=7,
                    rep=0,
                ),
                cell_payload(fault, tn=float(factor)),
            )

    mixed, single = tmp_path / "mixed", tmp_path / "single"
    put(mixed, 200)
    put(mixed, 100)
    put(single, 200)
    with pytest.raises(SystemExit) as exc:
        main(["store-diff", str(mixed), str(single)])
    assert "2 difference(s)" in str(exc.value.code)
    out = capsys.readouterr().out
    assert out.count(f"only in {mixed}: TCP-PRESS") == 2
    assert f"only in {mixed}: TCP-PRESS baseline seed=7" in out
    assert f"only in {mixed}: TCP-PRESS application-crash seed=7" in out
    assert "payload mismatch" not in out


def test_store_diff_reports_a_v4_store_as_invalidated(capsys, tmp_path):
    """Pre-v5 cells are counted in one line per store and not read —
    the campaign re-runs them, it never re-reads them."""
    a, b = tmp_path / "a", tmp_path / "b"
    _put_cell(a, schema=4)
    _put_cell(b, schema=4, tn=2.0)
    out = run_cli(capsys, "store-diff", str(a), str(b))
    assert out.splitlines() == [
        f"store-diff: {a}: 1 cell(s) under schema v4: not read",
        f"store-diff: {b}: 1 cell(s) under schema v4: not read",
        "store-diff: 0 cell(s) compared, payloads identical",
    ]


def _put_unread_store(cache_dir):
    """A real one-fault campaign, plus one schema-v3 cell and a current
    cell of another seed whose observatory is a string."""
    from repro.experiments.store import DiskStore

    _seed_store(cache_dir)
    _put_cell(cache_dir, schema=3)
    ((_digest, key, payload), *_rest) = DiskStore(cache_dir).iter_cell_files()
    shard = cache_dir / "ff"
    shard.mkdir(exist_ok=True)
    (shard / f"{'f' * 64}.json").write_text(
        json.dumps(
            {
                "key": {**key, "seed": key["seed"] + 1},
                "payload": {**payload, "observatory": "x"},
            }
        )
    )


def test_dashboard_and_store_diff_name_unread_cells_in_one_line(
    capsys, tmp_path
):
    """Cells of another schema and malformed cells are counted in one
    line per command, with no traceback; the current cells render."""
    store = tmp_path / "cache"
    _put_unread_store(store)
    unread = "1 cell(s) under schema v3, 1 cell(s) malformed: not read"
    out = run_cli(capsys, "dashboard", str(store))
    assert out.splitlines() == [
        f"dashboard: {store}: {unread}",
        f"dashboard: {store / 'dashboard.html'}",
    ]
    html = (store / "dashboard.html").read_text(encoding="utf-8")
    assert "1 baselines, 1 fault runs" in html and "<svg" in html
    out = run_cli(capsys, "store-diff", str(store), str(store))
    assert out.splitlines() == [
        f"store-diff: {store}: {unread}",
        f"store-diff: {store}: {unread}",
        "store-diff: 2 cell(s) compared, payloads identical",
    ]


# ----------------------------------------------------------------------
# piped output
# ----------------------------------------------------------------------


def test_a_reader_that_closes_early_gets_no_traceback():
    # The report is larger than stdout's buffer, so ``head`` has exited
    # before the later prints flush into the closed pipe.
    src = str(Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        f"{shlex.quote(sys.executable)} -m repro --scale 1000 "
        "--replications 1 campaign --versions TCP-PRESS | head -1",
        shell=True,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.stdout == "=" * 72 + "\n"
    assert "Traceback" not in done.stderr, done.stderr
    assert "BrokenPipeError" not in done.stderr, done.stderr
