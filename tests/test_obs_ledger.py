"""Tests for the persistent run ledger (``repro.obs.ledger``).

Covers the record schema, the environment/flag resolution, crash
tolerance (torn trailing lines) and the concurrency contract: many
processes appending at once must produce only whole, parseable lines.
The session-integration tests at the bottom pin the byte-identity
contract — recording to the ledger must never change what a run returns.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import ledger


@pytest.fixture
def live_ledger(tmp_path, monkeypatch):
    """A real, enabled ledger on a tmp path (conftest disables the default)."""
    path = tmp_path / "ledger.jsonl"
    monkeypatch.setenv(ledger.LEDGER_ENV, str(path))
    ledger.enable_ledger()
    yield path
    ledger.enable_ledger()


# ---------------------------------------------------------------------------
# Record construction and validation.
# ---------------------------------------------------------------------------


def test_make_record_carries_the_schema_fields():
    record = ledger.make_record(
        "session",
        "grow:cora",
        outcome="fresh",
        wall_seconds=1.5,
        backend="grow",
        dataset="cora",
        cache_key="abc",
        phases={"grow.run_model": 1.2},
        metrics={"cycles": 10.0},
    )
    assert record["schema"] == ledger.LEDGER_SCHEMA
    assert record["kind"] == "session"
    assert record["name"] == "grow:cora"
    assert record["outcome"] == "fresh"
    assert record["wall_seconds"] == 1.5
    assert record["backend"] == "grow"
    assert record["phases"] == {"grow.run_model": 1.2}
    assert record["pid"] == os.getpid()
    assert record["ts"].endswith("Z")


def test_make_record_rejects_unknown_kinds_and_empty_names():
    with pytest.raises(ValueError, match="kind"):
        ledger.make_record("banana", "x")
    with pytest.raises(ValueError, match="name"):
        ledger.make_record("session", "")


def test_optional_fields_are_omitted_not_nulled():
    record = ledger.make_record("suite", "fig20")
    assert "backend" not in record
    assert "phases" not in record
    assert "metrics" not in record


# ---------------------------------------------------------------------------
# Enable/disable resolution.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", ["", "0", "off", "false", "no", "none", "OFF"])
def test_env_disable_values(monkeypatch, value):
    monkeypatch.setenv(ledger.LEDGER_ENV, value)
    ledger.enable_ledger()
    assert ledger.ledger_path() is None
    assert not ledger.ledger_enabled()


def test_env_path_redirects(monkeypatch, tmp_path):
    target = tmp_path / "elsewhere.jsonl"
    monkeypatch.setenv(ledger.LEDGER_ENV, str(target))
    ledger.enable_ledger()
    assert ledger.ledger_path() == target
    assert ledger.ledger_enabled()


def test_disable_flag_beats_env(monkeypatch, tmp_path):
    monkeypatch.setenv(ledger.LEDGER_ENV, str(tmp_path / "l.jsonl"))
    ledger.disable_ledger()
    try:
        assert ledger.ledger_path() is None
        assert not ledger.ledger_enabled()
    finally:
        ledger.enable_ledger()


def test_default_requires_benchmarks_dir(monkeypatch, tmp_path):
    monkeypatch.delenv(ledger.LEDGER_ENV, raising=False)
    ledger.enable_ledger()
    monkeypatch.chdir(tmp_path)
    assert ledger.ledger_path() is None  # no benchmarks/ directory here
    (tmp_path / "benchmarks").mkdir()
    assert ledger.ledger_path() == Path("benchmarks") / "ledger.local.jsonl"


def test_default_ledger_is_git_ignored():
    # Ordinary runs from a checkout must never modify a tracked file.
    root = Path(__file__).resolve().parents[1]
    ignored = (root / ".gitignore").read_text().split()
    assert ledger.DEFAULT_LEDGER_PATH.as_posix() in ignored
    assert ledger.DEFAULT_LEDGER_PATH != Path("benchmarks") / "ledger.jsonl"


# ---------------------------------------------------------------------------
# Append/load round-trip and crash tolerance (satellite: durability).
# ---------------------------------------------------------------------------


def test_append_load_round_trip(live_ledger):
    book = ledger.RunLedger(live_ledger)
    for index in range(3):
        book.append(ledger.make_record("bench", f"rung-{index}", wall_seconds=index))
    records, bad = ledger.load_ledger(live_ledger)
    assert bad == []
    assert [record["name"] for record in records] == ["rung-0", "rung-1", "rung-2"]


def test_record_run_is_a_one_liner(live_ledger):
    assert ledger.record_run("scaleout", "mesh:cora", outcome="ok", wall_seconds=2.0)
    records, _ = ledger.load_ledger(live_ledger)
    assert records[0]["kind"] == "scaleout"


def test_record_run_swallows_write_failures(monkeypatch, tmp_path):
    # Pointing the ledger at a path whose parent is a *file* makes the
    # open fail; the run must carry on regardless.
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    monkeypatch.setenv(ledger.LEDGER_ENV, str(blocker / "ledger.jsonl"))
    ledger.enable_ledger()
    assert not ledger.record_run("session", "grow:cora")


def test_record_run_noop_when_disabled(monkeypatch, tmp_path):
    monkeypatch.setenv(ledger.LEDGER_ENV, "0")
    ledger.enable_ledger()
    assert not ledger.record_run("session", "grow:cora")


def test_corrupt_trailing_line_is_skipped_and_reported(live_ledger):
    book = ledger.RunLedger(live_ledger)
    book.append(ledger.make_record("session", "grow:cora"))
    book.append(ledger.make_record("session", "grow:citeseer"))
    # Simulate a crash mid-write: truncate the file inside the last line.
    raw = live_ledger.read_bytes()
    live_ledger.write_bytes(raw[: len(raw) - 20])
    records, bad = ledger.load_ledger(live_ledger)
    assert [record["name"] for record in records] == ["grow:cora"]
    assert len(bad) == 1 and bad[0]["line"] == 2 and bad[0]["error"]


def test_append_after_torn_line_starts_clean(live_ledger):
    book = ledger.RunLedger(live_ledger)
    book.append(ledger.make_record("session", "grow:cora"))
    # A crashed writer left a partial line with no trailing newline.
    with live_ledger.open("ab") as handle:
        handle.write(b'{"torn": tru')
    book.append(ledger.make_record("session", "grow:pubmed"))
    records, bad = ledger.load_ledger(live_ledger)
    assert [record["name"] for record in records] == ["grow:cora", "grow:pubmed"]
    assert len(bad) == 1  # only the torn fragment is lost


def test_load_missing_ledger_is_empty(tmp_path):
    records, bad = ledger.load_ledger(tmp_path / "absent.jsonl")
    assert records == [] and bad == []


def _hammer(path: str, worker: int, lines: int) -> None:
    from repro.obs import ledger as mod

    book = mod.RunLedger(Path(path))
    for index in range(lines):
        book.append(
            mod.make_record(
                "session",
                f"worker-{worker}-line-{index}",
                metrics={"padding": "x" * 200},
            )
        )


def test_concurrent_appends_never_interleave(live_ledger):
    # Satellite (c): many processes hammering one ledger must yield only
    # whole lines — os.write on an O_APPEND descriptor is atomic.
    workers, lines = 4, 25
    context = multiprocessing.get_context("spawn")
    processes = [
        context.Process(target=_hammer, args=(str(live_ledger), worker, lines))
        for worker in range(workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0
    # Every line parses — a torn or interleaved write would break JSON.
    raw_lines = live_ledger.read_text().splitlines()
    assert len(raw_lines) == workers * lines
    names = {json.loads(line)["name"] for line in raw_lines}
    assert len(names) == workers * lines
    records, bad = ledger.load_ledger(live_ledger)
    assert bad == [] and len(records) == workers * lines


# ---------------------------------------------------------------------------
# Queries.
# ---------------------------------------------------------------------------


def _records():
    return [
        ledger.make_record("session", "grow:cora", outcome="fresh", wall_seconds=2.0,
                           backend="grow", dataset="cora",
                           phases={"grow.run_model": 1.5, "workload.load_dataset": 0.4}),
        ledger.make_record("session", "grow:cora", outcome="memo", backend="grow",
                           dataset="cora"),
        ledger.make_record("session", "gcnax:cora", outcome="disk", backend="gcnax",
                           dataset="cora"),
        ledger.make_record("suite", "fig20", outcome="ran", wall_seconds=5.0),
        ledger.make_record("bench", "grow-10k", outcome="ok", wall_seconds=0.5,
                           phases={"grow.run_model": 0.3}),
    ]


def test_filter_records_by_each_axis():
    records = _records()
    assert len(ledger.filter_records(records, kind="session")) == 3
    assert len(ledger.filter_records(records, backend="grow")) == 2
    assert len(ledger.filter_records(records, dataset="cora")) == 3
    assert len(ledger.filter_records(records, outcome="fresh")) == 1
    assert len(ledger.filter_records(records, since="1970")) == 5
    assert len(ledger.filter_records(records, since="2999")) == 0


def test_summarize_records_counts_and_hit_rate():
    summary = ledger.summarize_records(_records())
    assert summary["total"] == 5
    assert summary["by_kind"]["session"]["runs"] == 3
    cache = summary["cache"]
    assert cache["fresh"] == 1 and cache["memo"] == 1 and cache["disk"] == 1
    assert cache["hit_rate"] == pytest.approx(2 / 3)
    phases = {row["phase"]: row for row in summary["slowest_phases"]}
    assert phases["grow.run_model"]["count"] == 2
    assert phases["grow.run_model"]["total_seconds"] == pytest.approx(1.8)
    assert summary["slowest_runs"][0]["name"] == "fig20"


def test_summarize_empty_is_well_formed():
    summary = ledger.summarize_records([])
    assert summary["total"] == 0
    assert summary["cache"]["hit_rate"] is None
    assert summary["slowest_phases"] == []


# ---------------------------------------------------------------------------
# Session integration: outcomes recorded, byte-identity untouched.
# ---------------------------------------------------------------------------


def _session_requests():
    from repro.api import SimRequest
    from repro.harness import smoke_config

    config = smoke_config()
    return [
        SimRequest.from_experiment(config, dataset, backend="grow")
        for dataset in list(config.datasets)[:2]
    ]


def test_session_records_fresh_memo_and_disk(live_ledger):
    from repro.api import Session, clear_memo

    clear_memo()
    requests = _session_requests()
    session = Session(use_cache=False, jobs=1)
    session.run(requests[0])
    session.run(requests[0])  # memo hit
    records, bad = ledger.load_ledger(live_ledger)
    assert bad == []
    outcomes = [record["outcome"] for record in records]
    assert outcomes == ["fresh", "memo"]
    fresh = records[0]
    assert fresh["kind"] == "session"
    assert fresh["backend"] == "grow"
    assert fresh["cache_key"]
    assert fresh["wall_seconds"] > 0
    assert fresh["phases"] and "session.execute" in fresh["phases"]


def test_parallel_batch_records_via_side_channel(live_ledger):
    from repro.api import Session, clear_memo

    clear_memo()
    requests = _session_requests()
    Session(use_cache=False, jobs=2).run_batch(requests)
    records, bad = ledger.load_ledger(live_ledger)
    assert bad == []
    fresh = [r for r in records if r["outcome"] == "fresh"]
    assert len(fresh) == len(requests)
    # Worker phases travelled the telemetry side channel to the parent.
    assert all(record["phases"] for record in fresh)


def test_ledger_does_not_change_result_bytes(live_ledger):
    from repro.api import Session, clear_memo

    requests = _session_requests()

    def payloads(jobs):
        clear_memo()
        out = []
        for result in Session(use_cache=False, jobs=jobs).run_batch(requests):
            payload = result.to_dict()
            payload.pop("seconds")  # wall-clock is the one field allowed to move
            out.append(json.dumps(payload, sort_keys=True))
        return out

    with_ledger_serial = payloads(1)
    with_ledger_parallel = payloads(2)
    ledger.disable_ledger()
    try:
        without_ledger = payloads(2)
    finally:
        ledger.enable_ledger()
    assert with_ledger_serial == with_ledger_parallel == without_ledger
