"""Tests of the benchmark itself: tiny runs, self-time arithmetic, failure counting.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from layers import LAYERS, LayerTracer, installed, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(autouse=True)
def _no_run_ledger(monkeypatch):
    """In-process workloads must not append to the tracked run ledger."""
    monkeypatch.setenv("REPRO_LEDGER", "0")


def _git_status() -> str | None:
    """``git status --porcelain`` of the checkout, or None outside a work tree."""
    try:
        completed = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout if completed.returncode == 0 else None


def _temp_dirs() -> set[str]:
    """Entries of the benchmark's (git-ignored) temp root."""
    root = HERE.parent / ".perfbench_tmp"
    return {entry.name for entry in root.iterdir()} if root.is_dir() else set()


def _bench(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, trace",
    [("sim-grow-100k", 0), ("sim-grow-100k", 1), ("suite-cold", 1), ("dse-sizing", 1)],
)
def test_tiny_run_is_correct_and_leaves_the_checkout_clean(workload, trace):
    before = _git_status()
    temp_before = _temp_dirs()
    record = _bench(workload, trace)
    assert list(record) == ["correct", "attempted", "failed", "metrics"]
    assert record["correct"] is True and record["failed"] == 0 and record["attempted"] >= 1
    if trace:
        expected = {name for name, _, _ in metric_names()}
    else:
        expected = {"wall_s", "ops_per_s", "setup_s", "peak_rss_mb"}
        assert all(metric["value"] > 0 for metric in record["metrics"].values())
    assert set(record["metrics"]) == expected
    if trace:
        values = {name: metric["value"] for name, metric in record["metrics"].items()}
        assert values["unattributed_s"] >= 0
        assert values["unattributed_s"] < values["trace.wall_s"]
        # The wrappers reach the calls into each layer the workload drives.
        if workload == "sim-grow-100k":
            assert values["graph.load_dataset_calls"] == 1 and values["core.grow_model_calls"] == 1
        elif workload == "suite-cold":
            assert values["accelerators.gcnax_calls"] >= 1 and values["scaleout.run_calls"] >= 1
        else:
            assert values["dse.candidates"] == 8 and values["harness.bundle_reuse_ratio"] == 1.0
    assert _temp_dirs() == temp_before
    if before is not None:
        assert _git_status() == before


def test_benchmark_json_names_what_the_driver_prints():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metric_names()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_times_partition_the_outermost_call(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layers.time, "perf_counter", clock)
    tracer = LayerTracer()

    def work(seconds):
        clock.now += seconds

    def plan_body():
        work(1.0)
        partition()
        work(0.5)

    def run_batch_body():
        work(0.25)
        plan()
        plan()

    def run_body():
        work(0.125)
        run_batch()  # delegation to the same layer: one call, not two

    partition = tracer.wrap("graph.partition", lambda: work(2.0))
    plan = tracer.wrap("core.preprocess", plan_body)
    run_batch = tracer.wrap("api.session", run_batch_body)
    run = tracer.wrap("api.session", run_body)

    run()
    assert tracer.self_s["graph.partition"] == 4.0
    assert tracer.self_s["core.preprocess"] == 3.0
    assert tracer.self_s["api.session"] == 0.375
    assert tracer.attributed_s == clock.now  # no second is counted twice
    assert tracer.calls["api.session"] == 1
    assert tracer.calls["core.preprocess"] == 2
    assert tracer.calls["graph.partition"] == 2


def test_a_layer_nested_under_another_counts_again(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(layers.time, "perf_counter", clock)
    tracer = LayerTracer()
    inner = tracer.wrap("api.session", lambda: setattr(clock, "now", clock.now + 1.0))
    backend = tracer.wrap("api.backend", lambda: inner())
    outer = tracer.wrap("api.session", lambda: backend())
    outer()
    assert tracer.calls["api.session"] == 2 and tracer.calls["api.backend"] == 1
    assert tracer.self_s["api.session"] == 1.0 and tracer.self_s["api.backend"] == 0.0


def _wrapped_attributes() -> list[str]:
    found = []
    for module in layers._repro_modules():
        for name, value in vars(module).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type):
                found += [
                    f"{value.__qualname__}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, "__perfbench_original__")
                ]
    return found


def test_wrappers_patch_the_name_callers_look_up_and_are_removed():
    import repro.core.preprocess as preprocess
    import repro.graph.partition as partition
    from repro.graph.generators import chung_lu_graph

    original = partition.partition_graph
    tracer = LayerTracer()
    with installed(tracer):
        # core.preprocess imported partition_graph by name; its binding is
        # the one plan_from_graph calls.
        assert preprocess.partition_graph.__perfbench_original__ is original
        assert partition.partition_graph.__perfbench_original__ is original
        graph = chung_lu_graph(300, 6.0, num_communities=4, rng=np.random.default_rng(1))
        preprocess.GrowPreprocessor(target_cluster_nodes=64, seed=1).plan_from_graph(graph)
    assert tracer.calls["core.preprocess"] == 1 and tracer.calls["graph.partition"] == 1
    assert tracer.self_s["graph.partition"] > 0
    assert preprocess.partition_graph is original and partition.partition_graph is original
    assert _wrapped_attributes() == []


def test_every_layer_reports_a_self_time_and_a_call_count():
    names = [name for name, _, _ in metric_names()]
    assert len(names) == len(set(names))
    for layer in LAYERS:
        assert layer.self_name in names and layer.calls_name in names


@pytest.fixture
def raising_grow_backend(monkeypatch):
    """The GROW backend replaced by one that raises; memos cleaned up after."""
    from repro.api.backends import GrowBackend
    from repro.api.session import clear_memo
    from repro.graph import registry
    from repro.harness.workloads import clear_caches

    def run(self, request, session=None):
        raise RuntimeError("injected backend failure")

    known = set(registry.dataset_names())
    clear_memo()
    monkeypatch.setattr(GrowBackend, "run", run)
    yield
    clear_memo()
    clear_caches()
    for name in set(registry.dataset_names()) - known:
        registry.unregister_dataset(name)


@pytest.mark.parametrize("workload, attempted", [("sim-grow-100k", 1), ("dse-sizing", 8)])
def test_a_raising_backend_counts_as_failed_not_crashed(
    raising_grow_backend, tmp_path, workload, attempted
):
    bench = WORKLOADS[workload](1, tmp_path, tiny=True, serial=True)
    bench.run()
    outcome = bench.check()
    assert (outcome.attempted, outcome.failed) == (attempted, attempted)
    assert outcome.errors


def test_a_golden_mismatch_counts_as_failed(tmp_path):
    from repro.api.session import clear_memo
    from repro.graph import registry
    from repro.harness.workloads import clear_caches

    known = set(registry.dataset_names())
    clear_memo()
    try:
        bench = WORKLOADS["sim-grow-100k"](1, tmp_path, tiny=True)
        bench.run()
        assert bench.check().failed == 0
        bench.golden = {"cycles": 1.0}
        outcome = bench.check()
        assert outcome.failed == 1 and "goldens" in outcome.errors[0]
    finally:
        clear_memo()
        clear_caches()
        for name in set(registry.dataset_names()) - known:
            registry.unregister_dataset(name)
