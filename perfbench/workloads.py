"""The benchmark's workloads, each driven through the public API.

A workload is built in two steps: constructing it is the set-up the
benchmark charges to ``setup_s`` (scenario registration, config, session or
runner construction and, for the DSE search, the bundle warm-up), and
:meth:`run` is the timed region.  :meth:`check` then verifies every
operation's output: at the default seed against goldens recorded from the
program (``goldens.json``), at any other seed against golden-free
invariants.  An operation that raises, reports ``failed`` or fails its check
counts as failed.

The goldens move only with a declared model fix.  To re-record them, run
``PYTHONPATH=src python3 perfbench/iteration.py --workload NAME --seed 0
--workdir DIR`` and copy the ``observed`` values it prints into
``goldens.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

GOLDENS = json.loads((Path(__file__).resolve().parent / "goldens.json").read_text())

#: The seed the goldens were recorded at.
DEFAULT_SEED = 0


@dataclass
class Outcome:
    """What one timed run produced, after its output checks."""

    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Simulated statistics reported by the traced run (sim-grow-100k only).
    simulated: dict[str, float] = field(default_factory=dict)
    #: The values the goldens are compared against, for re-recording them
    #: after a declared model fix.
    observed: dict = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + count)
        self.errors.append(message)


def digest(value) -> str:
    """sha256 of a value's canonical JSON form."""
    from repro.harness.report import json_default

    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=json_default)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _positive_finite(values: dict) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in values.values())


class SimGrow100k:
    """One cold ``repro sim`` request on the ``grow-100k`` ladder scenario."""

    name = "sim-grow-100k"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False, serial: bool = False):
        from repro.api import Session, SimRequest
        from repro.bench.ladder import RUNGS, scenario_digest
        from repro.graph import registry

        golden = GOLDENS[self.name]
        rung = RUNGS[golden["tiny_rung" if tiny else "rung"]]
        expected = golden["tiny_scenario_digest" if tiny else "scenario_digest"]
        if scenario_digest(rung) != expected:
            raise RuntimeError(
                f"ladder rung {rung.name} changed: scenario digest "
                f"{scenario_digest(rung)} != {expected}"
            )
        registry.register_dataset(registry.scenario_from_dict(rung.scenario), replace=True)
        self.golden = None if tiny or seed != DEFAULT_SEED else golden["metrics"]
        self.session = Session(results_dir=workdir / "results")
        self.request = SimRequest(dataset=rung.scenario["name"], backend="grow", seed=seed)
        self.result = None
        self.error = ""

    def run(self) -> None:
        try:
            self.result = self.session.run(self.request)
        except Exception as exc:  # counted as a failed operation
            self.error = f"{type(exc).__name__}: {exc}"

    def check(self) -> Outcome:
        outcome = Outcome(attempted=1)
        result = self.result
        if result is None:
            outcome.fail(f"request raised {self.error}")
            return outcome
        metrics = dict(result.metrics)
        outcome.observed = metrics
        if result.status != "ran":
            outcome.fail(f"request status {result.status!r}, expected a fresh run")
        elif not _positive_finite(metrics):
            outcome.fail(f"non-positive or non-finite metrics {metrics}")
        elif self.golden is not None:
            wrong = {k: metrics.get(k) for k, v in self.golden.items() if metrics.get(k) != v}
            if wrong:
                outcome.fail(f"metrics differ from goldens: {wrong}")
        outcome.simulated = {
            "sim.cycles": float(metrics.get("cycles", 0.0)),
            "sim.dram_bytes": float(metrics.get("dram_bytes", 0.0)),
            "sim.hdn_hit_rate": float(
                result.detail.get("result", {}).get("extra", {}).get("hdn_hit_rate", 0.0)
            ),
        }
        return outcome


class SuiteCold:
    """The cold serial suite: every registered experiment, empty cache."""

    name = "suite-cold"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False, serial: bool = False):
        from repro.harness import SuiteRunner, default_config
        from repro.harness.config import smoke_config

        config = (smoke_config if tiny else default_config)(seed=seed)
        self.runner = SuiteRunner(config, jobs=1, results_dir=workdir / "results")
        self.golden = None if tiny or seed != DEFAULT_SEED else GOLDENS[self.name]["experiments"]
        self.report = None
        self.error = ""

    def run(self) -> None:
        try:
            self.report = self.runner.run()
        except Exception as exc:  # counted as every experiment failing
            self.error = f"{type(exc).__name__}: {exc}"

    def check(self) -> Outcome:
        names = self.runner.experiments
        outcome = Outcome(attempted=len(names))
        if self.report is None:
            outcome.fail(f"suite raised {self.error}", count=len(names))
            return outcome
        observed = {}
        for name in names:
            result = self.report.outcome(name)
            if result.status != "ran":
                outcome.fail(f"{name}: status {result.status!r}, expected a fresh run")
                continue
            observed[name] = digest(result.result.to_dict())
            rows = result.result.rows
            numbers = [v for row in rows for v in row.values() if isinstance(v, float)]
            if not rows or not all(math.isfinite(v) for v in numbers):
                outcome.fail(f"{name}: empty result or non-finite values")
            elif self.golden is not None and observed[name] != self.golden.get(name):
                outcome.fail(f"{name}: result digest {observed[name]} differs from golden")
        if self.golden is not None and set(self.golden) != set(names):
            differing = sorted(set(self.golden) ^ set(names))
            outcome.fail(f"experiment set differs from goldens: {differing}")
        outcome.observed = {"experiments": observed}
        return outcome


class DSESizing:
    """An evolutionary search of the GROW sizing space on a process pool."""

    name = "dse-sizing"

    #: Pool workers of the timed run.  The traced run is ``serial`` so the
    #: wrapped layer calls happen in the traced process.
    JOBS = 2

    def __init__(self, seed: int, workdir: Path, tiny: bool = False, serial: bool = False):
        from repro.dse import DSERunner
        from repro.harness import default_config
        from repro.harness.config import smoke_config
        from repro.harness.workloads import get_bundles

        config = (smoke_config if tiny else default_config)(seed=seed)
        self.budget = 8 if tiny else 64
        # Built before the pool forks, so every worker inherits the bundles.
        get_bundles(config)
        self.runner = DSERunner(
            space="grow-sizing",
            sampler="evolutionary",
            config=config,
            budget=self.budget,
            jobs=1 if serial else self.JOBS,
            seed=seed,
            results_dir=workdir / "results",
        )
        self.golden = None if tiny or seed != DEFAULT_SEED else GOLDENS[self.name]
        self.report = None
        self.error = ""

    def run(self) -> None:
        try:
            self.report = self.runner.run()
        except Exception as exc:  # counted as every candidate failing
            self.error = f"{type(exc).__name__}: {exc}"

    def check(self) -> Outcome:
        outcome = Outcome(attempted=self.budget)
        report = self.report
        if report is None:
            outcome.fail(f"search raised {self.error}", count=self.budget)
            return outcome
        evaluations = [
            {
                "candidate": e.candidate,
                "metrics": e.metrics,
                "status": e.status,
                "feasible": e.feasible,
                "generation": e.generation,
            }
            for e in report.evaluations
        ]
        observed = [digest(e) for e in evaluations]
        frontier = digest(
            [{"candidate": e.candidate, "metrics": e.metrics} for e in report.frontier]
        )
        outcome.observed = {"evaluations": observed, "frontier": frontier}
        if len(evaluations) < self.budget:
            outcome.fail(
                f"{self.budget - len(evaluations)} candidate(s) never evaluated",
                count=self.budget - len(evaluations),
            )
        golden = self.golden["evaluations"] if self.golden is not None else None
        for index, evaluation in enumerate(evaluations):
            if evaluation["status"] != "ran":
                outcome.fail(f"candidate {index}: status {evaluation['status']!r}")
            elif not _positive_finite(evaluation["metrics"]):
                outcome.fail(f"candidate {index}: bad metrics {evaluation['metrics']}")
            elif golden is not None and (index >= len(golden) or observed[index] != golden[index]):
                outcome.fail(f"candidate {index}: evaluation digest differs from golden")
        if not report.frontier:
            outcome.fail("empty Pareto frontier", count=self.budget)
        elif self.golden is not None and frontier != self.golden["frontier"]:
            outcome.fail("Pareto frontier digest differs from golden", count=len(report.frontier))
        return outcome


WORKLOADS = {workload.name: workload for workload in (SimGrow100k, SuiteCold, DSESizing)}
