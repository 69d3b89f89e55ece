"""The repository benchmark: three workloads, timed end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-grow-100k --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one after another

Every iteration runs in a fresh process (``iteration.py``), one at a time,
so each starts with empty in-process memos, an empty on-disk result cache in
a temp dir and the run ledger off (``REPRO_LEDGER=0``); a process uses at
most two pool workers.  With ``--trace 0`` iterations repeat while another
one fits in ``--seconds`` (at least one), and the end-to-end metrics are
medians over them:

* ``wall_s``: host seconds of the timed region;
* ``ops_per_s``: operations completed and verified per host second (a
  request, an experiment or a DSE candidate);
* ``setup_s``: the fresh process's set-up before the timed region, the
  median of at least three set-ups;
* ``peak_rss_mb``: the high-water mark of the iteration process and of its
  pool workers.

With ``--trace 1`` (``--seconds`` unused) one untraced and one traced
iteration run, both serial (``dse-sizing`` drops to one job so its layer
calls happen in the traced process); the traced one reports every per-layer
metric of ``layers.py`` plus the tracing overhead, traced minus untraced
``wall_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (named ``<workload>.<metric>``
under ``--workload all``).  Temp dirs live under
``.perfbench_tmp`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import metric_names
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNITS = {"wall_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3
#: Whole-run deadline: the benchmark must exit within 180 s.
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    """An iteration process crashed, timed out or printed no record."""


class Driver:
    """Starts iteration processes one at a time under a shared deadline."""

    def __init__(self, args: argparse.Namespace, workload: str, tmp_root: Path):
        self.args = args
        self.workload = workload
        self.tmp_root = tmp_root
        self.started = time.perf_counter()
        python_path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, python_path)))

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def iteration(self, *flags: str) -> dict:
        workdir = Path(tempfile.mkdtemp(dir=self.tmp_root))
        command = [
            sys.executable, str(HERE / "iteration.py"),
            "--workload", self.workload,
            "--seed", str(self.args.seed),
            "--workdir", str(workdir),
            *flags,
        ]
        if self.args.tiny:
            command.append("--tiny")
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            cwd=workdir,
            env=dict(self.env, TMPDIR=str(workdir)),
            start_new_session=True,
            text=True,
        )
        try:
            stdout, _ = process.communicate(timeout=max(1.0, DEADLINE_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            raise BenchmarkError(
                f"iteration {flags} ran past the {DEADLINE_S:.0f} s deadline"
            ) from None
        finally:
            if process.returncode is None:
                # Timed out or interrupted: stop the iteration and the pool
                # workers in its process group, and wait for them.
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
            shutil.rmtree(workdir, ignore_errors=True)
        if process.returncode != 0:
            raise BenchmarkError(f"iteration {flags} exited with code {process.returncode}")
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            raise BenchmarkError(f"iteration {flags} printed no record") from None


def measure(driver: Driver, seconds: float) -> tuple[list[dict], list[float]]:
    """Timed iterations while another fits in ``seconds``, then set-ups."""
    records: list[dict] = []
    while True:
        started = driver.elapsed()
        records.append(driver.iteration())
        now = driver.elapsed()
        if now + (now - started) > seconds:
            break
    setups = [record["setup_s"] for record in records]
    while len(setups) < SETUP_SAMPLES:
        setups.append(driver.iteration("--setup-only")["setup_s"])
    return records, setups


def end_to_end(records: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "ops_per_s": statistics.median(
            (r["attempted"] - r["failed"]) / r["wall_s"] for r in records
        ),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def run_workload(args: argparse.Namespace, workload: str, tmp_root: Path) -> dict:
    """Measure one workload, print its metrics and return its result object."""
    driver = Driver(args, workload, tmp_root)
    if args.trace:
        untraced = driver.iteration("--serial")
        traced = driver.iteration("--serial", "--trace")
        records = [untraced, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        units = {name: unit for name, unit, _ in metric_names()}
        print(f"{workload}: traced and untraced iterations both ran serially (jobs=1)")
    else:
        records, setups = measure(driver, args.seconds)
        metrics = end_to_end(records, setups)
        units = UNITS
        print(f"{workload}: {len(records)} timed iteration(s), {len(setups)} set-up(s)")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  operations: {attempted} attempted, {failed} failed")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload, or all of them.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="seconds-scale inputs, for the tests")
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so iterations are
    # stopped and temp dirs removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp_base = ROOT / ".perfbench_tmp"
    tmp_base.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(dir=tmp_base))
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(args, name, tmp_root) for name in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_base.rmdir()
        except OSError:
            pass

    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, result in results.items()
                for name, metric in result["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
