"""One benchmark iteration in a fresh process: set up, run the timed region, check.

Usage (normally started by ``run.py``, with ``PYTHONPATH`` naming ``src``)::

    python3 perfbench/iteration.py --workload sim-grow-100k --seed 0 \
        --workdir DIR [--trace] [--serial] [--tiny] [--setup-only]

Prints one JSON line: ``setup_s`` (process start of this script to the end
of the workload's set-up, so the ``repro`` import is included), ``wall_s``
(the timed region), the attempted/failed operation counts, ``peak_rss_mb``
(the high-water mark of this process and of its pool workers, whichever is
higher) and, with ``--trace``, the per-layer metrics.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import LayerTracer, installed, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _layer_metrics(tracer: LayerTracer, counters: dict, wall_s: float, simulated: dict) -> dict:
    counts = counters.get("counters", {})
    requests = counts.get("session.requests", 0)
    values = tracer.metrics()
    values.update(
        {
            "api.requests": float(requests),
            "api.memo_hit_ratio": (
                counts.get("session.memo_hits", 0) / requests if requests else 0.0
            ),
            "harness.cache_writes": float(counts.get("cache.writes", 0)),
            "unattributed_s": wall_s - tracer.attributed_s,
            "trace.wall_s": wall_s,
        }
    )
    values.update(simulated)
    return {name: float(values.get(name, 0.0)) for name, _, _ in metric_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument(
        "--trace", action="store_true", help="wrap every layer and report self times"
    )
    parser.add_argument(
        "--serial", action="store_true", help="no worker processes (the traced setting)"
    )
    parser.add_argument("--tiny", action="store_true", help="seconds-scale inputs, for the tests")
    parser.add_argument("--setup-only", action="store_true", help="measure set-up and exit")
    args = parser.parse_args(argv)

    # Never append to the repository's tracked run ledger.
    os.environ["REPRO_LEDGER"] = "0"
    workload = WORKLOADS[args.workload](
        args.seed, args.workdir, tiny=args.tiny, serial=args.serial or args.trace
    )
    setup_s = time.perf_counter() - _STARTED
    record: dict = {"setup_s": setup_s}
    if not args.setup_only:
        from repro.obs import metrics

        tracer = None
        with metrics.scoped() as counters:
            if args.trace:
                tracer = LayerTracer()
                with installed(tracer):
                    started = time.perf_counter()
                    workload.run()
                    wall_s = time.perf_counter() - started
            else:
                started = time.perf_counter()
                workload.run()
                wall_s = time.perf_counter() - started
        outcome = workload.check()
        for error in outcome.errors:
            print(f"{args.workload}: {error}", file=sys.stderr)
        record.update(
            wall_s=wall_s,
            attempted=outcome.attempted,
            failed=outcome.failed,
            peak_rss_mb=_peak_rss_mb(),
            observed=outcome.observed,
        )
        if tracer is not None:
            record["layers"] = _layer_metrics(tracer, counters, wall_s, outcome.simulated)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
