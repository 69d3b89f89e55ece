"""Per-layer self time, measured from outside the program.

The traced run wraps the public entry point of every layer of the pipeline
(graph generation, model synthesis, partitioning, preprocessing, the GROW
cycle model, each baseline simulator, scale-out, the session, the result
cache and the DSE objective) and charges each wrapped call its *self* time:
its duration minus the durations of the wrapped calls nested inside it.  Self
times therefore never double-count, and their sum is the time spent inside
any wrapped call; ``unattributed_s`` is the rest of the timed region.

Wrappers are installed on every name a caller actually looks up: the
defining module's attribute, every ``repro`` module that imported the
function by name (``core.preprocess`` binds ``partition_graph`` at import
time), and, for methods, the class in the MRO that defines them.  They are
all removed again on exit, including copies bound by modules first imported
while tracing was on.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    """One traced layer: its public functions and what it should move.

    Attributes:
        label: metric prefix; the layer reports ``<label>_s`` (self seconds)
            and ``<label>_calls`` unless ``self_metric``/``calls_metric``
            name them otherwise.
        targets: ``"module:qualname"`` of each wrapped public function.
        moves: the end-to-end metric(s) a change to this layer should move.
        on: the workload(s) on which it should move them.
    """

    label: str
    targets: tuple[str, ...]
    moves: str
    on: str
    self_metric: str = ""
    calls_metric: str = ""

    @property
    def self_name(self) -> str:
        return self.self_metric or f"{self.label}_s"

    @property
    def calls_name(self) -> str:
        return self.calls_metric or f"{self.label}_calls"


#: The per-layer -> end-to-end mapping.  Metric names are derived from it, so
#: later changes can cite them (``graph.partition_s`` moves ``wall_s`` on
#: ``sim-grow-100k``).
LAYERS: tuple[Layer, ...] = (
    Layer("graph.load_dataset", ("repro.graph.datasets:load_dataset",),
          "wall_s", "sim-grow-100k (little on others)"),
    Layer("graph.partition", ("repro.graph.partition:partition_graph",),
          "wall_s", "sim-grow-100k, then suite-cold"),
    Layer("gcn.build_model", ("repro.gcn.layer:build_model_for_dataset",),
          "wall_s, peak_rss_mb", "sim-grow-100k"),
    Layer("accelerators.build_workloads",
          ("repro.accelerators.workload:build_model_workloads",),
          "wall_s, peak_rss_mb", "sim-grow-100k"),
    Layer("core.preprocess",
          ("repro.core.preprocess:GrowPreprocessor.plan_from_graph",),
          "wall_s", "sim-grow-100k"),
    Layer("harness.bundle", ("repro.harness.workloads:get_bundle",),
          "peak_rss_mb, setup_s", "sim-grow-100k, dse-sizing"),
    Layer("core.grow_model", ("repro.core.accelerator:GrowSimulator.run_model",),
          "wall_s, ops_per_s", "dse-sizing (about 5 % on sim-grow-100k)"),
    Layer("accelerators.gcnax",
          ("repro.accelerators.gcnax:GCNAXSimulator.run_model",
           "repro.accelerators.gcnax:GCNAXSimulator.run_layer"),
          "wall_s", "suite-cold only"),
    Layer("accelerators.gamma",
          ("repro.accelerators.gamma:GAMMASimulator.run_model",
           "repro.accelerators.gamma:GAMMASimulator.run_layer"),
          "wall_s", "suite-cold only"),
    Layer("accelerators.matraptor",
          ("repro.accelerators.matraptor:MatRaptorSimulator.run_model",
           "repro.accelerators.matraptor:MatRaptorSimulator.run_layer"),
          "wall_s", "suite-cold only"),
    Layer("accelerators.hygcn",
          ("repro.accelerators.hygcn:HyGCNSimulator.run_layer",
           "repro.accelerators.hygcn:HyGCNSimulator.run_layer_from_gcn"),
          "wall_s", "suite-cold only"),
    Layer("core.multipe",
          ("repro.core.multi_pe:MultiPEGrowSimulator.run_aggregation",),
          "wall_s", "suite-cold only"),
    Layer("scaleout.shard_plan", ("repro.scaleout.engine:get_shard_plan",),
          "wall_s", "suite-cold only"),
    Layer("scaleout.run", ("repro.scaleout.engine:ScaleOutSimulator.run",),
          "wall_s", "suite-cold only"),
    Layer("api.session",
          ("repro.api.session:Session.run", "repro.api.session:Session.run_batch"),
          "wall_s", "suite-cold", self_metric="api.session_self_s"),
    # Every registered backend's run(); what a backend does outside the
    # layers above (energy model, result assembly) lands here rather than in
    # the session's self time.
    Layer("api.backend", ("backends",), "wall_s", "suite-cold"),
    Layer("harness.cache_put", ("repro.harness.cache:ResultCache.put",),
          "wall_s", "suite-cold, dse-sizing"),
    Layer("harness.cache_get", ("repro.harness.cache:ResultCache.get",),
          "wall_s", "suite-cold, dse-sizing"),
    Layer("dse.candidate", ("repro.dse.objectives:candidate_metrics",),
          "ops_per_s", "dse-sizing", calls_metric="dse.candidates"),
)

#: Metrics derived from the wrapped calls and the public obs counters, with
#: the end-to-end metric each should move (name -> (unit, better, moves, on)).
DERIVED: dict[str, tuple[str, str, str, str]] = {
    "harness.bundle_reuse_ratio": (
        "ratio", "higher", "peak_rss_mb, setup_s", "sim-grow-100k, dse-sizing"
    ),
    "harness.bundle_rss_mb": ("MB", "lower", "peak_rss_mb", "sim-grow-100k, dse-sizing"),
    "core.grow_host_ns_per_mac": ("ns", "lower", "wall_s, ops_per_s", "dse-sizing"),
    "api.requests": ("count", "lower", "wall_s", "suite-cold"),
    "api.memo_hit_ratio": ("ratio", "higher", "wall_s", "suite-cold"),
    "harness.cache_writes": ("count", "lower", "wall_s", "suite-cold, dse-sizing"),
    "unattributed_s": ("s", "lower", "coverage, not speed", "all"),
    "trace.wall_s": ("s", "lower", "the traced run's wall_s", "all"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced wall_s", "all"),
    "sim.cycles": ("cycles", "lower", "only a declared model fix", "sim-grow-100k"),
    "sim.dram_bytes": ("B", "lower", "only a declared model fix", "sim-grow-100k"),
    "sim.hdn_hit_rate": ("ratio", "higher", "only a declared model fix", "sim-grow-100k"),
}


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    names = []
    for layer in LAYERS:
        names.append((layer.self_name, "s", "lower"))
        names.append((layer.calls_name, "count", "lower"))
    names += [(name, unit, better) for name, (unit, better, _, _) in DERIVED.items()]
    return names


def _resolve(target: str) -> list[tuple[object, str]]:
    """``(owner, attribute)`` pairs a target names; methods resolve to the
    class in the MRO that defines them."""
    if target == "backends":
        from repro.api.backends import get_backend, list_backends

        classes = {type(get_backend(name)) for name in list_backends()}
        pairs = {_defining_class(cls, "run") for cls in classes}
        return sorted(pairs, key=lambda pair: pair[0].__qualname__)
    module_name, _, qualname = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return [_defining_class(owner, attribute)]
    return [(owner, attribute)]


def _defining_class(cls: type, attribute: str) -> tuple[type, str]:
    for klass in cls.__mro__:
        if attribute in vars(klass):
            return klass, attribute
    raise AttributeError(f"{cls.__qualname__} has no attribute {attribute!r}")


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class LayerTracer:
    """Self time and call counts per layer label.

    A call is counted unless its immediate wrapped caller has the same label,
    so a ``run_model`` delegating to its own ``run_layer`` (or ``Session.run``
    to ``run_batch``) is one call, while a session nested inside a backend is
    a call of its own.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {layer.label: 0.0 for layer in LAYERS}
        self.calls: dict[str, int] = {layer.label: 0 for layer in LAYERS}
        self.grow_macs = 0
        self.bundles_built = 0
        self.bundle_rss_kb = 0
        # One entry per active wrapped call: [label, seconds of nested calls].
        self._stack: list[list] = []

    def wrap(self, label: str, fn):
        """A wrapper charging calls of ``fn`` to ``label``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = self._stack[-1][0] if self._stack else None
            if caller != label:
                self.calls[label] += 1
            loads_before = self.calls["graph.load_dataset"]
            rss_before = _max_rss_kb() if label == "harness.bundle" else 0
            frame = [label, 0.0]
            self._stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self._stack.pop()
                self.self_s[label] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
            if label == "harness.bundle":
                # A bundle call that generated a dataset built the bundle;
                # any other call was served from the memo.
                if self.calls["graph.load_dataset"] > loads_before:
                    self.bundles_built += 1
                self.bundle_rss_kb += _max_rss_kb() - rss_before
            elif label == "core.grow_model":
                self.grow_macs += int(result.total_mac_operations)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    @property
    def attributed_s(self) -> float:
        return sum(self.self_s.values())

    def metrics(self) -> dict[str, float]:
        """Self seconds and calls per layer, plus the call-derived ratios."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[layer.self_name] = self.self_s[layer.label]
            out[layer.calls_name] = float(self.calls[layer.label])
        bundle_calls = self.calls["harness.bundle"]
        out["harness.bundle_reuse_ratio"] = (
            (bundle_calls - self.bundles_built) / bundle_calls if bundle_calls else 0.0
        )
        out["harness.bundle_rss_mb"] = self.bundle_rss_kb / 1024.0
        out["core.grow_host_ns_per_mac"] = (
            self.self_s["core.grow_model"] * 1e9 / self.grow_macs if self.grow_macs else 0.0
        )
        return out


def _max_rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@contextmanager
def installed(tracer: LayerTracer):
    """Install ``tracer``'s wrappers for the duration of the block."""
    originals: dict[int, object] = {}
    wrappers: dict[int, object] = {}
    patched: list[tuple[object, str, object]] = []

    def patch(owner, attribute: str, original, label: str) -> None:
        if id(original) not in wrappers:
            wrappers[id(original)] = tracer.wrap(label, original)
            originals[id(original)] = original
        patched.append((owner, attribute, original))
        setattr(owner, attribute, wrappers[id(original)])

    try:
        functions: dict[int, str] = {}
        for layer in LAYERS:
            for target in layer.targets:
                for owner, attribute in _resolve(target):
                    original = vars(owner)[attribute]
                    patch(owner, attribute, original, layer.label)
                    if not isinstance(owner, type):
                        functions[id(original)] = layer.label
        # Modules that imported a wrapped function by name hold their own
        # binding; patch those too.
        for module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                if id(value) in functions and originals.get(id(value)) is value:
                    patch(module, attribute, value, functions[id(value)])
        yield tracer
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)
        # A module first imported while tracing was on bound the wrapper.
        by_wrapper = {id(w): originals[key] for key, w in wrappers.items()}
        for module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                if id(value) in by_wrapper:
                    setattr(module, attribute, by_wrapper[id(value)])
