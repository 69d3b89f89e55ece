"""Cached construction of datasets, models, workloads and preprocessing plans.

Building a synthetic dataset, its GCN model and the GROW preprocessing plan
is the expensive part of every experiment (graph generation plus
partitioning), so the harness memoises them per (dataset, seed, node-count,
cluster-target) key.  All experiments that share a configuration therefore
reuse the same workload objects, which also guarantees they are compared on
identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerators.workload import LayerWorkload, build_model_workloads
from repro.core.preprocess import GrowPreprocessor, PreprocessPlan
from repro.gcn.layer import GCNModel, build_model_for_dataset
from repro.graph.datasets import SyntheticDataset, load_dataset
from repro.harness.config import ExperimentConfig
from repro.obs import trace


@dataclass
class WorkloadBundle:
    """Everything the simulators need for one dataset under one configuration.

    Attributes:
        dataset: the materialised synthetic dataset.
        model: the two-layer GCN built to the dataset's published configuration.
        workloads: per-layer SpDeGEMM workloads, structure-only: the cycle
            models read sparsity structure and dense shapes, so no phase
            carries a dense RHS (``dense is None``) and X exists only as CSR.
        plan: preprocessing plan with graph partitioning.
        plan_unpartitioned: preprocessing plan without graph partitioning
            (single cluster, globally selected HDNs).
    """

    dataset: SyntheticDataset
    model: GCNModel
    workloads: list[LayerWorkload]
    plan: PreprocessPlan
    plan_unpartitioned: PreprocessPlan

    @property
    def name(self) -> str:
        return self.dataset.name


_BUNDLE_CACHE: dict[tuple, WorkloadBundle] = {}


def _cache_key(name: str, config: ExperimentConfig) -> tuple:
    return (
        name,
        config.seed,
        config.num_nodes_override.get(name),
        config.target_cluster_nodes,
        # Scenario datasets are identified by their full definition, not just
        # their name: two same-named scenarios must never share a bundle.
        # effective_scenario also covers registry-resolved scenarios a config
        # does not carry itself (a redefined registry entry is a new bundle).
        config.effective_scenario(name),
    )


def get_bundle(name: str, config: ExperimentConfig) -> WorkloadBundle:
    """Build (or fetch from cache) the workload bundle of one dataset.

    Scenario definitions carried by the configuration take precedence over
    the process registry, so worker processes rebuild exactly the workload
    the parent described.
    """
    key = _cache_key(name, config)
    if key in _BUNDLE_CACHE:
        return _BUNDLE_CACHE[key]
    with trace.span("workload.bundle", dataset=name):
        with trace.span("workload.load_dataset", dataset=name):
            dataset = load_dataset(
                name,
                num_nodes=config.num_nodes_override.get(name),
                seed=config.seed,
                spec=config.effective_scenario(name),
            )
        with trace.span("workload.build_model", dataset=name):
            model = build_model_for_dataset(dataset, seed=config.seed)
            workloads = build_model_workloads(model)
        preprocessor = GrowPreprocessor(
            target_cluster_nodes=config.target_cluster_nodes, seed=config.seed
        )
        plan = preprocessor.plan_from_graph(dataset.graph, partitioned=True)
        plan_unpartitioned = preprocessor.plan_from_graph(dataset.graph, partitioned=False)
        bundle = WorkloadBundle(
            dataset=dataset,
            model=model,
            workloads=workloads,
            plan=plan,
            plan_unpartitioned=plan_unpartitioned,
        )
    _BUNDLE_CACHE[key] = bundle  # repro: allow(CONC001) per-process workload memo; workers rebuild bundles deterministically from the config
    return bundle


def get_bundles(config: ExperimentConfig) -> dict[str, WorkloadBundle]:
    """Workload bundles for every dataset of the configuration, in order."""
    return {name: get_bundle(name, config) for name in config.datasets}


def clear_caches() -> None:
    """Drop all memoised bundles (used by tests that vary global state)."""
    _BUNDLE_CACHE.clear()
