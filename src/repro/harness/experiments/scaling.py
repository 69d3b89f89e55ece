"""Scalability and sensitivity studies: Figures 24 and 25."""

from __future__ import annotations

from repro.harness.config import ExperimentConfig
from repro.harness.experiments.common import simulate
from repro.harness.registry import register
from repro.harness.report import ExperimentResult


@register("fig24_pe_scaling")
def fig24_pe_scaling(config: ExperimentConfig) -> ExperimentResult:
    """Aggregation throughput as PEs (and bandwidth) scale from 1 to 16."""
    from repro.api import SimRequest, get_session

    pe_counts = (1, 2, 4, 8, 16)
    result = ExperimentResult(
        name="fig24_pe_scaling",
        paper_reference="Figure 24",
        description="Aggregation throughput normalised to a single PE (proportional bandwidth)",
        columns=["dataset"] + [f"pe_{p}" for p in pe_counts],
    )
    session = get_session()
    for name in config.datasets:
        sweep = {}
        for num_pes in pe_counts:
            run = session.run(
                SimRequest.from_experiment(
                    config, name, backend="multipe", overrides={"num_pes": num_pes}
                )
            )
            # The figure plots the first layer's aggregation phase, the one
            # the paper's scalability study measures.
            sweep[num_pes] = run.detail["layers"][0]["throughput_vs_single"]
        result.add_row(dataset=name, **{f"pe_{p}": sweep[p] for p in pe_counts})
    return result


@register("fig25a_runahead_sweep")
def fig25a_runahead_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Throughput as the runahead degree is swept from 1 to 32."""
    degrees = (1, 2, 4, 8, 16, 32)
    result = ExperimentResult(
        name="fig25a_runahead_sweep",
        paper_reference="Figure 25(a)",
        description="GROW throughput normalised to 1-way runahead execution",
        columns=["dataset"] + [f"way_{d}" for d in degrees],
    )
    for name in config.datasets:
        # ``ldn_table_entries`` acts through ``min(degree, entries)``, so it
        # grows with the degree or degrees above 16 would alias.
        cycles = {
            d: simulate(
                config, name, "grow", runahead_degree=d, ldn_table_entries=max(16, d)
            ).total_cycles
            for d in degrees
        }
        base = cycles[1]
        result.add_row(dataset=name, **{f"way_{d}": base / cycles[d] for d in degrees})
    return result


@register("fig25b_bandwidth_sweep")
def fig25b_bandwidth_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Sensitivity of GCNAX and GROW to off-chip memory bandwidth."""
    factors = (0.25, 0.5, 1.0, 2.0, 4.0)
    result = ExperimentResult(
        name="fig25b_bandwidth_sweep",
        paper_reference="Figure 25(b)",
        description=(
            "Throughput across relative bandwidth factors, each design normalised "
            "to its own nominal-bandwidth (1.0x) point"
        ),
        columns=["dataset", "design"] + [f"bw_{f}x" for f in factors],
        notes=[
            "A steeper slope means higher sensitivity to memory bandwidth; "
            "GCNAX should be steeper than GROW."
        ],
    )
    for name in config.datasets:
        for design in ("gcnax", "grow"):
            cycles = {
                f: simulate(
                    config.with_bandwidth(config.bandwidth_gbps * f), name, design
                ).total_cycles
                for f in factors
            }
            base = cycles[1.0]
            result.add_row(
                dataset=name,
                design=design,
                **{f"bw_{f}x": base / cycles[f] for f in factors},
            )
    return result
