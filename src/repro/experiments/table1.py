"""Table I: the simulated CMP configurations.

Prints the paper's full-scale parameters next to the geometrically scaled
configuration the reproduction runs, demonstrating that every capacity
ratio the paper identifies as first-order is preserved.
"""

from __future__ import annotations

from repro.experiments.common import FigureResult
from repro.params import paper_scale_config, scaled_config


def grid(scale=None) -> dict:
    """Table I simulates nothing."""
    return {}


def table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Table I",
        title="Simulated CMP configuration: paper scale vs scaled model",
        columns=["parameter", "paper", "scaled", "ratio_preserved"],
    )
    for l2_point in ("256KB", "512KB", "768KB"):
        paper = paper_scale_config(l2_point)
        model = scaled_config(l2_point)
        fig.add(
            f"L2 blocks/core ({l2_point})",
            paper.l2.blocks,
            model.l2.blocks,
            "aggL2/LLC = "
            f"{model.aggregate_l2_blocks / model.llc.blocks:.3f} "
            f"(paper {paper.aggregate_l2_blocks / paper.llc.blocks:.3f})",
        )
    paper = paper_scale_config("256KB")
    model = scaled_config("256KB")
    fig.add("cores", paper.cores, model.cores, "same")
    fig.add("LLC blocks", paper.llc.blocks, model.llc.blocks, "16-way, 8 banks")
    fig.add("L1 blocks/core", paper.l1.blocks, model.l1.blocks, "8-way")
    fig.add(
        "sparse directory",
        f"{paper.directory_provisioning:.1f}x",
        f"{model.directory_provisioning:.1f}x",
        "2x aggregate L2 tags, 8-way, NRU",
    )
    fig.add("LLC policy", "LRU / Hawkeye", "LRU / Hawkeye", "same")
    fig.add("DRAM", "DDR3-2133 x2ch", "event-cost model", "row-buffer+banks")
    return fig
