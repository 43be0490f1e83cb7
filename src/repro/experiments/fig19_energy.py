"""Fig. 19: relocation contribution to energy per instruction.

The relocation EPI (block read + write per relocation, widened-directory
delta, PV maintenance) of ZIV-MRLikelyDead under Hawkeye at the three L2
points, plus the EPI *saved* in the hierarchy and DRAM versus the
inclusive baseline.

Expected shape (paper): relocation EPI grows with L2 capacity (more
relocations needed) but stays small, and at 512 KB the savings
(hierarchy + DRAM) exceed the relocation cost.
"""

from __future__ import annotations

from repro.energy.model import epi_saving_pj
from repro.experiments.common import FigureResult, get_scale, mix_population
from repro.sim.parallel import make_recipe

L2_POINTS = ("256KB", "512KB", "768KB")


def grid(scale=None) -> dict:
    mixes = mix_population(get_scale(scale))
    return {
        (l2, scheme): [
            make_recipe(wl, scheme, "hawkeye", l2=l2) for wl in mixes
        ]
        for l2 in L2_POINTS
        for scheme in ("inclusive", "ziv:mrlikelydead")
    }


def table(runs: dict) -> FigureResult:
    fig = FigureResult(
        figure="Fig.19",
        title="Relocation EPI of ZIV-MRLikelyDead (Hawkeye) and EPI savings",
        columns=[
            "l2",
            "reloc_epi_pj",
            "saved_hier_pj",
            "saved_dram_pj",
            "net_saving_pj",
        ],
    )
    for l2 in L2_POINTS:
        reloc_epi = 0.0
        saved_hier = 0.0
        saved_dram = 0.0
        bases = runs[l2, "inclusive"]
        for base, ziv in zip(bases, runs[l2, "ziv:mrlikelydead"]):
            insts = ziv.stats.total_instructions
            saving = epi_saving_pj(base.energy, ziv.energy, insts)
            reloc_epi += saving["relocation_cost"]
            saved_hier += saving["hierarchy"]
            saved_dram += saving["dram"]
        n = len(bases)
        reloc_epi /= n
        saved_hier /= n
        saved_dram /= n
        fig.add(
            l2,
            reloc_epi,
            saved_hier,
            saved_dram,
            saved_hier + saved_dram - reloc_epi,
        )
    return fig
