"""Fig. 16: multi-threaded workloads, LRU baseline.

canneal/facesim/vips/applu run on the 8-core machine with the 512 KB-class
L2; the TPC-E-like server profile runs on the scaled many-core machine
whose per-core L2 is half its per-core LLC share.  Each app is normalised
to its own I-LRU baseline.

Expected shape (paper): canneal/facesim/vips barely sensitive; applu and
TPC-E favour ZIV-LikelyDead, which beats even NI on them.
"""

from __future__ import annotations

from repro.experiments.common import FigureResult, get_scale, mt_workload
from repro.params import scaled_manycore_config
from repro.sim.metrics import mix_speedup
from repro.sim.parallel import make_recipe

APPS = ("canneal", "facesim", "vips", "applu")
SCHEMES = (
    ("inclusive", "I"),
    ("noninclusive", "NI"),
    ("qbs", "QBS"),
    ("sharp", "SHARP"),
    ("ziv:notinprc", "ZIV-NotInPrC"),
    ("ziv:likelydead", "ZIV-LikelyDead"),
)


def mt_grid(scale, policy: str, schemes) -> dict:
    """Per app, the I-``policy`` baseline and then every scheme; TPC-E
    runs on the scaled many-core configuration (Fig. 17 shares this
    with its Hawkeye schemes)."""
    scale = get_scale(scale)
    names = ("inclusive", *(scheme for scheme, _label in schemes))
    out = {}
    for app in APPS:
        wl = mt_workload(app, scale, cores=8)
        out[app] = [
            make_recipe(wl, scheme, policy, l2="512KB") for scheme in names
        ]
    mc_cfg = scaled_manycore_config()
    wl = mt_workload("tpce", scale, cores=mc_cfg.cores)
    out["tpce"] = [
        make_recipe(wl, scheme, policy, cores=mc_cfg.cores, config=mc_cfg)
        for scheme in names
    ]
    return out


def mt_table(runs: dict, policy: str, schemes, figure: str) -> FigureResult:
    fig = FigureResult(
        figure=figure,
        title=f"Multi-threaded speedup, {policy} baseline (norm. I-{policy})",
        columns=["app", "scheme", "speedup", "incl_victims", "relocations"],
    )
    for app, (base, *results) in runs.items():
        for (_scheme, label), r in zip(schemes, results):
            fig.add(
                app,
                label,
                mix_speedup(base, r),
                r.stats.inclusion_victims_llc,
                r.stats.relocations,
            )
    return fig


def grid(scale=None) -> dict:
    return mt_grid(scale, "lru", SCHEMES)


def table(runs: dict) -> FigureResult:
    return mt_table(runs, "lru", SCHEMES, "Fig.16")
