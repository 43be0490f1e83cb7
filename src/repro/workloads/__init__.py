"""Synthetic workload generation and characterisation.

Stand-ins for the paper's SPEC CPU 2017 SimPoint traces, PARSEC / SPEC OMP
multi-threaded applications, and the TPC-E server trace (see DESIGN.md
section 3 for the substitution argument), plus reuse-distance analysis
tooling (:mod:`repro.workloads.analysis`).
"""

from repro.workloads.patterns import (
    CircularPattern,
    HotPattern,
    PointerChasePattern,
    RandomPattern,
    StencilPattern,
    StreamingPattern,
)
from repro.workloads.profiles import (
    ALL_PROFILE_NAMES,
    AppProfile,
    build_trace,
    get_profile,
)
from repro.workloads.mixes import (
    heterogeneous_mixes,
    homogeneous_mix,
    homogeneous_mixes,
)
from repro.workloads.multithreaded import (
    MT_APP_NAMES,
    multithreaded_workload,
)
from repro.workloads.ref import SynthRef
from repro.workloads.analysis import (
    TraceProfile,
    format_profile_table,
    profile_trace,
    profile_workload,
    shared_footprint,
)

__all__ = [
    "CircularPattern",
    "HotPattern",
    "PointerChasePattern",
    "RandomPattern",
    "StencilPattern",
    "StreamingPattern",
    "AppProfile",
    "ALL_PROFILE_NAMES",
    "get_profile",
    "build_trace",
    "homogeneous_mix",
    "homogeneous_mixes",
    "heterogeneous_mixes",
    "MT_APP_NAMES",
    "multithreaded_workload",
    "SynthRef",
    "TraceProfile",
    "profile_trace",
    "profile_workload",
    "shared_footprint",
    "format_profile_table",
]
