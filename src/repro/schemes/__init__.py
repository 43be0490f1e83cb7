"""LLC inclusion schemes: how the LLC selects victims and treats the
private caches on eviction.

* ``inclusive`` -- baseline inclusive LLC with back-invalidations.
* ``noninclusive`` -- no back-invalidations (implements fill-on-miss only).
* ``qbs`` -- TLA query-based selection (Jaleel et al., MICRO 2010).
* ``sharp`` -- SHARP victim selection (Yan et al., ISCA 2017).
* ``charonbase`` -- CHAR-assisted in-set victim choice (paper Section V-A).
* ``ziv`` -- the paper's contribution, in :mod:`repro.core.ziv`, and its
  oracle-assisted variant in :mod:`repro.core.oracle_ziv`.
"""

from repro.schemes.base import InclusionScheme
from repro.schemes.inclusive import InclusiveScheme
from repro.schemes.noninclusive import NonInclusiveScheme
from repro.schemes.qbs import QBSScheme
from repro.schemes.sharp import SHARPScheme
from repro.schemes.charonbase import CHAROnBaseScheme
from repro.schemes.tla import ECIScheme, TLHScheme

__all__ = [
    "InclusionScheme",
    "InclusiveScheme",
    "NonInclusiveScheme",
    "QBSScheme",
    "SHARPScheme",
    "CHAROnBaseScheme",
    "TLHScheme",
    "ECIScheme",
    "SCHEMES",
    "make_scheme",
]


#: The schemes :func:`make_scheme` builds by their plain name.
SCHEMES = {
    "inclusive": InclusiveScheme,
    "noninclusive": NonInclusiveScheme,
    "qbs": QBSScheme,
    "sharp": SHARPScheme,
    "charonbase": CHAROnBaseScheme,
    "tlh": TLHScheme,
    "eci": ECIScheme,
}


def make_scheme(name: str, **kwargs) -> InclusionScheme:
    """Build an inclusion scheme by name.

    ZIV variants are named ``"ziv:<property>"`` with property one of
    ``notinprc``, ``lrunotinprc``, ``maxrrpvnotinprc``, ``likelydead``,
    ``mrlikelydead`` (see :mod:`repro.core.ziv`), and ``"ziv:oracle"``
    is the oracle-assisted design (:mod:`repro.core.oracle_ziv`), which
    takes the next-use ``oracle`` keyword.
    """
    from repro.core.oracle_ziv import OracleZIVScheme
    from repro.core.ziv import ZIVScheme  # local import to avoid a cycle

    if name == "ziv:oracle":
        return OracleZIVScheme(**kwargs)
    if name.startswith("ziv:"):
        return ZIVScheme(property_name=name.split(":", 1)[1], **kwargs)
    try:
        cls = SCHEMES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; known: {sorted(SCHEMES)}, "
            f"'ziv:<prop>' or 'ziv:oracle'"
        ) from None
    return cls(**kwargs)
