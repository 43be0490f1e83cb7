"""Built-in rules (importing this package registers them all)."""

from repro.lint.rules.scope import (  # noqa: F401
    CONCURRENCY_SCOPE,
    DETERMINISM_SCOPE,
    SIMULATOR_SCOPE,
)
from repro.lint.rules import determinism, lock_discipline  # noqa: F401
