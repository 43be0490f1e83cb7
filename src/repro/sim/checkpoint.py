"""Checkpoint/resume of in-flight simulations.

A billion-access trace does not fit in one session (or one worker), so
:meth:`repro.sim.engine.Simulation.run` can serialise its complete state
at chunk boundaries and pick up exactly where it left off -- in another
process, on another day.  The contract is **bit-identical resumption**:
an interrupted-then-resumed run produces the same ``SimStats``, energy
ledger, telemetry series and audit report as an uninterrupted one
(``tests/test_checkpoint.py`` enforces this on both engines).

What a checkpoint holds, in one pickle so shared references survive:

* the **hierarchy** -- caches, directory, scheme, CHAR, policy objects
  (whose ``random.Random`` instances carry the RNG position), stats and
  the energy ledger;
* the **telemetry collector** and **invariant auditor**, still
  referencing that same hierarchy object (pickle memoisation keeps the
  identity, so counter deltas stay exact across the seam);
* the **scheduler state** -- the ready-heap (keyed by ready cycle in
  timing mode, by access index in lockstep mode), finish times and the
  global position -- captured between segments, where replaying the
  remaining records is fully deterministic: heap entries are unique per
  core, so the pop order after re-heapify reproduces the uninterrupted
  order;
* the workload **fingerprint** and scheduling mode, checked on resume
  so a checkpoint can never continue onto different trace content.

Files are written atomically (temp + rename); a crash mid-save leaves
the previous checkpoint intact.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

#: Bumped whenever the pickled hierarchy's state changes shape or a
#: stored field changes meaning (3: the fast engine's per-set NotInPrC
#: counts and its one-tail kernel; 4: workload fingerprints hash packed
#: records, so a version-3 checkpoint's fingerprint matches no workload
#: this build fingerprints).
CHECKPOINT_VERSION = 4

#: Magic prefix so a checkpoint is recognisable before unpickling.
_MAGIC = b"ZIVCKPT1\n"


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or applied."""


class SimulationInterrupted(Exception):
    """Raised by :meth:`Simulation.run` when ``stop_after`` is reached.

    The run is *not* finished: its state was saved to
    ``checkpoint_path`` and the caller resumes with
    ``run(resume_from=...)``.  Carries enough to report progress."""

    def __init__(
        self, checkpoint_path, accesses_done: int, total_accesses: int
    ) -> None:
        super().__init__(
            f"simulation checkpointed at access {accesses_done}/"
            f"{total_accesses} -> {checkpoint_path}"
        )
        self.checkpoint_path = str(checkpoint_path)
        self.accesses_done = accesses_done
        self.total_accesses = total_accesses


@dataclass
class SimCheckpoint:
    """Complete mid-run simulation state (see module docstring)."""

    version: int
    workload_fingerprint: str
    scheduling: str
    accesses_done: int
    scheduler_state: dict
    hierarchy: Any
    auditor: Optional[Any] = None
    collector: Optional[Any] = None

    def validate(self, workload_fingerprint: str, scheduling: str) -> None:
        """Refuse to resume onto the wrong trace or scheduling mode."""
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {self.version} unsupported "
                f"(this build speaks {CHECKPOINT_VERSION})"
            )
        if self.workload_fingerprint != workload_fingerprint:
            raise CheckpointError(
                f"checkpoint was taken on workload "
                f"{self.workload_fingerprint[:12]}..., resume requested on "
                f"{workload_fingerprint[:12]}...; refusing to mix trace "
                f"contents"
            )
        if self.scheduling != scheduling:
            raise CheckpointError(
                f"checkpoint used {self.scheduling!r} scheduling, resume "
                f"requested {scheduling!r}"
            )


def save_checkpoint(path, checkpoint: SimCheckpoint) -> None:
    """Atomically write ``checkpoint`` to ``path`` (temp + rename)."""
    if not isinstance(checkpoint, SimCheckpoint):
        raise CheckpointError(
            f"save_checkpoint wants a SimCheckpoint, got "
            f"{type(checkpoint).__name__}"
        )
    path = Path(path)
    directory = path.resolve().parent
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(_MAGIC)
            pickle.dump(checkpoint, f, protocol=pickle.HIGHEST_PROTOCOL)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_checkpoint(path) -> SimCheckpoint:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    path = Path(path)
    try:
        with open(path, "rb") as f:
            magic = f.read(len(_MAGIC))
            if magic != _MAGIC:
                raise CheckpointError(
                    f"{path}: not a simulation checkpoint (bad magic)"
                )
            ck = pickle.load(f)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read ({exc})") from exc
    except (pickle.UnpicklingError, EOFError, AttributeError) as exc:
        raise CheckpointError(
            f"{path}: corrupt or incompatible checkpoint ({exc})"
        ) from exc
    if not isinstance(ck, SimCheckpoint):
        raise CheckpointError(
            f"{path}: pickle holds {type(ck).__name__}, not SimCheckpoint"
        )
    return ck
