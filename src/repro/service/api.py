"""Wire formats of the simulation service.

The submission side is :mod:`repro.config_io` (``recipe_from_dict``
with its field-attributed :class:`~repro.config_io.RecipeError`
rejections); this module owns the *response* side: a deterministic
JSON form of :class:`~repro.sim.engine.SimResult`, and the reply to
``POST /v1/jobs`` that carries it (:func:`job_reply`, read back by
:func:`split_job_reply`).

Determinism is a contract, not a nicety: the server serialises every
result with ``json.dumps(..., sort_keys=True)``, and two clients that
resolved the same recipe -- whether both were served from one
execution, or one hit the disk cache a week later -- receive
**byte-identical payloads**.  The service smoke test and
``tests/test_service.py`` assert exactly that.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Optional

#: How a ``POST /v1/jobs`` reply opens, and what precedes the result
#: payload it carries when the job was done at submit.
_JOB = b'{"job": '
_RESULT = b', "result": '
_DECODER = json.JSONDecoder()


def _sanitize(value: Any) -> Any:
    """Deterministic JSON-ready projection of a result substructure.

    Dict keys are stringified (JSON objects only key on strings; int
    keys in e.g. histogram extras must not round-trip ambiguously),
    tuples become lists, a dataclass instance becomes the dict of its
    fields (walked in place, not copied by ``dataclasses.asdict``),
    and anything non-native falls back to ``repr`` -- never silently
    dropped."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _sanitize(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return repr(value)


def result_to_dict(result: Any) -> dict:
    """JSON-ready form of one :class:`~repro.sim.engine.SimResult`.

    Counters come over verbatim (``stats`` is the full
    :class:`~repro.sim.stats.SimStats` tree, per-core breakdown
    included); the optional instrumentation attachments collapse to
    their summaries -- the service serves *results*, not transcripts,
    and the full telemetry/audit objects stay in the result cache.
    ``phases`` (wall-clock phase times) stays out, so every client of a
    recipe receives the same bytes."""
    stats = _sanitize(result.stats)
    audit = None
    if result.audit is not None:
        audit = {
            "ok": result.audit.ok,
            "violations": len(result.audit.violations),
            "sweeps": result.audit.sweeps,
            "truncated": result.audit.truncated,
        }
    telemetry = None
    if result.telemetry is not None:
        telemetry = {
            "samples": len(result.telemetry.series),
            "events": len(result.telemetry.events),
        }
    return {
        "workload": result.workload,
        "scheme": result.scheme,
        "policy": result.policy,
        "cycles": result.cycles,
        "summary": _sanitize(result.stats.summary()),
        "stats": stats,
        "ipc_per_core": list(result.ipc_per_core),
        "scheme_stats": _sanitize(result.scheme_stats),
        "energy": _sanitize(result.energy),
        "audit": audit,
        "telemetry": telemetry,
    }


def result_to_json(result: Any) -> bytes:
    """The canonical payload bytes: sorted keys, compact separators --
    the exact bytes every client of the same recipe receives."""
    return json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    ).encode()


def job_reply(view: dict, payload: Optional[bytes] = None) -> bytes:
    """The body of a ``POST /v1/jobs`` reply:
    ``json.dumps({"job": view, "result": ...}, sort_keys=True)``, with
    the payload's stored bytes spliced in unparsed ("job" sorts
    first).  Without a payload, the reply is ``{"job": view}``."""
    reply = _JOB + json.dumps(view, sort_keys=True).encode()
    if payload is not None:
        reply += _RESULT + payload
    return reply + b"}"


def split_job_reply(raw: bytes) -> "tuple[dict, Optional[bytes]]":
    """The job view of a :func:`job_reply`, and the payload it carries,
    verbatim (None when it carries none).  The reply is ASCII JSON, so
    a character offset into it is a byte offset."""
    view, end = _DECODER.raw_decode(raw.decode(), len(_JOB))
    if raw.startswith(_RESULT, end):
        return view, raw[end + len(_RESULT):-1]
    return view, None
