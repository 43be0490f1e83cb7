"""HTTP client for the simulation service (stdlib ``http.client`` only).

:class:`ServiceClient` speaks the JSON protocol of
:mod:`repro.service.server` -- submit recipes (as dicts or
:class:`~repro.sim.parallel.RunRecipe` objects, converted via
``recipe_to_dict``), wait on jobs, fetch results (both parsed and as
the raw canonical bytes), read the event log, and scrape ``/metrics``.
Every non-2xx response raises :class:`ServiceError` carrying the
server's structured error body, including the offending submission
``field`` for recipe rejections.

Each thread that uses a client holds one persistent HTTP/1.1
connection, opened on its first request; a forked child opens its
own.  ``close()``, or leaving a ``with`` block, closes them all.  The
client connects directly: unlike ``urllib``, it ignores ``http_proxy``.

A job the server resolves from storage is ``done`` at submit, and the
reply to ``POST /v1/jobs`` carries its payload.  The thread keeps that
payload for the job until its next ``submit``, and the first
``result_bytes`` (or ``result``) for that job on the same thread takes
it without a request: a hit is one round trip.

``run_recipes`` is the remote-sweep helper: submit a whole recipe grid
(the server deduplicates and coalesces), then collect payloads in
submission order -- the client-side analogue of
:func:`repro.sim.parallel.run_many`.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import weakref
from typing import Any, Iterable, Optional
from urllib.parse import urlsplit

from repro.config_io import recipe_to_dict
from repro.service.api import split_job_reply

#: How a kept-alive connection fails when the server closed it while it
#: sat idle (a restart, a dropped connection): sending the request, or
#: reading the status line back, finds the socket gone.
_STALE = (http.client.RemoteDisconnected, BrokenPipeError,
          ConnectionResetError)


class ServiceError(Exception):
    """A structured error response from the service.

    ``status`` is the HTTP status code, ``type`` the server-side error
    class name, ``field`` the offending submission field (empty when
    not attributable)."""

    def __init__(self, status: int, type_: str, message: str,
                 field: str = "") -> None:
        super().__init__(message)
        self.status = status
        self.type = type_
        self.field = field

    def __str__(self) -> str:
        base = super().__str__()
        if self.field:
            return f"[{self.status} {self.type}] {base} (field: {self.field})"
        return f"[{self.status} {self.type}] {base}"


class _Slot:
    """One thread's connection, tagged with the process that opened
    it, and the payload its last submission came back with.  Dropped
    with its thread's local storage (the thread ended, or the client
    went away), it closes the connection."""

    def __init__(self, conn: http.client.HTTPConnection) -> None:
        self.pid = os.getpid()
        self.conn = conn
        # (job id, payload) of the last submit, until a result_bytes
        # for that job takes it.
        self.ready: "Optional[tuple[str, bytes]]" = None

    def __del__(self) -> None:
        self.conn.close()


class ServiceClient:
    """A client bound to one service base URL, holding one persistent
    connection per thread.  ``close()`` (or leaving a ``with`` block)
    closes every connection it opened; a later request reopens one."""

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.netloc:
            raise ValueError(
                f"service URL must be http(s)://host[:port]: {base_url!r}"
            )
        self._connection_class = (
            http.client.HTTPSConnection if url.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc = url.netloc
        self._prefix = url.path
        self._local = threading.local()
        self._lock = threading.Lock()
        # Weak: a finished thread's connection goes with its slot.
        self._opened: "weakref.WeakSet[Any]" = weakref.WeakSet()  # repro-lint: guarded-by[_lock]

    # -- transport ---------------------------------------------------------

    def _slot(self) -> _Slot:
        """This thread's slot, created on first use.  A forked child
        must not share its parent's socket, so it makes its own."""
        slot = getattr(self._local, "slot", None)
        if slot is None or slot.pid != os.getpid():
            slot = self._local.slot = _Slot(self._connection_class(
                self._netloc, timeout=self.timeout))
            with self._lock:
                self._opened.add(slot.conn)
        return slot

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> bytes:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        conn = self._slot().conn
        # A socket left open by an earlier request.
        reused = conn.sock is not None

        def exchange() -> http.client.HTTPResponse:
            conn.request(method, self._prefix + path, body=data,
                         headers=headers)
            return conn.getresponse()

        try:
            try:
                response = exchange()
            except _STALE:
                if not reused:
                    raise
                # Once more on a new connection.  A repeated POST is
                # safe: the server dedups by content key, so it adds at
                # most a memo or coalesced job, never a second run.
                conn.close()
                response = exchange()
            raw = response.read()
        except BaseException:
            # Whatever the failure, the connection's state is unknown.
            conn.close()
            raise
        if 200 <= response.status < 300:
            return raw
        try:
            detail = json.loads(raw)["error"]
        except (ValueError, KeyError, TypeError):
            raise ServiceError(
                response.status, "HTTPError", raw.decode(errors="replace")
            ) from None
        raise ServiceError(
            response.status,
            detail.get("type", "Error"),
            detail.get("message", ""),
            detail.get("field", ""),
        )

    def close(self) -> None:
        """Close every connection this client holds, in every thread."""
        with self._lock:
            opened = list(self._opened)
        for conn in opened:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _get_json(self, path: str) -> Any:
        return json.loads(self._request("GET", path))

    # -- protocol ----------------------------------------------------------

    def health(self) -> dict:
        return self._get_json("/healthz")

    def _post_job(self, body: dict) -> "tuple[dict, Optional[bytes]]":
        """Submit one recipe dict: the job view, and the payload the
        reply carries when the job is done at submit (else None)."""
        return split_job_reply(self._request("POST", "/v1/jobs", body=body))

    def submit(self, recipe: Any) -> dict:
        """Submit one recipe (a ``RunRecipe`` or an already-serialized
        dict); returns the job view -- possibly already ``done`` when
        the server had the result cached, in which case this thread
        holds its payload for the next :meth:`result_bytes`."""
        body = recipe if isinstance(recipe, dict) else recipe_to_dict(recipe)
        view, payload = self._post_job(body)
        self._slot().ready = (
            None if payload is None else (view["id"], payload))
        return view

    def job(self, job_id: str) -> dict:
        return self._get_json(f"/v1/jobs/{job_id}")["job"]

    def jobs(self) -> "list[dict]":
        return self._get_json("/v1/jobs")["jobs"]

    def wait(self, job_id: str, timeout: float = 60.0) -> dict:
        """Block (server-side long-poll) until the job is terminal;
        returns its final view.  Raises :class:`ServiceError` if the
        job is still not terminal after ``timeout`` seconds."""
        view = self._get_json(f"/v1/jobs/{job_id}?wait={timeout}")["job"]
        if view["state"] not in ("done", "failed"):
            raise ServiceError(
                408, "Timeout",
                f"job {job_id} still {view['state']} after {timeout}s",
            )
        return view

    def result_bytes(self, job_id: str, timeout: float = 0.0) -> bytes:
        """The canonical result payload, verbatim -- byte-identical
        across every client that resolved the same recipe.  The payload
        of this thread's last submission, if it came back with one, is
        taken without a request, once."""
        slot = self._slot()
        if slot.ready is not None and slot.ready[0] == job_id:
            payload = slot.ready[1]
            slot.ready = None
            return payload
        path = f"/v1/jobs/{job_id}/result"
        if timeout > 0:
            path += f"?wait={timeout}"
        return self._request("GET", path)

    def result(self, job_id: str, timeout: float = 0.0) -> dict:
        """The result payload parsed to a dict."""
        return json.loads(self.result_bytes(job_id, timeout=timeout))

    def events(self, since: int = 0, timeout: float = 0.0) \
            -> "tuple[list[dict], int]":
        """Job events after the ``since`` cursor plus the next cursor;
        ``timeout`` > 0 long-polls for fresh events."""
        path = f"/v1/events?since={since}"
        if timeout > 0:
            path += f"&timeout={timeout}"
        reply = self._get_json(path)
        return reply["events"], reply["next"]

    def metrics(self) -> str:
        """The Prometheus text exposition, verbatim (parse with
        :func:`repro.obs.registry.parse_prometheus`)."""
        return self._request("GET", "/metrics").decode()

    # -- sweeps ------------------------------------------------------------

    def run_recipes(self, recipes: Iterable[Any],
                    timeout: float = 300.0) -> "list[dict]":
        """Submit every recipe, then collect every payload; returns the
        parsed result payloads in submission order.  The server
        deduplicates: a grid with repeated recipes still executes each
        distinct key once.  A hit's payload comes with its submit
        reply; only the other jobs are waited on.  Raises
        :class:`ServiceError` on the first failed job."""
        bodies = [r if isinstance(r, dict) else recipe_to_dict(r)
                  for r in recipes]
        replies = [self._post_job(body) for body in bodies]
        return [
            json.loads(payload if payload is not None
                       else self._collect(body, view, timeout))
            for body, (view, payload) in zip(bodies, replies)
        ]

    def _collect(self, body: dict, view: dict, timeout: float) -> bytes:
        """The payload of a job whose submit reply carried none.  The
        server keeps only its newest terminal jobs, so a job done long
        before this call may be gone (a 404): its body is submitted
        again, which resolves the same key, in one trip once stored."""
        try:
            return self._wait_payload(view["id"], timeout)
        except ServiceError as err:
            if err.status != 404:
                raise
        view, payload = self._post_job(body)
        if payload is not None:
            return payload
        return self._wait_payload(view["id"], timeout)

    def _wait_payload(self, job_id: str, timeout: float) -> bytes:
        final = self.wait(job_id, timeout=timeout)
        if final["state"] == "failed":
            raise ServiceError(
                500, "JobFailed",
                f"job {final['id']} ({final['workload']}) failed: "
                f"{final['error']}",
            )
        return self._request("GET", f"/v1/jobs/{job_id}/result")
