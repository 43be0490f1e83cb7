"""The HTTP/JSON surface of the simulation service (stdlib only).

A :class:`ServiceServer` wraps a ``ThreadingHTTPServer`` (one thread
per connection, daemonic) around a :class:`~repro.service.jobs.
JobManager`.  Endpoints -- the authoritative reference with examples
lives in ``docs/SERVICE.md``:

====================================  =====================================
``GET  /``                            service + endpoint index
``GET  /healthz``                     liveness probe with job tallies
``POST /v1/jobs``                     submit one recipe dict -> job view,
                                      and the result payload when the
                                      job is done at submit
``GET  /v1/jobs``                     the kept job views
``GET  /v1/jobs/<id>``                one job view (``?wait=S`` blocks
                                      until terminal)
``GET  /v1/jobs/<id>/result``         deterministic result payload
                                      (``?wait=S`` blocks)
``GET  /v1/events``                   job-event log (``?since=N`` cursor,
                                      ``?timeout=S`` long-poll)
``GET  /v1/events/stream``            the same log as Server-Sent Events
``GET  /metrics``                     Prometheus text exposition (ledger
                                      aggregation + service counters)
====================================  =====================================

Connections are HTTP/1.1 keep-alive, with ``TCP_NODELAY`` on every
accepted socket.  The server closes a connection after a response that
left request-body bytes unread, after a Server-Sent Events stream, and
at shutdown.  A peer that resets or drops its connection ends it
quietly: that is no server fault.

Error contract: every non-2xx response is structured JSON --
``{"error": {"type", "message", "field"}}`` -- where ``field`` names
the offending submission key (``"config.engine"``) when one is
attributable.  A malformed recipe is a 400 with its field, never a
bare 500; unexpected server faults are 500s that still carry the
structured body.
"""

from __future__ import annotations

import functools
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import parse_qs, urlsplit

from repro.config_io import RecipeError, recipe_from_dict
from repro.obs.registry import LedgerAggregate
from repro.params import ConfigError
from repro.service.api import job_reply, result_to_json
from repro.service.jobs import JobManager

#: Bounds on ``?wait=``/``?timeout=`` so a client cannot pin a server
#: thread forever.
MAX_WAIT_S = 300.0

#: Bounds on the parsed-body memo: the number of bodies it keeps, and
#: the size of the largest body it keeps.  (The job manager's bounds are
#: ``jobs.KEPT_JOBS`` and ``jobs.KEPT_EVENTS``.)
BODY_MEMO_ENTRIES = 1024
BODY_MEMO_MAX_BYTES = 64 * 1024

#: How a connection fails when its peer has gone: reset, aborted, or
#: closed before a write.
_PEER_GONE = (ConnectionResetError, ConnectionAbortedError, BrokenPipeError)


class _RequestError(Exception):
    """Internal: maps straight to one structured JSON error response."""

    def __init__(self, status: int, type_: str, message: str,
                 field: str = "") -> None:
        super().__init__(message)
        self.status = status
        self.type_ = type_
        self.field = field


def _parse_body(body: bytes) -> Any:
    """The keyed :class:`~repro.sim.parallel.RunRecipe` a ``POST
    /v1/jobs`` body describes.  A pure function of the bytes, so the
    server memoizes it; a body it rejects raises the 400 it gets, and
    nothing is memoized for it."""
    try:
        data = json.loads(body)
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise _RequestError(
            400, "BadRequest", f"invalid JSON body: {exc}"
        ) from exc
    try:
        recipe = recipe_from_dict(data)
    except RecipeError as exc:
        raise _RequestError(400, "RecipeError", str(exc),
                            field=exc.field) from exc
    except ConfigError as exc:
        raise _RequestError(400, "ConfigError", str(exc)) from exc
    recipe.key()
    return recipe


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on each accepted socket.  A response leaves as two
    # writes, headers then body; under Nagle's algorithm the body waits
    # for the ACK of the headers, which a keep-alive peer delays by up
    # to 40 ms.
    disable_nagle_algorithm = True
    # Whether the current request's body is still on the socket.
    _body_unread = False

    # The ThreadingHTTPServer subclass carries the manager.
    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def handle_one_request(self) -> None:
        try:
            super().handle_one_request()
        except _PEER_GONE:
            # A client reset an idle keep-alive connection while this
            # thread waited for its next request, or went away
            # mid-response: the connection ends, and nothing is
            # reported.  Any other exception reaches the server's
            # error handler.
            self.close_connection = True

    def _send_bytes(self, status: int, body: bytes,
                    content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._body_unread:
            # The unread bytes would parse as the next request on this
            # connection, so it ends with this response.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, obj: Any) -> None:
        self._send_bytes(
            status,
            json.dumps(obj, sort_keys=True).encode(),
            "application/json",
        )

    def _send_error_json(self, err: _RequestError) -> None:
        self._send_json(err.status, {"error": {
            "type": err.type_,
            "message": str(err),
            "field": err.field,
        }})

    def _query(self) -> "dict[str, str]":
        return {
            k: v[-1] for k, v in parse_qs(urlsplit(self.path).query).items()
        }

    def _wait_seconds(self, query: "dict[str, str]", key: str) -> float:
        raw = query.get(key)
        if raw is None:
            return 0.0
        try:
            return max(0.0, min(float(raw), MAX_WAIT_S))
        except ValueError:
            raise _RequestError(
                400, "BadRequest", f"{key} must be a number", field=key
            ) from None

    def _since(self, query: "dict[str, str]") -> int:
        """The event cursor both event endpoints take (default 0)."""
        try:
            return int(query.get("since", "0"))
        except ValueError:
            raise _RequestError(400, "BadRequest",
                                "since must be an integer",
                                field="since") from None

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length <= 0:
            raise _RequestError(400, "BadRequest",
                                "request needs a JSON body")
        raw = self.rfile.read(length)
        self._body_unread = False
        return raw

    # -- dispatch ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        # Set for any announced body: one whose length is malformed or
        # chunked is never read, and neither is one sent to an endpoint
        # that takes none.
        self._body_unread = (
            "Transfer-Encoding" in self.headers
            or self.headers.get("Content-Length", "0") != "0"
        )
        path = urlsplit(self.path).path.rstrip("/") or "/"
        try:
            handler = self._route(method, path)
            if handler is None:
                raise _RequestError(
                    404, "NotFound", f"no such endpoint: {method} {path}"
                )
            handler()
        except _RequestError as err:
            self._send_error_json(err)
        except _PEER_GONE:  # e.g. a subscriber went away mid-stream
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - structured 500, not bare
            self._send_error_json(_RequestError(
                500, type(exc).__name__, str(exc)
            ))

    def _route(self, method: str, path: str) -> Optional[Any]:
        if method == "GET":
            fixed = {
                "/": self._get_index,
                "/healthz": self._get_health,
                "/v1/jobs": self._get_jobs,
                "/v1/events": self._get_events,
                "/v1/events/stream": self._get_events_stream,
                "/metrics": self._get_metrics,
            }
            if path in fixed:
                return fixed[path]
            if path.startswith("/v1/jobs/"):
                rest = path[len("/v1/jobs/"):]
                if rest.endswith("/result"):
                    job_id = rest[: -len("/result")]
                    return lambda: self._get_result(job_id)
                if "/" not in rest:
                    return lambda: self._get_job(rest)
            return None
        if method == "POST" and path == "/v1/jobs":
            return self._post_job
        return None

    # -- endpoints ---------------------------------------------------------

    def _get_index(self) -> None:
        self._send_json(200, {
            "service": "repro-simulation-service",
            "endpoints": [
                "GET /healthz",
                "POST /v1/jobs",
                "GET /v1/jobs",
                "GET /v1/jobs/<id>",
                "GET /v1/jobs/<id>/result",
                "GET /v1/events",
                "GET /v1/events/stream",
                "GET /metrics",
            ],
        })

    def _get_health(self) -> None:
        self._send_json(200, {"ok": True,
                              "jobs": self.manager.state_counts(),
                              "workers": self.manager.workers,
                              "mode": self.manager.mode})

    def _post_job(self) -> None:
        try:
            body = self._read_body()
            parse = (self.server.parse_body  # type: ignore[attr-defined]
                     if len(body) <= BODY_MEMO_MAX_BYTES else _parse_body)
            recipe = parse(body)
        except _RequestError:
            self.manager.record_rejection()
            raise
        view = self.manager.submit(recipe)
        # A job done at submit carries its payload: a hit takes one
        # round trip.
        payload = (self.manager.payload(view["key"], result_to_json)
                   if view["state"] == "done" else None)
        self._send_bytes(202, job_reply(view, payload), "application/json")

    def _get_jobs(self) -> None:
        self._send_json(200, {"jobs": self.manager.jobs()})

    def _get_job(self, job_id: str) -> None:
        wait_s = self._wait_seconds(self._query(), "wait")
        if wait_s > 0:
            view = self.manager.wait(job_id, timeout=wait_s)
        else:
            view = self.manager.get(job_id)
        if view is None:
            raise _RequestError(404, "NotFound",
                                f"unknown job {job_id!r}")
        self._send_json(200, {"job": view})

    def _get_result(self, job_id: str) -> None:
        wait_s = self._wait_seconds(self._query(), "wait")
        view = (
            self.manager.wait(job_id, timeout=wait_s) if wait_s > 0
            else self.manager.get(job_id)
        )
        if view is None:
            raise _RequestError(404, "NotFound",
                                f"unknown job {job_id!r}")
        if view["state"] == "failed":
            raise _RequestError(409, "JobFailed", view["error"])
        if view["state"] != "done":
            raise _RequestError(
                409, "JobNotDone",
                f"job {job_id} is {view['state']}; poll or pass ?wait=S",
            )
        payload = self.manager.payload(view["key"], result_to_json)
        if payload is None:  # result cache disabled and memo evicted
            raise _RequestError(
                410, "ResultGone",
                f"result for job {job_id} is no longer stored",
            )
        self._send_bytes(200, payload, "application/json")

    def _get_events(self) -> None:
        query = self._query()
        since = self._since(query)
        timeout = self._wait_seconds(query, "timeout")
        events, cursor, dropped = self.manager.events_since(
            since, timeout=timeout)
        self._send_json(200, {"events": events, "next": cursor,
                              "dropped": dropped})

    def _get_events_stream(self) -> None:
        """Server-Sent Events: one ``data:`` line per job event, from
        the ``since`` cursor onward, until the client disconnects or
        the server shuts down."""
        cursor = self._since(self._query())
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        while not getattr(self.server, "stopping", False):
            events, cursor, _ = self.manager.events_since(
                cursor, timeout=1.0
            )
            for event in events:
                line = json.dumps(event, sort_keys=True)
                self.wfile.write(f"data: {line}\n\n".encode())
            if events:
                self.wfile.flush()

    def _get_metrics(self) -> None:
        registry = self.server.ledger.snapshot()  # type: ignore[attr-defined]
        self.manager.fill_registry(registry)
        self._send_bytes(
            200, registry.to_prometheus().encode(),
            "text/plain; version=0.0.4",
        )


class _HTTPServer(ThreadingHTTPServer):
    """The listener: one daemon thread per connection.  It keeps the
    open connections so that closing it also drops idle keep-alive
    ones, whose threads would otherwise go on answering from a closed
    job manager."""

    def __init__(self, address: "tuple[str, int]", manager: JobManager,
                 verbose: bool) -> None:
        super().__init__(address, _Handler)
        self.manager = manager
        self.verbose = verbose
        # Thread-safe; exceptions (rejected bodies) are never cached.
        self.parse_body = functools.lru_cache(BODY_MEMO_ENTRIES)(_parse_body)
        self.ledger = LedgerAggregate()
        self.stopping = False
        self._conns_lock = threading.Lock()
        self._conns: "set[socket.socket]" = set()  # repro-lint: guarded-by[_conns_lock]

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._conns_lock:
            self._conns.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._conns_lock:
            self._conns.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                # Wakes a thread blocked reading the next request; it
                # sees end-of-stream and closes the socket.
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # closed meanwhile
                pass


class ServiceServer:
    """One simulation-service instance: HTTP front, job manager back.

    ``start()`` serves on a daemon thread (the in-process form the
    docs and tests use); ``serve_forever()`` serves on the calling
    thread (the ``repro serve`` CLI).  ``close()`` is idempotent and
    shuts down both the HTTP listener and the worker pool."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: Optional[int] = None, mode: str = "process",
                 verbose: bool = False) -> None:
        self.manager = JobManager(workers=workers, mode=mode)
        self._httpd = _HTTPServer((host, port), self.manager, verbose)
        # Lifecycle state.  Without the lock, two concurrent close()
        # calls both pass the check-then-act on _closed and server_close
        # runs twice on one socket (found by `repro lint` bring-up,
        # regression-tested in tests/test_service.py).
        self._state_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None  # repro-lint: guarded-by[_state_lock]
        self._closed = False  # repro-lint: guarded-by[_state_lock]

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]  # type: ignore[return-value]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        """Serve on a background daemon thread; returns self."""
        with self._state_lock:
            if self._closed:
                raise RuntimeError("service server is closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._httpd.serve_forever,
                    name="repro-service-http", daemon=True,
                )
                self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._httpd.serve_forever()

    def close(self) -> None:
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
            self._thread = None
        # Exactly one caller reaches this point; the teardown itself
        # runs unlocked so a concurrent (idempotent) close() never
        # blocks behind shutdown().
        self._httpd.stopping = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)
        self.manager.close()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def create_server(host: str = "127.0.0.1", port: int = 0,
                  workers: Optional[int] = None, mode: str = "process",
                  verbose: bool = False) -> ServiceServer:
    """Build (but do not start) a service instance.  ``port=0`` binds a
    free ephemeral port -- read it back from ``server.port``/
    ``server.url``."""
    return ServiceServer(host=host, port=port, workers=workers,
                         mode=mode, verbose=verbose)
