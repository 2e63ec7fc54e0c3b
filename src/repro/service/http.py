"""The stdlib HTTP layer: routing, strict deserialization, streaming.

A thin, dependency-free transport over :class:`~repro.service.app.
ReproService` built on :class:`http.server.ThreadingHTTPServer` — one
daemon thread per connection, which is exactly what the coalescing
discipline needs (followers *block* on the leader's event; threads make
that free) and what streaming needs (a reader parked on a job's
condition variable costs one thread, not a poll loop).

Routes (all JSON in, JSON out)::

    POST /v1/run                 one spec -> fingerprinted result
    POST /v1/jobs                spec batch -> job id (idempotent)
    GET  /v1/jobs/<id>           progress + cluster status
    GET  /v1/jobs/<id>/stream    NDJSON of {index, result}, batch order
    GET  /v1/jobs/<id>/events    NDJSON job event stream (?after=<cursor>
                                 resumes exactly-once; ?follow=0 returns
                                 the backlog and closes)
    GET  /v1/registry            families / algorithms / policies / models
    GET  /v1/healthz             liveness + measured load
    GET  /v1/metrics             request counts, run split, latency histograms
                                 (?format=prometheus for text exposition)

Contract details the tests pin:

* Strict deserialization — a spec payload with unknown fields is a
  **400** whose body names the offending fields
  (:class:`~repro.errors.SpecFormatError` text), never a silent drop.
* The spec (or plan) fingerprint is echoed in the
  ``X-Repro-Fingerprint`` response header.
* A body larger than :data:`MAX_BODY_BYTES` is a **413** sent before
  any of it is read; a connection that stalls for
  :data:`REQUEST_TIMEOUT_S` mid-request is closed (a stalled body
  gets a **408** first).
* Poison specs are *answers*, not errors: captured failures return 200
  with ``failed: true`` and the serialized
  :class:`~repro.results.FailedResult` in ``result``.
* A run the service cannot take now — the solve pool holds its bound
  of in-flight runs, or a pool worker died under it — is a **503**
  with ``Retry-After``; cache hits and coalesced followers are never
  refused.
* A ``POST /v1/run`` answer is the sorted JSON envelope
  ``{"failed", "fingerprint", "result", "source"}`` around the result's
  memoized :meth:`~repro.results.RunResult.to_json` text; like every
  non-streamed response, its status line, headers and body are
  buffered and leave in one socket write.
* The stream endpoint speaks HTTP/1.0 with ``Connection: close`` and
  no Content-Length: each line is flushed as its slot fills, and EOF
  marks the end of the batch — readable with nothing but ``urllib``.
* The events endpoint streams the job's live event log
  (:mod:`repro.telemetry.events`) the same way; every event line
  carries a ``cursor`` field, and reconnecting with
  ``?after=<that cursor>`` replays nothing and misses nothing.
* Every response — errors included — carries ``X-Repro-Elapsed-Ms``
  (wall-clock from dispatch to the response headers; a streamed
  response stamps the time to stream *start*), and every finished
  request feeds the service's
  :class:`~repro.telemetry.metrics.MetricsRegistry` under its
  normalized route (``GET /v1/jobs/<id>`` — never raw ids).
"""

from __future__ import annotations

import json
import re
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs

from repro.api.spec import RunSpec
from repro.errors import ReproError, ServiceUnavailable
from repro.service.app import RETRY_AFTER_S, ReproService, registry_payload
from repro.telemetry.events import events_dir_of, parse_cursor, read_events
from repro.telemetry.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.telemetry.trace import trace

_JOB_ROUTE = re.compile(
    r"^/v1/jobs/(?P<job>[0-9a-f]{64})(?P<sub>/stream|/events)?$"
)

#: Seconds between event-stream polls while the job still runs.
EVENTS_POLL_S = 0.15

#: Largest request body accepted, in bytes.  A spec serializes to a few
#: hundred bytes, so this admits job batches of tens of thousands of
#: specs; a larger ``Content-Length`` is refused with 413 before any of
#: the body is read.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Socket timeout, in seconds, for every connection.  A client that
#: stalls mid-request (headers or body) has its connection closed
#: instead of holding a handler thread forever.
REQUEST_TIMEOUT_S = 30.0

#: Write buffer of every connection, in bytes.  A response's status
#: line, headers and body collect in it and leave in one socket write
#: when the handler finishes (a larger body in two); the streaming
#: endpoints flush their headers and each line themselves.
WRITE_BUFFER_BYTES = 64 * 1024


def _endpoint_label(path: str) -> str:
    """Collapse a request path onto its route template for metrics.

    Job ids must not explode the per-endpoint metric space, so both
    job routes normalize to placeholder labels; paths that match no
    route at all pool under ``<other>``.
    """
    if path in ("/v1/run", "/v1/jobs", "/v1/registry", "/v1/healthz", "/v1/metrics"):
        return path
    match = _JOB_ROUTE.match(path)
    if match:
        return f"/v1/jobs/<id>{match.group('sub') or ''}"
    return "<other>"


class _HttpError(Exception):
    """A client-visible error: status code + JSON body."""

    def __init__(
        self,
        status: int,
        kind: str,
        message: str,
        *,
        headers: dict[str, str] | None = None,
        **extra: Any,
    ):
        super().__init__(message)
        self.status = status
        self.payload = {"error": kind, "message": message, **extra}
        self.headers = headers


def _parse_spec(payload: Any, *, where: str) -> RunSpec:
    """Deserialize one RunSpec dict strictly; 400 on anything off.

    :class:`~repro.errors.SpecFormatError` (unknown fields) and every
    other spec-construction failure — missing keys, wrong types, bad
    parameter values — map to 400 with the library's own message, which
    names the offending field.
    """
    if not isinstance(payload, dict):
        raise _HttpError(
            400,
            "spec_format",
            f"{where} must be a RunSpec JSON object, got "
            f"{type(payload).__name__}",
        )
    try:
        return RunSpec.from_dict(payload)
    except (ReproError, ValueError, KeyError, TypeError) as exc:
        raise _HttpError(
            400, "spec_format", f"{where}: {exc}"
        ) from exc


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the bound :class:`ReproService`.

    Subclasses are minted per server by :func:`make_server` with the
    ``service`` class attribute bound; ``protocol_version`` stays at
    HTTP/1.0 so streamed responses are delimited by connection close
    (no chunked encoding to hand-roll, every stdlib client can read
    it).
    """

    service: ReproService
    quiet = True
    protocol_version = "HTTP/1.0"
    timeout = REQUEST_TIMEOUT_S
    wbufsize = WRITE_BUFFER_BYTES

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    def _elapsed_ms(self) -> float:
        started = getattr(self, "_dispatch_started", None)
        if started is None:
            return 0.0
        return (time.perf_counter() - started) * 1000.0

    def _send_body(
        self,
        status: int,
        body: bytes,
        *,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._status_sent = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Repro-Elapsed-Ms", f"{self._elapsed_ms():.3f}")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        *,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True, default=repr).encode()
        self._send_body(
            status, body, content_type="application/json", headers=headers
        )

    def _read_json(self) -> Any:
        length_text = self.headers.get("Content-Length") or "0"
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(
                400, "bad_request", f"unreadable Content-Length {length_text!r}"
            )
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413,
                "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        try:
            raw = self.rfile.read(length) if length > 0 else b""
        except TimeoutError:
            raise _HttpError(
                408, "request_timeout", "request body stalled before completion"
            )
        if not raw:
            raise _HttpError(400, "bad_request", "empty request body")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise _HttpError(400, "bad_json", f"request body is not JSON: {exc}")

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler convention)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        path, _, query_text = self.path.partition("?")
        query = {
            key: values[-1] for key, values in parse_qs(query_text).items()
        }
        endpoint = _endpoint_label(path)
        self._dispatch_started = time.perf_counter()
        self._status_sent = 0  # 0 = aborted before any response was sent
        metrics = self.service.metrics
        metrics.request_started()
        try:
            with trace("http.request", method=method, endpoint=endpoint):
                self._route(method, path, query)
        except _HttpError as err:
            self._send_json(err.status, err.payload, headers=err.headers)
        except (BrokenPipeError, ConnectionError):
            pass  # client went away mid-response; nothing to tell it
        except Exception as exc:  # noqa: BLE001 — the 500 boundary
            try:
                self._send_json(
                    500,
                    {
                        "error": "internal",
                        "message": f"{type(exc).__name__}: {exc}",
                    },
                )
            except (BrokenPipeError, ConnectionError):
                pass
        finally:
            metrics.request_finished(
                endpoint, method, self._status_sent, self._elapsed_ms()
            )

    def _route(
        self, method: str, path: str, query: dict[str, str]
    ) -> None:
        if method == "GET" and path == "/v1/healthz":
            self._send_json(200, self.service.health())
        elif method == "GET" and path == "/v1/metrics":
            self._handle_metrics(query)
        elif method == "GET" and path == "/v1/registry":
            self._send_json(200, registry_payload())
        elif method == "POST" and path == "/v1/run":
            self._handle_run()
        elif method == "POST" and path == "/v1/jobs":
            self._handle_submit()
        elif method == "GET" and (match := _JOB_ROUTE.match(path)):
            sub = match.group("sub")
            if sub == "/stream":
                self._handle_stream(match.group("job"))
            elif sub == "/events":
                self._handle_events(match.group("job"), query)
            else:
                self._handle_job_status(match.group("job"))
        else:
            raise _HttpError(
                404, "not_found", f"no route for {method} {path}"
            )

    # -- endpoints --------------------------------------------------------

    def _handle_metrics(self, query: dict[str, str]) -> None:
        """``GET /v1/metrics``: JSON snapshot, or the Prometheus text
        exposition under ``?format=prometheus`` — both rendered from
        the same frozen snapshot, so they can never disagree.
        """
        fmt = query.get("format", "json")
        if fmt == "json":
            self._send_json(200, self.service.metrics.snapshot())
        elif fmt == "prometheus":
            self._send_body(
                200,
                render_prometheus(self.service.metrics.snapshot()).encode(),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        else:
            raise _HttpError(
                400,
                "bad_request",
                f"unknown metrics format {fmt!r} "
                '(expected "json" or "prometheus")',
            )

    def _handle_run(self) -> None:
        spec = _parse_spec(self._read_json(), where="request body")
        try:
            fingerprint, result, source = self.service.run_one(spec)
        except OSError as exc:
            # A path-based instance whose edge-list file is unreadable
            # fails at fingerprint time — the request's fault, not ours.
            raise _HttpError(400, "bad_instance", str(exc)) from exc
        except ServiceUnavailable as exc:
            raise _HttpError(
                503,
                "unavailable",
                str(exc),
                headers={"Retry-After": str(RETRY_AFTER_S)},
            ) from exc
        # The envelope {"failed", "fingerprint", "result", "source"} in
        # sorted key order around the result's memoized JSON: the bytes
        # json.dumps(envelope, sort_keys=True, default=repr) would give.
        body = (
            f'{{"failed": {json.dumps(result.is_failure())}, '
            f'"fingerprint": {json.dumps(fingerprint)}, '
            f'"result": {result.to_json()}, '
            f'"source": {json.dumps(source)}}}'
        )
        self._send_body(
            200,
            body.encode(),
            content_type="application/json",
            headers={"X-Repro-Fingerprint": fingerprint},
        )

    def _handle_submit(self) -> None:
        payload = self._read_json()
        if not isinstance(payload, dict) or not isinstance(
            payload.get("specs"), list
        ):
            raise _HttpError(
                400,
                "bad_request",
                'POST /v1/jobs expects {"specs": [RunSpec, ...], '
                '"shards"?: int|"auto", "local_workers"?: int}',
            )
        specs = [
            _parse_spec(entry, where=f"specs[{index}]")
            for index, entry in enumerate(payload["specs"])
        ]
        if not specs:
            raise _HttpError(400, "bad_request", "specs must be non-empty")
        shards = payload.get("shards")
        if shards is not None and shards != "auto" and not isinstance(shards, int):
            raise _HttpError(
                400, "bad_request", f'shards must be an int or "auto", got {shards!r}'
            )
        local_workers = payload.get("local_workers", 0)
        if not isinstance(local_workers, int) or local_workers < 0:
            raise _HttpError(
                400,
                "bad_request",
                f"local_workers must be a non-negative int, got {local_workers!r}",
            )
        try:
            job, created = self.service.submit_job(
                specs, shards=shards, local_workers=local_workers
            )
        except (ReproError, OSError) as exc:
            raise _HttpError(400, "bad_request", str(exc)) from exc
        self._send_json(
            201 if created else 200,
            {
                "job": job.id,
                "created": created,
                "total": len(job.specs),
                "shards": job.shards,
                "local_workers": job.local_workers,
                "status_url": f"/v1/jobs/{job.id}",
                "stream_url": f"/v1/jobs/{job.id}/stream",
                "events_url": f"/v1/jobs/{job.id}/events",
            },
            headers={"X-Repro-Fingerprint": job.id},
        )

    def _job_of(self, job_id: str):
        job = self.service.get_job(job_id)
        if job is None:
            raise _HttpError(404, "not_found", f"no job {job_id[:12]}… here")
        return job

    def _handle_job_status(self, job_id: str) -> None:
        job = self._job_of(job_id)
        self._send_json(
            200,
            self.service.job_snapshot(job),
            headers={"X-Repro-Fingerprint": job.id},
        )

    def _handle_stream(self, job_id: str) -> None:
        """NDJSON: one ``{"index": i, "result": ...}`` line per spec,
        strictly in batch order, flushed as each slot fills.

        Exactly-once delivery falls out of the slot model: the loop
        visits every index once, and a slot, once filled, never
        changes.  A driver crash (not a captured spec failure) ends the
        stream with a single ``{"error": ...}`` line.
        """
        job = self._job_of(job_id)
        self._status_sent = 200
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("X-Repro-Fingerprint", job.id)
        self.send_header("X-Repro-Elapsed-Ms", f"{self._elapsed_ms():.3f}")
        self.end_headers()
        self.wfile.flush()
        for index in range(len(job.specs)):
            slot = job.wait_slot(index)
            if slot is None:
                line = {"error": "job_failed", "message": job.error}
                self.wfile.write(
                    json.dumps(line, sort_keys=True).encode() + b"\n"
                )
                return
            line = {"index": index, "result": slot}
            self.wfile.write(
                json.dumps(line, sort_keys=True, default=repr).encode() + b"\n"
            )
            self.wfile.flush()

    def _handle_events(self, job_id: str, query: dict[str, str]) -> None:
        """NDJSON stream of the job's live event log.

        Each line is one event from ``<job>/events/``
        (:func:`repro.telemetry.events.read_events`) carrying its own
        ``cursor``; ``?after=<cursor>`` resumes *just after* that event
        — a reconnecting client replays nothing and misses nothing,
        because cursors count parsed lines per writer file and sealed
        lines never change.  By default the stream follows the job
        (polls while it runs, one final drain once it stops, then EOF);
        ``?follow=0`` returns just the current backlog and closes —
        the poll-friendly form ``repro top`` uses.
        """
        job = self._job_of(job_id)
        cursor = query.get("after") or None
        if cursor is not None:
            try:
                parse_cursor(cursor)
            except ValueError as exc:
                raise _HttpError(
                    400, "bad_cursor", f"unreadable ?after= cursor: {exc}"
                ) from exc
        follow = query.get("follow", "1") not in ("0", "false", "no")
        directory = events_dir_of(job.job_dir)
        self._status_sent = 200
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("X-Repro-Fingerprint", job.id)
        self.send_header("X-Repro-Elapsed-Ms", f"{self._elapsed_ms():.3f}")
        self.end_headers()
        self.wfile.flush()

        def ship() -> None:
            nonlocal cursor
            events, cursor = read_events(directory, cursor)
            for event in events:
                self.wfile.write(
                    json.dumps(event, sort_keys=True, default=repr).encode()
                    + b"\n"
                )
            if events:
                self.wfile.flush()

        while True:
            ship()
            if not follow:
                return
            if job.snapshot()["state"] != "running":
                # One final drain: events sealed between the last read
                # and the state flip must still ship before EOF.
                ship()
                return
            time.sleep(EVENTS_POLL_S)


def make_server(
    service: ReproService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server over ``service`` (port 0 = ephemeral).

    The handler class is minted per call so multiple services can serve
    in one process (tests do); ``daemon_threads`` keeps a parked stream
    reader from ever blocking interpreter exit.
    """
    handler = type(
        "BoundServiceHandler",
        (ServiceHandler,),
        {"service": service, "quiet": quiet},
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server
