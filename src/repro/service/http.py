"""The stdlib HTTP layer: routing, strict deserialization, streaming.

A thin, dependency-free transport over :class:`~repro.service.app.
ReproService` built on :class:`http.server.HTTPServer`.  Each
connection is served by one daemon thread, which is what the
coalescing discipline needs (followers *block* on the leader's event;
threads make that free) and what streaming needs (a reader parked on a
job's condition variable costs one thread, not a poll loop).  A thread
outlives its connection: it parks for the next one, so a cache hit
starts no thread (:class:`ServiceHTTPServer`).  Request lines and
headers are parsed by :meth:`ServiceHandler.parse_request` under the
stdlib's bounds and error statuses, without its email header parser.

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
* A run the service cannot take now — it holds its bound of in-flight
  runs, or a solve worker died under it — is a **503**
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
import queue
import re
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, HTTPServer
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

#: Longest request header line, in bytes, and most header lines (the
#: closing blank line counts) a request may send: the stdlib's own
#: bounds (``http.client``).  Past either the request gets a 431.
MAX_HEADER_LINE_BYTES = 65536
MAX_HEADER_LINES = 100

_HTTP_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


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
    it), and every connection carries one request.  :meth:`parse_request`
    replaces the stdlib's: ``headers`` is a plain dict from lower-cased
    header name to value.
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

    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and the header lines after it.

        Sets ``command``, ``path``, ``request_version`` and ``headers``
        and returns ``True``, or sends the stdlib's error reply and
        returns ``False``: 400 for a malformed request line, 505 for
        HTTP/2 or later, 431 for a header line over
        :data:`MAX_HEADER_LINE_BYTES` or more than
        :data:`MAX_HEADER_LINES` lines.  A refused request line is
        answered under ``protocol_version``, with a status line and
        headers (the stdlib sends the bare page).  Header names are
        matched case-insensitively and the first of repeated headers
        wins, as ``email.message.Message.get`` does; like that parser,
        a line that is neither a header nor a continuation ends the
        headers (the lines up to the blank one are read and ignored).
        Under HTTP/1.0 ``Connection`` and ``Expect`` change nothing, so
        neither is looked at.
        """
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            match = _HTTP_VERSION.fullmatch(version)
            if match is None:
                return self._refuse_request_line(
                    HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})"
                )
            if int(match[1]) >= 2:
                return self._refuse_request_line(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({version[5:]})",
                )
            self.request_version = version
        if not 2 <= len(words) <= 3:
            return self._refuse_request_line(
                HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})"
            )
        command, path = words[:2]
        if len(words) == 2 and command != "GET":
            return self._refuse_request_line(
                HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({command!r})"
            )
        self.command = command
        # As the stdlib does: '//x' would read as a scheme-less URL.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        headers = self._read_headers()
        if headers is None:
            return False
        self.headers = headers
        return True

    def _refuse_request_line(self, code: HTTPStatus, message: str) -> bool:
        """Send the error reply for a request line; returns ``False``."""
        self.request_version = self.protocol_version
        self.send_error(code, message)
        return False

    def _read_headers(self) -> dict[str, str] | None:
        """Read the header lines up to the blank one: lower-cased name
        to first value, or ``None`` once a 431 is sent."""
        fields: list[list[str]] = []  # [lower-cased name, value]
        field: list[str] | None = None  # the one a continuation extends
        in_headers = True  # until a line that is no header
        readline = self.rfile.readline
        for count in range(1, MAX_HEADER_LINES + 2):
            line = readline(MAX_HEADER_LINE_BYTES + 1)
            if len(line) > MAX_HEADER_LINE_BYTES:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {MAX_HEADER_LINE_BYTES} bytes when "
                    "reading header line",
                )
                return None
            if count > MAX_HEADER_LINES:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    f"got more than {MAX_HEADER_LINES} headers",
                )
                return None
            if line in (b"\r\n", b"\n", b""):
                break
            if not in_headers:
                continue
            text = str(line, "iso-8859-1")
            if text[0] in " \t":
                if field is not None:
                    field[1] += text
                continue
            field = None
            if text.startswith("From "):
                continue  # an mbox envelope line: skipped, not a header
            name, colon, value = text.partition(":")
            if not colon or " " in name or not (
                name.isascii() and name.isprintable()
            ):
                in_headers = False
            elif name:
                field = [name.lower(), value.lstrip(" \t")]
                fields.append(field)
        headers: dict[str, str] = {}
        for name, value in fields:
            headers.setdefault(name, value.rstrip("\r\n"))
        return headers

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
        length_text = self.headers.get("content-length") or "0"
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


class ServiceHTTPServer(HTTPServer):
    """An HTTP server whose handler threads outlive their connection.

    The accept loop hands each connection to a parked handler thread,
    the most recently parked first, and starts a new daemon thread
    only when none is parked.  A busy thread (a streamed reader, a
    coalesced follower) is never waited for, so concurrency is bounded
    no tighter than one thread per connection.  A thread that finishes
    its connection parks for the next one unless ``max_parked`` threads
    are parked already; then it exits.  :meth:`server_close` wakes the
    parked threads and waits for them to end; busy threads end when
    their connection does.
    """

    def __init__(
        self,
        server_address: tuple[str, int],
        handler: type[BaseHTTPRequestHandler],
        *,
        max_parked: int,
    ) -> None:
        super().__init__(server_address, handler)
        self.max_parked = max_parked
        self._lock = threading.Lock()
        self._closed = False
        #: (thread, inbox) of every parked thread; an inbox receives
        #: the thread's next connection, or ``None`` to end it.
        self._parked: list[tuple[threading.Thread, queue.SimpleQueue]] = []

    def process_request(self, request, client_address) -> None:
        with self._lock:
            if self._parked:
                self._parked.pop()[1].put((request, client_address))
                return
        threading.Thread(
            target=self._serve,
            args=(request, client_address),
            name="repro-http",
            daemon=True,
        ).start()

    def _serve(self, request, client_address) -> None:
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        me = threading.current_thread()
        while True:
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            except BaseException:
                self.shutdown_request(request)
                raise
            # Park before the socket is shut down: once the client has
            # its reply it may connect again at once, and that
            # connection should find this thread parked, not start one.
            with self._lock:
                park = not self._closed and len(self._parked) < self.max_parked
                if park:
                    self._parked.append((me, inbox))
            self.shutdown_request(request)
            if not park:
                return
            connection = inbox.get()
            if connection is None:
                return
            request, client_address = connection

    def server_close(self) -> None:
        super().server_close()
        with self._lock:
            self._closed = True
            parked, self._parked = self._parked, []
        for _, inbox in parked:
            inbox.put(None)
        for thread, _ in parked:
            thread.join()


def make_server(
    service: ReproService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quiet: bool = True,
) -> ServiceHTTPServer:
    """Bind an HTTP server over ``service`` (port 0 = ephemeral).

    The handler class is minted per call so multiple services can serve
    in one process (tests do).  At most ``service.max_inflight`` handler
    threads stay parked between connections; handler threads are
    daemons, so a parked stream reader never blocks interpreter exit.
    """
    handler = type(
        "BoundServiceHandler",
        (ServiceHandler,),
        {"service": service, "quiet": quiet},
    )
    return ServiceHTTPServer(
        (host, port), handler, max_parked=service.max_inflight
    )
