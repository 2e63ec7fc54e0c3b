"""The service contract, pinned over real HTTP.

Every test drives a live in-process :class:`~repro.service.app.
ReproService` through an ephemeral-port :class:`~repro.service.http.
ServiceHTTPServer` with nothing but ``urllib`` (or a raw socket) — the
transport a zero-dependency client actually uses.  The headline pins:

* **Idempotent concurrency** — N threads POSTing the identical spec
  cost exactly one execution (counted where the service hands a spec
  to its solve pool, with the leader held open until every follower
  has joined the in-flight entry, so the count is deterministic), one
  ``executed`` ledger row, and N byte-identical fingerprinted
  responses.
* **Strict deserialization** — unknown fields are 400s that *name the
  field*; non-JSON and empty bodies are 400s, never tracebacks.
* **Request limits** — an oversized ``Content-Length`` is a 413 sent
  before the body is read, a stalled request loses its connection, and
  oversized or malformed request heads get the stdlib's 431, 414, 400
  and 505 replies, each with a status line.
* **Handler threads** — threads park between connections, at most
  ``max_inflight`` of them, and ``server_close`` ends them.
* **Poison round-trip** — an unrunnable spec is an answer (200,
  ``failed: true``, a serialized :class:`~repro.results.FailedResult`
  that deserializes back), not a 500.
* **Streaming jobs** — a sharded batch streams every result exactly
  once, in batch order, byte-identical to serial ``run_many``; the
  identical resubmission returns the same job untouched.
"""

from __future__ import annotations

import contextlib
import html
import http.client
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.api import InstanceSpec, RunSpec, ScenarioSpec, run_many
from repro.api import runner
from repro.api.runner import clear_result_cache
from repro.results import FailedResult, RunResult, canonical_json
from repro.service import ReproService, make_server
from repro.service.http import (
    MAX_BODY_BYTES,
    REQUEST_TIMEOUT_S,
    ServiceHandler,
)
from repro.telemetry.ledger import read_ledger_rows

BARRIER_S = 30.0


@contextlib.contextmanager
def serving(data_dir):
    """A served ReproService on an ephemeral port:
    ``(service, server, base_url)``."""
    # The result cache is process-wide: start each server empty, as a
    # fresh server process would.
    clear_result_cache()
    service = ReproService(data_dir)
    server = make_server(service)
    host, port = server.server_address[:2]
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    try:
        yield service, server, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        service.close()


@pytest.fixture()
def served(tmp_path):
    """``(service, server, base_url)`` of a served ReproService."""
    with serving(tmp_path / "data") as triple:
        yield triple


@pytest.fixture()
def live(tmp_path):
    """A served ReproService on an ephemeral port: ``(service, base_url)``."""
    with serving(tmp_path / "data") as (service, _, base):
        yield service, base


def request(method, url, payload=None, *, raw=None):
    """One JSON round-trip; 4xx bodies come back, not raised."""
    data = raw if raw is not None else (
        None if payload is None else json.dumps(payload).encode()
    )
    req = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=60) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as err:
        body = err.read()
        return err.code, json.loads(body) if body else {}, dict(err.headers)


def exchange(base, data):
    """Send raw bytes on one connection; return every byte of the reply."""
    address = urlsplit(base)
    received = b""
    with socket.create_connection(
        (address.hostname, address.port), timeout=30
    ) as sock:
        try:
            sock.sendall(data)
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass  # the server closed on the unread rest of the request
    return received


def error_page(code, message):
    """The stdlib's HTML error body for ``code`` with ``message``."""
    return (
        ServiceHandler.error_message_format
        % {
            "code": code,
            "message": html.escape(message, quote=False),
            "explain": ServiceHandler.responses[code][1],
        }
    ).encode()


def spec_payload(**overrides):
    payload = {
        "instance": {"family": "complete_bipartite", "size": 3, "seed": 2},
        "algorithm": "greedy_sequential",
    }
    payload.update(overrides)
    return payload


class TestIdempotentRuns:
    def test_concurrent_identical_posts_cost_one_execution(self, live):
        service, base = live
        clients = 5
        spec = RunSpec.from_dict(spec_payload())
        target = spec.fingerprint()
        executions = []
        solve = service.pool.run

        def counted(payload):
            fingerprint = payload[1]["_fingerprint"]
            if fingerprint == target:
                executions.append(fingerprint)
                # Hold the solve open until every follower has joined,
                # so "exactly one execution" is an exact count, not a
                # race.
                deadline = time.time() + BARRIER_S
                while (
                    service.inflight_waiters(target) < clients - 1
                    and time.time() < deadline
                ):
                    time.sleep(0.005)
            return solve(payload)

        responses = []
        lock = threading.Lock()

        def post():
            answer = request("POST", base + "/v1/run", spec.to_dict())
            with lock:
                responses.append(answer)

        service.pool.run = counted
        try:
            threads = [
                threading.Thread(target=post) for _ in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            del service.pool.run

        assert len(executions) == 1
        assert [status for status, _, _ in responses] == [200] * clients
        bodies = [body for _, body, _ in responses]
        assert all(body["fingerprint"] == target for body in bodies)
        assert all(
            headers["X-Repro-Fingerprint"] == target
            for _, _, headers in responses
        )
        # All N payloads byte-identical, one leader + N-1 followers.
        assert len({canonical_json(b["result"]) for b in bodies}) == 1
        sources = sorted(body["source"] for body in bodies)
        assert sources.count("executed") == 1
        assert sources.count("coalesced") == clients - 1
        dispositions = [
            row["disposition"]
            for row in read_ledger_rows(service.ledger_dir)
            if row["fingerprint"] == target
        ]
        assert dispositions.count("executed") == 1
        assert dispositions.count("coalesced") == clients - 1
        runs = service.metrics.snapshot()["runs"]
        assert (runs["executed"], runs["coalesced"]) == (1, clients - 1)

    def test_repeat_post_replays_from_disk_cache(self, live):
        _, base = live
        status, first, _ = request("POST", base + "/v1/run", spec_payload())
        assert status == 200 and first["source"] == "executed"
        status, again, _ = request("POST", base + "/v1/run", spec_payload())
        assert status == 200 and again["source"] == "cache"
        assert canonical_json(again["result"]) == canonical_json(
            first["result"]
        )

    def test_result_matches_direct_run(self, live):
        _, base = live
        spec = RunSpec.from_dict(spec_payload(algorithm="bko20"))
        clear_result_cache()
        direct = run_many([spec], cache=False)[0]
        clear_result_cache()
        _, body, _ = request("POST", base + "/v1/run", spec.to_dict())
        assert canonical_json(body["result"]) == canonical_json(
            direct.to_dict()
        )
        assert RunResult.from_dict(body["result"]).result_fingerprint() == (
            direct.result_fingerprint()
        )


class TestStrictDeserialization:
    def test_unknown_field_is_400_naming_the_field(self, live):
        _, base = live
        status, body, _ = request(
            "POST", base + "/v1/run", spec_payload(bogus_field=1)
        )
        assert status == 400
        assert body["error"] == "spec_format"
        assert "bogus_field" in body["message"]

    def test_unknown_field_in_batch_names_the_index(self, live):
        _, base = live
        status, body, _ = request(
            "POST",
            base + "/v1/jobs",
            {"specs": [spec_payload(), spec_payload(bogus_field=1)]},
        )
        assert status == 400
        assert "specs[1]" in body["message"]
        assert "bogus_field" in body["message"]

    def test_non_json_body_is_400(self, live):
        _, base = live
        status, body, _ = request(
            "POST", base + "/v1/run", raw=b"not json at all"
        )
        assert status == 400 and body["error"] == "bad_json"

    def test_empty_body_is_400(self, live):
        _, base = live
        status, body, _ = request("POST", base + "/v1/run", raw=b"")
        assert status == 400 and body["error"] == "bad_request"

    def test_unknown_route_is_404(self, live):
        _, base = live
        status, body, _ = request("GET", base + "/v1/nope")
        assert status == 404 and body["error"] == "not_found"

    def test_poison_spec_round_trips_as_captured_failure(self, live):
        _, base = live
        status, body, headers = request(
            "POST",
            base + "/v1/run",
            spec_payload(algorithm="no_such_algorithm"),
        )
        assert status == 200
        assert body["failed"] is True
        assert headers["X-Repro-Fingerprint"] == body["fingerprint"]
        restored = RunResult.from_dict(body["result"])
        assert isinstance(restored, FailedResult)
        assert restored.error_type
        assert "no_such_algorithm" in restored.error_message


class TestJobs:
    def batch(self):
        instance = InstanceSpec(family="complete_bipartite", size=3, seed=2)
        return [
            RunSpec(instance=instance, algorithm="greedy_sequential"),
            RunSpec(
                instance=instance,
                algorithm="greedy_sequential",
                scenario=ScenarioSpec(
                    model="crash_stop", seed=5, params={"f": 2}
                ),
            ),
            RunSpec(instance=instance, algorithm="linial_greedy"),
            # The duplicate: one solve must fan out over both slots.
            RunSpec(instance=instance, algorithm="greedy_sequential"),
        ]

    def submit(self, base, specs, **extra):
        return request(
            "POST",
            base + "/v1/jobs",
            {"specs": [spec.to_dict() for spec in specs], **extra},
        )

    def test_stream_is_exactly_once_in_order_and_byte_identical(self, live):
        _, base = live
        specs = self.batch()
        clear_result_cache()
        serial = run_many(specs, cache=False)
        clear_result_cache()
        status, body, headers = self.submit(base, specs, shards=2)
        assert status == 201 and body["created"] is True
        assert headers["X-Repro-Fingerprint"] == body["job"]
        with urllib.request.urlopen(
            base + body["stream_url"], timeout=120
        ) as stream:
            lines = [json.loads(line) for line in stream if line.strip()]
        assert [line["index"] for line in lines] == list(range(len(specs)))
        for index, line in enumerate(lines):
            assert canonical_json(line["result"]) == canonical_json(
                serial[index].to_dict()
            ), f"slot {index} diverges from serial run_many"
        # Duplicate slots got independent but identical payloads.
        assert lines[0]["result"] == lines[3]["result"]

    def test_stream_headers_arrive_while_the_first_spec_is_held(
        self, live, monkeypatch
    ):
        _, base = live
        held = threading.Event()
        release = threading.Event()

        def hold(fingerprint, attempt):
            held.set()
            release.wait(BARRIER_S)

        monkeypatch.setattr(runner, "_FAULT_HOOK", hold)
        clear_result_cache()
        spec = RunSpec(
            instance=InstanceSpec(family="path", size=6, seed=424242),
            algorithm="greedy_sequential",
        )
        _, body, _ = self.submit(base, [spec], shards=1)
        assert held.wait(BARRIER_S)
        parts = urlsplit(base)
        connection = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=10
        )
        try:
            connection.request("GET", body["stream_url"])
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("X-Repro-Fingerprint") == body["job"]
            assert not release.is_set()  # the spec is still held
            release.set()
            lines = [json.loads(line) for line in response if line.strip()]
        finally:
            release.set()
            connection.close()
        assert [line["index"] for line in lines] == [0]

    def test_status_reaches_done_and_resubmit_is_idempotent(self, live):
        _, base = live
        specs = self.batch()
        status, body, _ = self.submit(base, specs, shards=2)
        assert status == 201
        job_id = body["job"]
        deadline = time.time() + BARRIER_S
        while time.time() < deadline:
            status, snap, _ = request("GET", base + body["status_url"])
            if snap["state"] != "running":
                break
            time.sleep(0.05)
        assert snap["state"] == "done"
        assert snap["done"] == snap["total"] == len(specs)
        # The cluster's own view rides along: per-shard states + timing.
        assert snap["cluster"]["complete"] is True
        assert snap["cluster"]["shards"] == 2
        # Identical batch -> the same job, already done, nothing re-run.
        status, again, _ = self.submit(base, specs, shards=2)
        assert status == 200
        assert again["job"] == job_id and again["created"] is False
        # A different shard count is a different plan -> a new job.
        status, other, _ = self.submit(base, specs, shards=1)
        assert status == 201 and other["job"] != job_id

    def test_unknown_job_is_404(self, live):
        _, base = live
        status, body, _ = request("GET", base + "/v1/jobs/" + "0" * 64)
        assert status == 404 and body["error"] == "not_found"

    def test_empty_batch_is_400(self, live):
        _, base = live
        status, body, _ = request("POST", base + "/v1/jobs", {"specs": []})
        assert status == 400

    def test_bad_shards_value_is_400(self, live):
        _, base = live
        status, body, _ = self.submit(base, self.batch(), shards="many")
        assert status == 400 and "shards" in body["message"]


class TestRequestLimits:
    def test_oversized_body_is_413_before_reading(self, live):
        _, base = live
        # Only the headers go out: the server must answer from the
        # declared length alone, without waiting for the body.
        connection = http.client.HTTPConnection(urlsplit(base).netloc, timeout=30)
        try:
            connection.putrequest("POST", "/v1/run")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            status, body = response.status, json.loads(response.read())
        finally:
            connection.close()
        assert status == 413
        assert body["error"] == "payload_too_large"
        assert str(MAX_BODY_BYTES) in body["message"]

    @pytest.mark.parametrize(
        "partial, reply",
        [
            (b"POST /v1/run HTTP/1.0\r\nContent-Le", b""),
            (
                b"POST /v1/run HTTP/1.0\r\nContent-Length: 64\r\n\r\n{",
                b"HTTP/1.0 408",
            ),
        ],
        ids=["stalled-headers", "stalled-body"],
    )
    def test_stalled_request_loses_its_connection(
        self, live, monkeypatch, partial, reply
    ):
        # The shipped handler has a timeout; the test shortens it.
        assert ServiceHandler.timeout == REQUEST_TIMEOUT_S
        monkeypatch.setattr(ServiceHandler, "timeout", 0.3)
        _, base = live
        address = urlsplit(base)
        received = b""
        # The client waits far longer than the server's timeout; a
        # server that never hangs up fails this with a socket timeout.
        with socket.create_connection(
            (address.hostname, address.port), timeout=30
        ) as sock:
            sock.sendall(partial)
            while chunk := sock.recv(4096):
                received += chunk
        assert received.startswith(reply)
        if not reply:
            assert received == b""


    @pytest.mark.parametrize(
        "data, status",
        [
            (
                b"GET /v1/healthz HTTP/1.0\r\n"
                + b"".join(b"X-Header-%d: a\r\n" % i for i in range(101))
                + b"\r\n",
                b"431",
            ),
            (
                b"GET /v1/healthz HTTP/1.0\r\nX-Long: "
                + b"a" * 70_000
                + b"\r\n\r\n",
                b"431",
            ),
            (b"GET /" + b"a" * 65_536 + b" HTTP/1.0\r\n\r\n", b"414"),
        ],
        ids=["101-header-lines", "70000-byte-header-line", "long-request-line"],
    )
    def test_oversized_request_heads_are_refused(self, live, data, status):
        _, base = live
        reply = exchange(base, data)
        assert reply.startswith(b"HTTP/1.0 " + status + b" ")

    def test_the_last_header_line_under_the_bound_is_read(self, live):
        # 99 header lines and the blank one: the most the stdlib takes.
        _, base = live
        reply = exchange(
            base,
            b"GET /v1/healthz HTTP/1.0\r\n"
            + b"".join(b"X-Header-%d: a\r\n" % i for i in range(99))
            + b"\r\n",
        )
        assert reply.startswith(b"HTTP/1.0 200 OK\r\n")

    @pytest.mark.parametrize(
        "data, code, message",
        [
            (b"GARBAGE\r\n\r\n", 400, "Bad request syntax ('GARBAGE')"),
            (
                b"GET /v1/healthz HTTP/2.0\r\n\r\n",
                505,
                "Invalid HTTP version (2.0)",
            ),
            (
                b"GET /v1/healthz HTTP/1.x\r\n\r\n",
                400,
                "Bad request version ('HTTP/1.x')",
            ),
            (b"POST /v1/run\r\n\r\n", 400, "Bad HTTP/0.9 request type ('POST')"),
        ],
        ids=["garbage", "http-2", "bad-version", "http-0.9-post"],
    )
    def test_malformed_request_lines_get_a_status_line(
        self, live, data, code, message
    ):
        # The stdlib sends these the bare HTML page; the service puts an
        # HTTP/1.0 status line and headers before the same page.
        _, base = live
        head, _, body = exchange(base, data).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 %d %s\r\n" % (code, message.encode()))
        assert b"\r\nContent-Type: text/html;charset=utf-8" in head
        assert b"\r\nContent-Length: %d" % len(body) in head
        assert body == error_page(code, message)

    @pytest.mark.parametrize(
        "headers, status",
        [
            (b"content-length: {n}\r\n", 200),
            (b"Content-Length: {n}\r\nContent-Length: 3\r\n", 200),
            (b"Content-Length: 3\r\nCONTENT-LENGTH: {n}\r\n", 400),
            (b"X-Note: a\r\n folded\r\nContent-Length:  {n}\r\n", 200),
            (b"not a header\r\nContent-Length: {n}\r\n", 400),
        ],
        ids=["lower-case", "first-wins", "first-wins-short", "folded", "ended"],
    )
    def test_request_headers_are_read_as_the_stdlib_reads_them(
        self, live, headers, status
    ):
        # Names match in any case, the first of repeated headers wins,
        # and a line that is no header ends the headers.
        _, base = live
        body = json.dumps(spec_payload()).encode()
        head = headers.replace(b"{n}", str(len(body)).encode())
        reply = exchange(base, b"POST /v1/run HTTP/1.0\r\n" + head + b"\r\n" + body)
        assert reply.startswith(b"HTTP/1.0 %d " % status)
        if status == 200:
            assert b'"source": ' in reply


class TestHandlerThreads:
    """Handler threads park between connections, boundedly."""

    @staticmethod
    def wait_for(condition, timeout=10.0):
        deadline = time.time() + timeout
        while not condition() and time.time() < deadline:
            time.sleep(0.01)
        return condition()

    @staticmethod
    def open_held(base, count):
        """``count`` connections whose request heads are not finished."""
        address = urlsplit(base)
        sockets = []
        for _ in range(count):
            sock = socket.create_connection(
                (address.hostname, address.port), timeout=30
            )
            sock.sendall(b"GET /v1/healthz HTTP/1.0\r\n")
            sockets.append(sock)
        return sockets

    @staticmethod
    def finish_held(sockets):
        replies = []
        for sock in sockets:
            with sock:
                sock.sendall(b"\r\n")
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
                replies.append(reply)
        return replies

    # A thread parks before it shuts its connection down, so a client
    # that reads each reply to the end of the connection, as these do,
    # always finds it parked.
    HEALTHZ = b"GET /v1/healthz HTTP/1.0\r\n\r\n"

    def test_sequential_requests_reuse_one_thread(self, served):
        _, server, base = served
        before = threading.active_count()
        for _ in range(50):
            reply = exchange(base, self.HEALTHZ)
            assert reply.startswith(b"HTTP/1.0 200 OK\r\n")
        assert threading.active_count() <= before + 1
        assert len(server._parked) == 1

    def test_bursts_leave_at_most_max_inflight_parked(self, served):
        service, server, base = served
        before = threading.active_count()
        burst = 3 * service.max_inflight
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # Later bursts start on the threads the earlier ones parked.
            for _ in range(3):
                sockets = self.open_held(base, burst)
                # Each connection holds a thread until its head ends.
                assert self.wait_for(
                    lambda: threading.active_count() >= before + burst
                )
                replies = self.finish_held(sockets)
                assert all(
                    r.startswith(b"HTTP/1.0 200 OK\r\n") for r in replies
                )
                assert self.wait_for(
                    lambda: threading.active_count()
                    <= before + service.max_inflight
                ), threading.active_count() - before
                assert len(server._parked) == service.max_inflight
        finally:
            sys.setswitchinterval(interval)

    def test_a_parked_stream_reader_does_not_delay_a_hit(
        self, live, monkeypatch
    ):
        _, base = live
        hit = spec_payload()
        assert request("POST", base + "/v1/run", hit)[0] == 200
        held = threading.Event()
        release = threading.Event()

        def hold(fingerprint, attempt):
            held.set()
            release.wait(BARRIER_S)

        monkeypatch.setattr(runner, "_FAULT_HOOK", hold)
        spec = RunSpec(
            instance=InstanceSpec(family="path", size=7, seed=515151),
            algorithm="greedy_sequential",
        )
        _, job, _ = request(
            "POST", base + "/v1/jobs", {"specs": [spec.to_dict()], "shards": 1}
        )
        assert held.wait(BARRIER_S)
        parts = urlsplit(base)
        stream = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
        try:
            stream.request("GET", job["stream_url"])
            assert stream.getresponse().status == 200  # the reader waits
            started = time.perf_counter()
            status, body, _ = request("POST", base + "/v1/run", hit)
            elapsed = time.perf_counter() - started
            assert not release.is_set()  # the job's spec is still held
        finally:
            release.set()
            stream.close()
        assert status == 200 and body["source"] == "cache"
        assert elapsed < 10.0

    def test_server_close_ends_every_parked_thread(self, tmp_path):
        clear_result_cache()
        service = ReproService(tmp_path / "data")
        try:
            before = threading.active_count()
            server = make_server(service)
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            loop = threading.Thread(
                target=server.serve_forever,
                kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            loop.start()
            # Two concurrent connections, then sequential ones: two
            # threads, both parked at the end.
            sockets = self.open_held(base, 2)
            assert self.wait_for(
                lambda: threading.active_count() >= before + 3
            )
            self.finish_held(sockets)
            for _ in range(5):
                assert exchange(base, self.HEALTHZ).startswith(b"HTTP/1.0 200")
            assert len(server._parked) == 2
            server.shutdown()
            loop.join(BARRIER_S)
            closer = threading.Thread(target=server.server_close)
            closer.start()
            closer.join(BARRIER_S)
            assert not loop.is_alive() and not closer.is_alive()
            assert threading.active_count() == before
        finally:
            service.close()


class TestIntrospection:
    def test_healthz_reports_jobs_and_inflight(self, live):
        _, base = live
        status, body, _ = request("GET", base + "/v1/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["uptime_s"] >= 0
        assert body["jobs"]["total"] == 0
        assert body["inflight_runs"] == 0

    def test_registry_lists_what_specs_can_name(self, live):
        _, base = live
        status, body, _ = request("GET", base + "/v1/registry")
        assert status == 200
        assert "bko20" in body["algorithms"]
        assert "complete_bipartite" in body["families"]
        assert "crash_stop" in body["scenarios"]
        assert "scaled" in body["policies"]
        assert set(body["scenario_capable_algorithms"]) <= set(
            body["algorithms"]
        )


class TestServiceCore:
    """Transport-free checks on ReproService itself."""

    def test_run_one_sources(self, tmp_path):
        spec = RunSpec.from_dict(spec_payload())
        service = ReproService(tmp_path / "data")
        try:
            fingerprint, result, source = service.run_one(spec)
            assert fingerprint == spec.fingerprint()
            assert source == "executed"
            again_fp, again, source = service.run_one(spec)
        finally:
            service.close()
        assert source == "cache"
        assert again_fp == fingerprint
        # Results are immutable and shared by design: the repeat is
        # served the same bytes.
        assert again.to_json() == result.to_json()
        assert canonical_json(again.to_dict()) == canonical_json(
            result.to_dict()
        )

    def test_failed_driver_job_restarts_in_place(self, tmp_path):
        specs = [RunSpec.from_dict(spec_payload())]
        service = ReproService(tmp_path / "data", default_shards=1)
        try:
            job, created = service.submit_job(specs)
            assert created is True
            job.finish(error="InjectedError: simulated driver crash")
            job.state = "failed"  # terminal failure, slots possibly empty
            retried, created = service.submit_job(specs)
        finally:
            service.close()
        assert created is False
        assert retried is not job  # a fresh Job object, same id
        assert retried.id == job.id
        deadline = time.time() + BARRIER_S
        while retried.snapshot()["state"] == "running":
            assert time.time() < deadline, "restarted job never finished"
            time.sleep(0.02)
        assert retried.snapshot()["state"] == "done"
