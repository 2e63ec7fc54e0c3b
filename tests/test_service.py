"""The service contract, pinned over real HTTP.

Every test drives a live in-process :class:`~repro.service.app.
ReproService` through an ephemeral-port :class:`http.server.
ThreadingHTTPServer` with nothing but ``urllib`` — the transport a
zero-dependency client actually uses.  The headline pins:

* **Idempotent concurrency** — N threads POSTing the identical spec
  cost exactly one execution (counted where the service hands a spec
  to its solve pool, with the leader held open until every follower
  has joined the in-flight entry, so the count is deterministic), one
  ``executed`` ledger row, and N byte-identical fingerprinted
  responses.
* **Strict deserialization** — unknown fields are 400s that *name the
  field*; non-JSON and empty bodies are 400s, never tracebacks.
* **Request limits** — an oversized ``Content-Length`` is a 413 sent
  before the body is read, and a stalled request loses its connection.
* **Poison round-trip** — an unrunnable spec is an answer (200,
  ``failed: true``, a serialized :class:`~repro.results.FailedResult`
  that deserializes back), not a 500.
* **Streaming jobs** — a sharded batch streams every result exactly
  once, in batch order, byte-identical to serial ``run_many``; the
  identical resubmission returns the same job untouched.
"""

from __future__ import annotations

import http.client
import json
import socket
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


@pytest.fixture()
def live(tmp_path):
    """A served ReproService on an ephemeral port: ``(service, base_url)``."""
    service = ReproService(tmp_path / "data")
    server = make_server(service)
    host, port = server.server_address[:2]
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    try:
        yield service, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        service.close()


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
        solve = service._solve

        def counted(spec, fingerprint):
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
            return solve(spec, fingerprint)

        responses = []
        lock = threading.Lock()

        def post():
            answer = request("POST", base + "/v1/run", spec.to_dict())
            with lock:
                responses.append(answer)

        service._solve = counted
        try:
            threads = [
                threading.Thread(target=post) for _ in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            del service._solve

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
