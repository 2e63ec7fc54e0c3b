"""The service smoke: a live server, checked end-to-end over real HTTP.

``python -m repro serve --smoke`` (a CI step) starts an in-process
service on an ephemeral port and drives it with nothing but
:mod:`urllib` — the same way an external client would — asserting the
service's two headline contracts plus the request-hygiene ones:

1. **Idempotent concurrency** — N threads POST the *same* spec
   concurrently; exactly one execution happens (counted where the
   service hands a spec to its solve pool, with the leader held open
   until every follower has joined, so the assertion is
   deterministic, not a race), the run ledger holds exactly one
   ``executed`` row for it, and all N responses carry the same
   fingerprint and byte-identical results.
2. **Streaming byte-identity** — a mixed batch (duplicate spec and
   adversarial scenarios included) submitted as a sharded
   multi-worker job streams every result exactly once, in batch
   order, byte-identical to serial :func:`repro.api.run_many`.
3. **Hygiene** — malformed specs are 400s naming the offending field;
   a ``Content-Length`` above the body limit is a 413;
   a poison spec round-trips as a captured
   :class:`~repro.results.FailedResult` (HTTP 200, ``failed: true``);
   health and registry endpoints answer.
4. **Observability** — every response carries ``X-Repro-Elapsed-Ms``
   (errors included — a 404 is stamped and counted under its
   endpoint); ``GET /v1/metrics`` reports the executed/coalesced/cache
   run split the earlier checks actually caused, with per-endpoint
   latency histograms; ``GET /v1/healthz`` reports measured uptime and
   load; ``GET /v1/metrics?format=prometheus`` parses line-by-line
   under the text-format grammar with cumulative buckets that agree
   with the JSON view.
5. **Resumable events** — ``GET /v1/jobs/<id>/events`` is fetched
   mid-job (``?follow=0`` backlog) and resumed after completion with
   ``?after=<cursor>``: the two reads concatenate to exactly the full
   stream — nothing replayed, nothing missed — with per-worker
   sequence numbers strictly increasing.
6. **Saturation** — with the solve pool holding its bound of
   in-flight runs, a further miss is a 503 with ``Retry-After`` while
   a cache hit is still served, and ``GET /v1/healthz`` reports the
   pool's workers and in-flight runs.

Any breach raises :class:`~repro.errors.ServiceError`.
"""

from __future__ import annotations

import http.client
import json
import re
import tempfile
import threading
import time
import urllib.error
import urllib.request
from typing import Any
from urllib.parse import urlsplit

from repro.api.runner import run_many
from repro.api.spec import InstanceSpec, RunSpec
from repro.errors import ServiceError
from repro.results import canonical_json
from repro.scenarios.spec import ScenarioSpec
from repro.service.app import ReproService
from repro.service.http import MAX_BODY_BYTES, make_server
from repro.telemetry.ledger import read_ledger_rows
from repro.telemetry.prometheus import PROMETHEUS_CONTENT_TYPE

#: Seconds the held-open leader waits for all followers to join.
BARRIER_TIMEOUT_S = 30.0


def _smoke_batch() -> list[RunSpec]:
    """The usual adversarial mix: plain, scenario, and duplicate specs."""
    instance = InstanceSpec(family="complete_bipartite", size=3, seed=2)
    return [
        RunSpec(instance=instance, algorithm="greedy_sequential"),
        RunSpec(instance=instance, algorithm="bko20"),
        RunSpec(
            instance=instance,
            algorithm="greedy_sequential",
            scenario=ScenarioSpec(model="crash_stop", seed=5, params={"f": 2}),
        ),
        RunSpec(
            instance=instance,
            algorithm="greedy_sequential",
            scenario=ScenarioSpec(
                model="lossy_links", seed=5, params={"drop": 0.2}
            ),
        ),
        # The duplicate: the stream must fan one solve over both slots.
        RunSpec(instance=instance, algorithm="greedy_sequential"),
    ]


def _request(
    method: str,
    url: str,
    payload: Any | None = None,
    *,
    timeout: float = 120.0,
) -> tuple[int, Any, dict[str, str]]:
    """One JSON request; returns ``(status, parsed body, headers)``.

    4xx/5xx responses come back the same way (their bodies are JSON
    too) instead of raising — the smoke asserts on them.
    """
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                json.loads(response.read()),
                dict(response.headers),
            )
    except urllib.error.HTTPError as err:
        body = err.read()
        return err.code, json.loads(body) if body else {}, dict(err.headers)


def _stream_lines(url: str, *, timeout: float = 300.0) -> list[dict[str, Any]]:
    """Read an NDJSON stream to EOF; returns the parsed lines."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return [json.loads(line) for line in response if line.strip()]


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(f"service smoke: {message}")


def _check_idempotent_concurrency(
    service: ReproService, base: str, *, clients: int
) -> dict[str, Any]:
    """Contract 1: concurrent identical POSTs cost exactly one solve."""
    spec = _smoke_batch()[1]  # the paper solver — a real solve, not a replay
    target = spec.fingerprint()
    executions: list[str] = []
    solve = service._solve

    def counted(spec: RunSpec, fingerprint: str):
        if fingerprint == target:
            executions.append(fingerprint)
            # Hold the solve open until every follower has joined the
            # in-flight entry (or the deadline passes): the coalescing
            # assertion below is then exact, not timing-dependent.
            deadline = time.time() + BARRIER_TIMEOUT_S
            while (
                service.inflight_waiters(target) < clients - 1
                and time.time() < deadline
            ):
                time.sleep(0.005)
        return solve(spec, fingerprint)

    responses: list[tuple[int, Any, dict[str, str]]] = []
    lock = threading.Lock()

    def post() -> None:
        answer = _request("POST", base + "/v1/run", spec.to_dict())
        with lock:
            responses.append(answer)

    service._solve = counted
    try:
        threads = [
            threading.Thread(target=post, name=f"smoke-client-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        del service._solve

    _expect(
        len(executions) == 1,
        f"{clients} concurrent identical POSTs performed "
        f"{len(executions)} executions, expected exactly 1",
    )
    _expect(
        all(status == 200 for status, _, _ in responses),
        f"statuses {[s for s, _, _ in responses]}, expected all 200",
    )
    _expect(
        all(
            headers.get("X-Repro-Fingerprint") == target
            for _, _, headers in responses
        ),
        "X-Repro-Fingerprint header missing or wrong on a response",
    )
    bodies = [body for _, body, _ in responses]
    _expect(
        all(body["fingerprint"] == target for body in bodies),
        "a response body carries the wrong fingerprint",
    )
    rendered = {canonical_json(body["result"]) for body in bodies}
    _expect(
        len(rendered) == 1,
        f"{len(rendered)} distinct result payloads across {clients} "
        "identical requests, expected 1",
    )
    sources = sorted(body["source"] for body in bodies)
    _expect(
        sources.count("executed") == 1 and sources.count("coalesced")
        == clients - 1,
        f"sources {sources}, expected 1 executed + {clients - 1} coalesced",
    )
    executed_rows = [
        row
        for row in read_ledger_rows(service.ledger_dir)
        if row.get("fingerprint") == target
        and row.get("disposition") == "executed"
    ]
    _expect(
        len(executed_rows) == 1,
        f"the ledger holds {len(executed_rows)} executed rows for the "
        "coalesced spec, expected 1",
    )
    # And a later, non-concurrent repeat is a disk-cache hit.
    status, body, _ = _request("POST", base + "/v1/run", spec.to_dict())
    _expect(
        status == 200 and body["source"] == "cache",
        f"repeat POST returned {status}/{body.get('source')}, "
        "expected 200/cache",
    )
    return {"clients": clients, "executions": 1, "coalesced": clients - 1}


def _check_saturation(service: ReproService, base: str) -> dict[str, Any]:
    """Contract 6: a miss beyond the in-flight bound is a 503.

    Every admitted leader is held before the pool until the refused
    request and a cache hit have been answered; then all are released
    and must solve normally.  Runs after contract 1, whose spec is on
    disk by then.
    """
    bound = service.max_inflight
    release = threading.Event()
    solve = service._solve

    def held(spec: RunSpec, fingerprint: str):
        release.wait(BARRIER_TIMEOUT_S)
        return solve(spec, fingerprint)

    specs = [
        RunSpec(
            instance=InstanceSpec(family="path", size=4 + index, seed=index),
            algorithm="greedy_sequential",
        )
        for index in range(bound + 1)
    ]
    answers: list[tuple[int, Any, dict[str, str]]] = []
    lock = threading.Lock()

    def post(spec: RunSpec) -> None:
        answer = _request("POST", base + "/v1/run", spec.to_dict())
        with lock:
            answers.append(answer)

    service._solve = held
    threads = [
        threading.Thread(target=post, args=(spec,), name=f"smoke-held-{i}")
        for i, spec in enumerate(specs[:bound])
    ]
    try:
        for thread in threads:
            thread.start()
        deadline = time.time() + BARRIER_TIMEOUT_S
        while (
            service.health()["inflight_runs"] < bound
            and time.time() < deadline
        ):
            time.sleep(0.005)
        status, body, headers = _request(
            "POST", base + "/v1/run", specs[bound].to_dict()
        )
        _expect(
            status == 503
            and body.get("error") == "unavailable"
            and headers.get("Retry-After") is not None,
            f"a miss beyond {bound} in-flight runs returned {status} "
            f"({body.get('error')!r}, Retry-After "
            f"{headers.get('Retry-After')!r}), expected a 503 with "
            "Retry-After",
        )
        status, body, _ = _request(
            "POST", base + "/v1/run", _smoke_batch()[1].to_dict()
        )
        _expect(
            status == 200 and body.get("source") == "cache",
            f"a cache hit at saturation returned {status}/"
            f"{body.get('source')}, expected 200/cache",
        )
        status, health, _ = _request("GET", base + "/v1/healthz")
        pool = health.get("pool", {})
        _expect(
            status == 200
            and pool.get("workers") == service.workers
            and pool.get("max_inflight") == bound
            and health.get("inflight_runs") == bound,
            f"healthz at saturation reports {health}, expected "
            f"{service.workers} workers and {bound} runs in flight",
        )
    finally:
        release.set()
        for thread in threads:
            thread.join()
        del service._solve
    _expect(
        sorted(status for status, _, _ in answers) == [200] * bound
        and all(body.get("source") == "executed" for _, body, _ in answers),
        f"held leaders answered {[(s, b.get('source')) for s, b, _ in answers]}, "
        f"expected {bound} x 200/executed",
    )
    status, body, _ = _request("POST", base + "/v1/run", specs[bound].to_dict())
    _expect(
        status == 200 and body.get("source") == "executed",
        f"the refused spec returned {status}/{body.get('source')} once "
        "the pool drained, expected 200/executed",
    )
    return {"max_inflight": bound, "workers": service.workers}


def _check_hygiene(base: str) -> None:
    """Contract 3: strict 400s, captured poison, live health/registry."""
    status, body, _ = _request("GET", base + "/v1/healthz")
    _expect(status == 200 and body.get("ok") is True, "healthz not ok")
    status, body, _ = _request("GET", base + "/v1/registry")
    _expect(
        status == 200 and "bko20" in body.get("algorithms", {}),
        "registry does not list the paper solver",
    )
    # Unknown field -> 400 naming the field.
    good = _smoke_batch()[0].to_dict()
    status, body, _ = _request(
        "POST", base + "/v1/run", {**good, "bogus_field": 1}
    )
    _expect(
        status == 400 and "bogus_field" in body.get("message", ""),
        f"malformed spec returned {status} ({body.get('message')!r}), "
        "expected 400 naming 'bogus_field'",
    )
    # Non-JSON body -> 400, not a traceback.
    request = urllib.request.Request(
        base + "/v1/run", data=b"not json", method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=30):
            status = 200
    except urllib.error.HTTPError as err:
        status = err.code
    _expect(status == 400, f"non-JSON body returned {status}, expected 400")
    # Oversized Content-Length -> 413 before any body byte is read (so
    # none is sent).
    connection = http.client.HTTPConnection(urlsplit(base).netloc, timeout=30)
    try:
        connection.putrequest("POST", "/v1/run")
        connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        connection.endheaders()
        response = connection.getresponse()
        status, body = response.status, json.loads(response.read())
    finally:
        connection.close()
    _expect(
        status == 413 and body.get("error") == "payload_too_large",
        f"oversized body returned {status} ({body.get('error')!r}), "
        "expected 413 payload_too_large",
    )
    # Poison spec (unregistered algorithm) -> captured failure, not a 500.
    poison = {**good, "algorithm": "no_such_algorithm"}
    status, body, headers = _request("POST", base + "/v1/run", poison)
    _expect(
        status == 200 and body.get("failed") is True,
        f"poison spec returned {status}/failed={body.get('failed')}, "
        "expected 200 with a captured failure",
    )
    _expect(
        bool(body["result"].get("failure", {}).get("error_type")),
        "captured failure record lacks an error_type",
    )
    _expect(
        headers.get("X-Repro-Fingerprint") == body["fingerprint"],
        "poison response fingerprint header mismatch",
    )


def _check_observability(base: str, *, clients: int) -> dict[str, Any]:
    """Contract 4: metrics reflect reality; every response is stamped.

    Runs *after* the other checks so the counters have known floors:
    the idempotency check performed exactly one execution, ``clients -
    1`` coalesced joins, and one cache replay on ``POST /v1/run``.
    """
    status, body, headers = _request("GET", base + "/v1/metrics")
    _expect(status == 200, f"metrics returned {status}, expected 200")
    elapsed = headers.get("X-Repro-Elapsed-Ms")
    _expect(
        elapsed is not None and float(elapsed) >= 0.0,
        "X-Repro-Elapsed-Ms header missing on the metrics response",
    )
    runs = body.get("runs", {})
    _expect(
        runs.get("executed", 0) >= 1
        and runs.get("coalesced", 0) == clients - 1
        and runs.get("cache", 0) >= 1,
        f"run split {runs} does not reflect the coalescing check "
        f"(expected >=1 executed, {clients - 1} coalesced, >=1 cache)",
    )
    run_metrics = body.get("requests", {}).get("POST /v1/run")
    _expect(
        run_metrics is not None and run_metrics["count"] >= clients + 1,
        "POST /v1/run request count missing or below the traffic sent",
    )
    latency = (run_metrics or {}).get("latency_ms", {})
    histogram = latency.get("histogram", {})
    _expect(
        sum(histogram.values()) == run_metrics["count"]
        and latency.get("p50") is not None,
        f"POST /v1/run latency histogram inconsistent: {latency}",
    )
    _expect(
        body.get("requests_total", 0) >= run_metrics["count"],
        "requests_total below the per-endpoint count",
    )
    # Health reports measured figures sourced from the same registry.
    status, health, headers = _request("GET", base + "/v1/healthz")
    _expect(
        status == 200
        and isinstance(health.get("uptime_s"), (int, float))
        and health["uptime_s"] >= 0.0
        and isinstance(health.get("requests_total"), int)
        and health["requests_total"] >= run_metrics["count"]
        and health.get("active_requests", 0) >= 1,  # this very request
        f"healthz load figures not measured: {health}",
    )
    _expect(
        health.get("inflight_runs") == 0,
        f"healthz inflight_runs {health.get('inflight_runs')} with no "
        "run in flight",
    )
    _expect(
        headers.get("X-Repro-Elapsed-Ms") is not None,
        "X-Repro-Elapsed-Ms header missing on healthz",
    )
    return {
        "metrics_requests_total": body["requests_total"],
        "run_split": {
            key: runs.get(key, 0) for key in ("executed", "coalesced", "cache")
        },
    }


def _check_streaming_job(base: str) -> dict[str, Any]:
    """Contract 2: sharded multi-worker stream == serial run_many."""
    specs = _smoke_batch()
    serial = run_many(specs, cache=False)
    payload = {
        "specs": [spec.to_dict() for spec in specs],
        "shards": 2,
        "local_workers": 1,  # a real worker subprocess: multi-worker job
    }
    status, body, headers = _request("POST", base + "/v1/jobs", payload)
    _expect(status == 201, f"job submit returned {status}, expected 201")
    job_id = body["job"]
    _expect(
        headers.get("X-Repro-Fingerprint") == job_id,
        "job submit did not echo the plan fingerprint",
    )
    events_url = base + body["events_url"]
    # Mid-job backlog fetch: whatever the stream holds *now*, plus the
    # cursor to resume from.  The exactly-once assertion comes after
    # the job completes.
    head_events = _stream_lines(events_url + "?follow=0")
    head_cursor = head_events[-1]["cursor"] if head_events else ""
    lines = _stream_lines(base + body["stream_url"])
    _expect(
        [line.get("index") for line in lines] == list(range(len(specs))),
        f"stream yielded indices {[line.get('index') for line in lines]}, "
        f"expected 0..{len(specs) - 1} exactly once each, in order",
    )
    for index, line in enumerate(lines):
        ours = canonical_json(line["result"])
        theirs = canonical_json(serial[index].to_dict())
        _expect(
            ours == theirs,
            f"streamed result {index} ({specs[index].label()}) is not "
            "byte-identical to serial run_many",
        )
    # The stream ends when the last slot fills; the driver thread still
    # has bookkeeping after that (reaping its worker subprocess), so
    # give the terminal state a moment.
    status_url = base + body["status_url"]
    deadline = time.time() + BARRIER_TIMEOUT_S
    while True:
        status, body, _ = _request("GET", status_url)
        if body.get("state") != "running" or time.time() > deadline:
            break
        time.sleep(0.05)
    _expect(
        status == 200
        and body["state"] == "done"
        and body["done"] == body["total"] == len(specs),
        f"job status after stream drain: {body}",
    )
    cluster = body.get("cluster", {})
    _expect(
        cluster.get("complete") is True,
        "cluster status does not report the job complete",
    )
    # Idempotent resubmission: same batch -> same job, not a new one.
    status, body, _ = _request("POST", base + "/v1/jobs", payload)
    _expect(
        status == 200 and body["job"] == job_id and body["created"] is False,
        "resubmitting the identical batch minted a new job",
    )
    events = _check_events_stream(
        events_url, head_events, head_cursor, shards=payload["shards"]
    )
    return {
        "job": job_id[:12],
        "streamed": len(lines),
        "byte_identical": True,
        "events": events,
    }


def _check_events_stream(
    events_url: str,
    head: list[dict[str, Any]],
    head_cursor: str,
    *,
    shards: int,
) -> int:
    """Contract 5: the events endpoint resumes exactly-once.

    ``head`` was fetched mid-job; resuming with its last cursor after
    completion must yield precisely the remainder — the concatenation
    carries every event of a from-scratch read exactly once (as a
    multiset: the k-way merge may interleave *across* writers
    differently once late files appear, but nothing is lost or
    duplicated, and each writer's own sequence stays strictly
    increasing).
    """

    def strip(event: dict[str, Any]) -> str:
        return json.dumps(
            {k: v for k, v in event.items() if k != "cursor"},
            sort_keys=True,
        )

    full = _stream_lines(events_url + "?follow=0")
    resume = events_url + "?follow=0" + (
        f"&after={head_cursor}" if head_cursor else ""
    )
    tail = _stream_lines(resume)
    combined = [strip(event) for event in head + tail]
    _expect(
        sorted(combined) == sorted(strip(event) for event in full),
        f"resumed events (head {len(head)} + tail {len(tail)}) are not "
        f"exactly the full stream ({len(full)} events) — replay or loss",
    )
    by_worker: dict[str, int] = {}
    for event in head + tail:
        worker, seq = str(event.get("worker")), event.get("seq")
        _expect(
            isinstance(seq, int) and seq > by_worker.get(worker, 0),
            f"worker {worker} sequence not strictly increasing at {seq}",
        )
        by_worker[worker] = seq
    kinds = [event.get("event") for event in full]
    _expect(
        "job_started" in kinds and "job_complete" in kinds,
        f"event stream lacks job lifecycle markers: {sorted(set(kinds))}",
    )
    sealed = {
        event.get("shard")
        for event in full
        if event.get("event") == "shard_sealed"
    }
    _expect(
        sealed == set(range(shards)),
        f"sealed shards {sorted(sealed)}, expected 0..{shards - 1}",
    )
    # A malformed resume cursor is a client error, stamped like any
    # other response.
    status, body, headers = _request("GET", events_url + "?after=garbage")
    _expect(
        status == 400
        and body.get("error") == "bad_cursor"
        and headers.get("X-Repro-Elapsed-Ms") is not None,
        f"malformed cursor returned {status}/{body.get('error')}, "
        "expected a stamped 400 bad_cursor",
    )
    return len(full)


#: One sample line of the Prometheus text format: metric name, an
#: optional ``{label="value",...}`` block, one value.
_PROM_SAMPLE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*\})?'
    r' (?P<value>-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\+Inf|NaN))$'
)

_PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _check_prometheus(base: str) -> dict[str, Any]:
    """The text exposition parses line-by-line and agrees with JSON.

    Every sample must match the text-format grammar and belong to a
    family announced by ``# HELP`` + ``# TYPE`` lines; histogram
    buckets must be cumulative with ``le="+Inf"`` equal to ``_count``
    per route; the run-split counters must equal the JSON snapshot's.
    Error responses are stamped and counted too: a 404 carries
    ``X-Repro-Elapsed-Ms`` and lands in the metrics under its route.
    """
    request = urllib.request.Request(base + "/v1/metrics?format=prometheus")
    with urllib.request.urlopen(request, timeout=30) as response:
        _expect(
            response.status == 200
            and response.headers.get("Content-Type")
            == PROMETHEUS_CONTENT_TYPE,
            f"prometheus exposition: status {response.status}, "
            f"content-type {response.headers.get('Content-Type')!r}",
        )
        _expect(
            response.headers.get("X-Repro-Elapsed-Ms") is not None,
            "X-Repro-Elapsed-Ms missing on the prometheus response",
        )
        text = response.read().decode("utf-8")
    _expect(text.endswith("\n"), "exposition not newline-terminated")
    typed: dict[str, str] = {}
    helped: set[str] = set()
    samples: list[tuple[str, dict[str, str], str]] = []
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            typed[name] = kind
            continue
        match = _PROM_SAMPLE.match(line)
        _expect(
            match is not None,
            f"exposition line {number} fails the text-format grammar: "
            f"{line!r}",
        )
        labels = dict(_PROM_LABEL.findall(match.group("labels") or ""))
        samples.append((match.group("name"), labels, match.group("value")))
    _expect(bool(samples), "exposition carries no samples")
    for name, _, _ in samples:
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        _expect(
            (name in typed or family in typed)
            and (name in helped or family in helped),
            f"sample {name} has no # HELP/# TYPE family announcement",
        )
    # Histogram discipline per route: cumulative buckets, +Inf == _count.
    buckets: dict[tuple[str, str], list[tuple[str, int]]] = {}
    counts: dict[tuple[str, str], int] = {}
    for name, labels, value in samples:
        route = (labels.get("method", ""), labels.get("endpoint", ""))
        if name == "repro_http_request_duration_milliseconds_bucket":
            buckets.setdefault(route, []).append(
                (labels["le"], int(float(value)))
            )
        elif name == "repro_http_request_duration_milliseconds_count":
            counts[route] = int(float(value))
    _expect(set(buckets) == set(counts), "histogram routes lack a _count")
    for route, series in buckets.items():
        values = [count for _, count in series]
        _expect(
            values == sorted(values),
            f"histogram buckets for {route} are not cumulative: {values}",
        )
        _expect(
            series[-1][0] == "+Inf" and series[-1][1] == counts[route],
            f"histogram for {route}: le=+Inf bucket {series[-1]} != "
            f"_count {counts[route]}",
        )
    # The two views render one snapshot: the run split must agree.
    _, snapshot, _ = _request("GET", base + "/v1/metrics")
    rendered_runs = {
        labels["source"]: int(float(value))
        for name, labels, value in samples
        if name == "repro_runs_total"
    }
    _expect(
        rendered_runs == snapshot.get("runs"),
        f"prometheus run split {rendered_runs} != JSON {snapshot.get('runs')}",
    )
    # Satellite contract: errors are stamped and counted like successes.
    status, _, headers = _request("GET", base + "/v1/no-such-route")
    _expect(
        status == 404 and headers.get("X-Repro-Elapsed-Ms") is not None,
        "404 response not stamped with X-Repro-Elapsed-Ms",
    )
    _, snapshot, _ = _request("GET", base + "/v1/metrics")
    other = snapshot.get("requests", {}).get("GET <other>", {})
    _expect(
        other.get("by_status", {}).get("404", 0) >= 1,
        f"404 not accounted under GET <other>: {other}",
    )
    return {"prometheus_samples": len(samples)}


def smoke_check(*, clients: int = 6) -> dict[str, Any]:
    """Start a live service on an ephemeral port and check every contract.

    Runs in a temporary data directory; the server and the service's
    solve pool are shut down (and the solve seam restored) no matter
    what.  Returns a JSON-safe summary; raises
    :class:`~repro.errors.ServiceError` on any breach.
    """
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as data_dir:
        service = ReproService(data_dir)
        server = make_server(service)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-smoke",
            daemon=True,
        )
        thread.start()
        try:
            idempotency = _check_idempotent_concurrency(
                service, base, clients=clients
            )
            saturation = _check_saturation(service, base)
            _check_hygiene(base)
            streaming = _check_streaming_job(base)
            observability = _check_observability(base, clients=clients)
            prometheus = _check_prometheus(base)
        finally:
            server.shutdown()
            server.server_close()
            service.close()
    return {
        "address": base,
        **idempotency,
        **saturation,
        **streaming,
        **observability,
        **prometheus,
        "hygiene": (
            "400s strict, 413 over the body cap, poison captured, "
            "health/registry live"
        ),
    }
