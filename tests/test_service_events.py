"""``GET /v1/jobs/<id>/events``: the live stream over real HTTP.

Drives the same ephemeral-port server as ``tests/test_service.py``
with nothing but ``urllib`` and pins the acceptance contract of the
events endpoint:

* a running two-shard job streams its events in merge order, each line
  carrying a resume cursor;
* ``?after=<cursor>`` reconnects replay nothing and miss nothing (the
  head + tail multiset equals a from-scratch read, and every worker's
  ``seq`` stays strictly increasing across the seam);
* ``?follow=0`` returns the backlog and EOFs instead of tailing;
* a malformed cursor is a 400 naming the problem, never a silent
  replay from the start;
* the streamed job's sealed results stay byte-identical to serial
  ``run_many`` — events never touch results — also when a real
  ``python -m repro worker`` subprocess drains the job.
"""

from __future__ import annotations

import json
import time
import urllib.request

from repro.api import InstanceSpec, RunSpec, ScenarioSpec, run_many
from repro.api.runner import clear_result_cache
from repro.results import canonical_json

from tests.test_service import live, request  # noqa: F401  (fixture)

STREAM_TIMEOUT = 120


def batch() -> list[RunSpec]:
    instance = InstanceSpec(family="complete_bipartite", size=3, seed=2)
    return [
        RunSpec(instance=instance, algorithm="greedy_sequential"),
        RunSpec(
            instance=instance,
            algorithm="greedy_sequential",
            scenario=ScenarioSpec(model="crash_stop", seed=5, params={"f": 2}),
        ),
        RunSpec(instance=instance, algorithm="linial_greedy"),
    ]


def submit(base: str, specs: list[RunSpec], **extra):
    return request(
        "POST",
        base + "/v1/jobs",
        {"specs": [spec.to_dict() for spec in specs], **extra},
    )


def stream_events(url: str) -> list[dict]:
    with urllib.request.urlopen(url, timeout=STREAM_TIMEOUT) as response:
        assert response.headers["Content-Type"].startswith(
            "application/x-ndjson"
        )
        assert float(response.headers["X-Repro-Elapsed-Ms"]) >= 0.0
        return [json.loads(line) for line in response if line.strip()]


def stripped(events: list[dict]) -> list[str]:
    return [
        json.dumps(
            {k: v for k, v in e.items() if k != "cursor"}, sort_keys=True
        )
        for e in events
    ]


class TestEventsEndpoint:
    def test_followed_stream_tells_the_whole_story(self, live):
        _, base = live
        status, body, _ = submit(base, batch(), shards=2)
        assert status == 201
        assert body["events_url"] == f"/v1/jobs/{body['job']}/events"
        # Following from the start blocks until the job completes and
        # then EOFs — one connection sees the whole lifecycle.
        events = stream_events(base + body["events_url"])
        kinds = [e["event"] for e in events]
        assert "job_started" in kinds
        assert "job_complete" in kinds
        assert kinds.count("shard_sealed") == 2
        assert len([k for k in kinds if k == "spec_resolved"]) == 3
        for event in events:
            assert isinstance(event["cursor"], str) and event["cursor"]
            assert isinstance(event["seq"], int)
        # The job snapshot advertises the same stream.
        _, snap, _ = request("GET", base + body["status_url"])
        assert snap["events_url"] == body["events_url"]

    def test_after_cursor_resumes_exactly_once(self, live):
        _, base = live
        status, body, _ = submit(base, batch(), shards=2)
        assert status == 201
        url = base + body["events_url"]
        # Wait for the job to finish via the blocking stream, then take
        # the full backlog as the reference read.
        stream_events(url)
        full = stream_events(url + "?follow=0")
        assert len(full) >= 4
        for index, event in enumerate(full):
            tail = stream_events(
                url + "?follow=0&after=" + event["cursor"]
            )
            combined = stripped(full[: index + 1]) + stripped(tail)
            # Multiset-equal to the from-scratch read: the k-way merge
            # may interleave *across* writers differently once late
            # files appear, but nothing is replayed or lost...
            assert sorted(combined) == sorted(stripped(full))
            # ...and no single worker's story ever rewinds across the
            # reconnect seam.
            seen: dict[str, int] = {}
            for item in full[: index + 1] + tail:
                assert item["seq"] > seen.get(item["worker"], 0)
                seen[item["worker"]] = item["seq"]

    def test_follow_zero_eofs_after_the_backlog(self, live):
        _, base = live
        status, body, _ = submit(base, batch(), shards=2)
        assert status == 201
        url = base + body["events_url"]
        # Wait out the drain via the blocking stream, then confirm the
        # one-shot read terminates with the final cursor dry.
        stream_events(url)
        backlog = stream_events(url + "?follow=0")
        assert backlog
        final = backlog[-1]["cursor"]
        assert stream_events(url + "?follow=0&after=" + final) == []

    def test_malformed_cursor_is_a_400(self, live):
        _, base = live
        status, body, _ = submit(base, batch(), shards=1)
        assert status in (200, 201)
        url = base + body["events_url"]
        status, error, headers = request("GET", url + "?after=%3Agarbage")
        assert status == 400
        assert error["error"] == "bad_cursor"
        assert float(headers["X-Repro-Elapsed-Ms"]) >= 0.0

    def test_unknown_job_events_is_a_404(self, live):
        _, base = live
        status, body, _ = request(
            "GET", base + "/v1/jobs/" + "0" * 64 + "/events"
        )
        assert status == 404 and body["error"] == "not_found"

    def test_streamed_job_results_match_serial_run_many(self, live):
        _, base = live
        specs = batch()
        clear_result_cache()
        serial = run_many(specs, cache=False)
        clear_result_cache()
        status, body, _ = submit(base, specs, shards=2)
        assert status == 201
        # Drain the event stream to completion first — the point: a
        # job watched through its event stream seals the same bytes.
        stream_events(base + body["events_url"])
        with urllib.request.urlopen(
            base + body["stream_url"], timeout=STREAM_TIMEOUT
        ) as stream:
            lines = [json.loads(line) for line in stream if line.strip()]
        assert [line["index"] for line in lines] == list(range(len(specs)))
        for index, line in enumerate(lines):
            assert canonical_json(line["result"]) == canonical_json(
                serial[index].to_dict()
            )

    def test_a_worker_subprocess_job_streams_serial_bytes(self, live):
        # With "local_workers": 1 a ``python -m repro worker``
        # subprocess drains the job; the coordinator claims no shard
        # while it runs.
        _, base = live
        instance = InstanceSpec(family="complete_bipartite", size=3, seed=2)
        specs = batch() + [
            RunSpec(instance=instance, algorithm="bko20"),
            RunSpec(
                instance=instance,
                algorithm="greedy_sequential",
                scenario=ScenarioSpec(
                    model="lossy_links", seed=5, params={"drop": 0.2}
                ),
            ),
            batch()[0],  # a duplicate: one solve fans over both slots
        ]
        clear_result_cache()
        serial = run_many(specs, cache=False)
        clear_result_cache()
        status, body, _ = submit(base, specs, shards=2, local_workers=1)
        assert status == 201
        url = base + body["events_url"]
        head = stream_events(url + "?follow=0")  # read mid-job
        with urllib.request.urlopen(
            base + body["stream_url"], timeout=STREAM_TIMEOUT
        ) as stream:
            lines = [json.loads(line) for line in stream if line.strip()]
        assert [line["index"] for line in lines] == list(range(len(specs)))
        for index, line in enumerate(lines):
            assert canonical_json(line["result"]) == canonical_json(
                serial[index].to_dict()
            ), f"slot {index} diverges from serial run_many"
        # The stream ends at the last slot; the service still reaps its
        # worker before the job is done.
        deadline = time.time() + STREAM_TIMEOUT
        while True:
            _, snap, _ = request("GET", base + body["status_url"])
            if snap["state"] != "running" or time.time() > deadline:
                break
            time.sleep(0.05)
        assert snap["state"] == "done"
        assert snap["cluster"]["complete"] is True
        assert snap["cluster"]["worker_events"] == []  # it exited 0
        full = stream_events(url + "?follow=0")
        spawned = [e["pid"] for e in full if e["event"] == "worker_spawn"]
        assert len(spawned) == 1
        sealers = {
            e["worker"].rpartition(":")[2]
            for e in full
            if e["event"] == "shard_sealed"
        }
        assert sealers == {str(spawned[0])}
        # Resuming the mid-job read misses and replays nothing, across
        # the two processes' event files.
        after = f"&after={head[-1]['cursor']}" if head else ""
        tail = stream_events(url + "?follow=0" + after)
        assert sorted(stripped(head + tail)) == sorted(stripped(full))
        seen: dict[str, int] = {}
        for event in head + tail:
            assert event["seq"] > seen.get(event["worker"], 0)
            seen[event["worker"]] = event["seq"]
