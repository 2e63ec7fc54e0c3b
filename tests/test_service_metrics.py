"""Service observability: /v1/metrics, measured healthz, timing headers.

The accounting side of the service tier (PR 9): every response carries
``X-Repro-Elapsed-Ms``, every finished request lands in the in-process
:class:`~repro.telemetry.metrics.MetricsRegistry` under its normalized
endpoint label, the run split (executed / coalesced / cache / failed)
reflects what the service actually did, and single runs append to the
service's own run ledger.  The Prometheus text exposition (PR 10's
``?format=prometheus``) renders the *same* snapshot — cumulative
histogram buckets, escaped labels, counters that agree with the JSON
view.  Unit tests of the registry itself (bucket math, histogram
percentiles, JSON-safety of the overflow bound) ride along at the
bottom.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time

import pytest

from repro.api.runner import clear_result_cache
from repro.service import ReproService, make_server
from repro.telemetry.ledger import read_ledger_rows
from repro.telemetry.metrics import (
    LATENCY_BUCKETS_MS,
    MetricsRegistry,
    _histogram_quantile,
)
from repro.telemetry.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)

from tests.test_service import request, spec_payload

#: One sample line of the Prometheus text format: a metric name, an
#: optional ``{label="value",...}`` block, one value.
PROM_SAMPLE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?P<labels>\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*\})?'
    r' (?P<value>-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\+Inf|NaN))$'
)
PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


@pytest.fixture()
def live(tmp_path):
    # The result cache is process-wide: start each server empty, as a
    # fresh server process would.
    clear_result_cache()
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


def settle(service, expected_total: int, timeout: float = 5.0) -> None:
    """Wait for ``expected_total`` requests to finish server-side.

    The handler sends the full response (Content-Length framed) before
    its ``finally`` records the request, so a client can legitimately
    observe the registry one request behind its own call sequence.
    """
    deadline = time.monotonic() + timeout
    while service.metrics.requests_total() < expected_total:
        if time.monotonic() >= deadline:
            raise AssertionError(
                f"registry stuck at {service.metrics.requests_total()} "
                f"requests, wanted {expected_total}"
            )
        time.sleep(0.01)


class TestElapsedHeader:
    def test_every_response_is_stamped(self, live):
        _, base = live
        for method, path, payload in (
            ("GET", "/v1/healthz", None),
            ("GET", "/v1/metrics", None),
            ("POST", "/v1/run", spec_payload()),
            ("GET", "/v1/nowhere", None),  # errors are stamped too
        ):
            _, _, headers = request(method, base + path, payload)
            elapsed = headers.get("X-Repro-Elapsed-Ms")
            assert elapsed is not None, f"{method} {path} missing header"
            assert float(elapsed) >= 0.0

    def test_stream_start_is_stamped(self, live):
        import urllib.request

        _, base = live
        status, body, _ = request(
            "POST",
            base + "/v1/jobs",
            {"specs": [spec_payload()], "shards": 1, "local_workers": 0},
        )
        assert status == 201
        with urllib.request.urlopen(
            base + body["stream_url"], timeout=60
        ) as response:
            assert float(response.headers["X-Repro-Elapsed-Ms"]) >= 0.0
            response.read()


class TestMetricsEndpoint:
    def test_run_split_and_request_accounting(self, live):
        service, base = live
        request("POST", base + "/v1/run", spec_payload())  # executes
        request("POST", base + "/v1/run", spec_payload())  # cache replay
        settle(service, 2)
        status, body, _ = request("GET", base + "/v1/metrics")
        assert status == 200
        assert body["runs"]["executed"] == 1
        assert body["runs"]["cache"] == 1
        assert body["runs"]["coalesced"] == 0
        assert body["runs"]["failed"] == 0
        entry = body["requests"]["POST /v1/run"]
        assert entry["count"] == 2
        assert entry["by_status"] == {"200": 2}
        latency = entry["latency_ms"]
        assert sum(latency["histogram"].values()) == 2
        assert latency["p50"] is not None
        assert latency["max"] >= latency["mean"] > 0
        assert body["requests_total"] >= 2
        assert body["uptime_s"] >= 0.0

    def test_endpoint_labels_are_normalized(self, live):
        service, base = live
        status, body, _ = request(
            "POST",
            base + "/v1/jobs",
            {"specs": [spec_payload()], "shards": 1, "local_workers": 0},
        )
        assert status == 201
        request("GET", base + body["status_url"])
        request("GET", base + "/v1/bogus")
        settle(service, 3)
        _, metrics, _ = request("GET", base + "/v1/metrics")
        labels = set(metrics["requests"])
        assert "GET /v1/jobs/<id>" in labels  # never a raw job id
        assert not any(body["job"] in label for label in labels)
        assert metrics["requests"]["GET <other>"]["by_status"] == {"404": 1}

    def test_job_submit_and_resubmit_counters(self, live):
        _, base = live
        batch = {"specs": [spec_payload()], "shards": 1, "local_workers": 0}
        request("POST", base + "/v1/jobs", batch)
        request("POST", base + "/v1/jobs", batch)  # idempotent resubmit
        _, metrics, _ = request("GET", base + "/v1/metrics")
        assert metrics["jobs"] == {"submitted": 1, "resubmitted": 1}

    def test_failed_runs_are_counted(self, live):
        _, base = live
        poison = spec_payload(
            instance={"family": "path", "size": 4, "seed": 1},
            algorithm="bko20",
            policy="nonsense-policy",
        )
        status, body, _ = request("POST", base + "/v1/run", poison)
        if status == 200 and body.get("failed"):
            _, metrics, _ = request("GET", base + "/v1/metrics")
            assert metrics["runs"]["failed"] >= 1


class TestHealthzMeasured:
    def test_load_figures_come_from_the_registry(self, live):
        service, base = live
        request("POST", base + "/v1/run", spec_payload())
        settle(service, 1)
        status, body, _ = request("GET", base + "/v1/healthz")
        assert status == 200
        assert body["ok"] is True
        assert isinstance(body["uptime_s"], float)
        assert body["requests_total"] >= 1
        # The health request itself is in flight while counted.
        assert body["active_requests"] >= 1
        assert body["inflight_runs"] == 0
        assert body["jobs"]["total"] == 0


class TestServiceLedger:
    def test_single_runs_append_to_the_data_dir_ledger(self, live, tmp_path):
        service, base = live
        request("POST", base + "/v1/run", spec_payload())
        request("POST", base + "/v1/run", spec_payload())
        rows = [
            row
            for row in read_ledger_rows(service.ledger_dir)
            if row.get("kind") == "run"
        ]
        assert [row["disposition"] for row in rows] == [
            "executed",
            "cache_memory",
        ]
        assert len({row["fingerprint"] for row in rows}) == 1


class TestPrometheusRendering:
    """The text exposition, unit-level: synthetic snapshots in."""

    def registry(self) -> MetricsRegistry:
        registry = MetricsRegistry(clock=lambda: 0.0)
        registry.request_started()
        registry.request_finished("/v1/run", "POST", 200, 3.25)
        registry.request_started()
        registry.request_finished("/v1/run", "POST", 200, 40.0)
        registry.request_started()
        registry.request_finished("/v1/run", "POST", 400, 1.0)
        registry.observe_run("executed")
        registry.observe_run("cache")
        registry.observe_job(created=True)
        return registry

    def test_families_are_announced_and_newline_terminated(self):
        text = render_prometheus(self.registry().snapshot())
        assert text.endswith("\n")
        for family, kind in (
            ("repro_uptime_seconds", "gauge"),
            ("repro_active_requests", "gauge"),
            ("repro_http_requests_total", "counter"),
            ("repro_http_request_duration_milliseconds", "histogram"),
            ("repro_runs_total", "counter"),
            ("repro_jobs_total", "counter"),
        ):
            assert f"# HELP {family} " in text
            assert f"# TYPE {family} {kind}" in text

    def test_counters_split_by_status_and_agree_with_json(self):
        snapshot = self.registry().snapshot()
        text = render_prometheus(snapshot)
        assert (
            'repro_http_requests_total{method="POST",endpoint="/v1/run",'
            'status="200"} 2' in text
        )
        assert (
            'repro_http_requests_total{method="POST",endpoint="/v1/run",'
            'status="400"} 1' in text
        )
        assert 'repro_runs_total{source="executed"} 1' in text
        assert 'repro_runs_total{source="cache"} 1' in text
        assert 'repro_jobs_total{action="submitted"} 1' in text

    def test_histogram_buckets_are_cumulative_to_inf(self):
        snapshot = self.registry().snapshot()
        text = render_prometheus(snapshot)
        series = {}
        prefix = "repro_http_request_duration_milliseconds_bucket{"
        for line in text.splitlines():
            if line.startswith(prefix):
                labels, _, value = line[len(prefix) :].partition("} ")
                le = dict(
                    part.split("=", 1) for part in labels.split(",")
                )["le"].strip('"')
                series[le] = int(value)
        # Latencies 1 / 3.25 / 40 ms land in the 1 / 5 / 50 bounds; the
        # running totals never decrease and +Inf equals the count.
        assert series["1"] == 1
        assert series["5"] == 2
        assert series["50"] == 3
        bounds = [str(b) for b in LATENCY_BUCKETS_MS] + ["+Inf"]
        counts = [series[b] for b in bounds]
        assert counts == sorted(counts)
        assert series["+Inf"] == 3
        entry = snapshot["requests"]["POST /v1/run"]
        sum_line = (
            'repro_http_request_duration_milliseconds_sum{method="POST",'
            f'endpoint="/v1/run"}} {entry["latency_ms"]["sum_ms"]}'
        )
        assert sum_line in text
        assert (
            'repro_http_request_duration_milliseconds_count{method="POST",'
            'endpoint="/v1/run"} 3' in text
        )

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry(clock=lambda: 0.0)
        registry.request_started()
        registry.request_finished('/odd"route\\with\nnoise', "GET", 200, 1.0)
        text = render_prometheus(registry.snapshot())
        assert '\\"route' in text
        assert "\\\\with" in text
        assert "\\nnoise" in text
        # The raw newline never splits a sample line.
        for line in text.splitlines():
            assert line.startswith(("#", "repro_"))

    def test_empty_registry_renders_gauges_only(self):
        text = render_prometheus(MetricsRegistry(clock=lambda: 0.0).snapshot())
        assert "repro_uptime_seconds 0" in text
        assert "repro_active_requests 0" in text
        assert "repro_http_requests_total{" not in text

    def test_content_type_names_the_text_format(self):
        assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain")
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


class TestPrometheusEndpoint:
    def test_exposition_over_http_matches_the_json_view(self, live):
        import urllib.request

        service, base = live
        request("POST", base + "/v1/run", spec_payload())
        settle(service, 1)
        with urllib.request.urlopen(
            base + "/v1/metrics?format=prometheus", timeout=60
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            assert float(response.headers["X-Repro-Elapsed-Ms"]) >= 0.0
            text = response.read().decode("utf-8")
        assert 'repro_runs_total{source="executed"} 1' in text
        assert (
            'repro_http_requests_total{method="POST",endpoint="/v1/run",'
            'status="200"} 1' in text
        )

    def test_every_line_parses_under_the_text_format_grammar(self, live):
        import urllib.request

        service, base = live
        request("POST", base + "/v1/run", spec_payload())
        request("POST", base + "/v1/run", spec_payload())
        request("GET", base + "/v1/nowhere")
        settle(service, 3)
        with urllib.request.urlopen(
            base + "/v1/metrics?format=prometheus", timeout=60
        ) as response:
            text = response.read().decode("utf-8")
        assert text.endswith("\n")
        typed, helped, samples = set(), set(), []
        for line in text.splitlines():
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
            elif line.startswith("# TYPE "):
                typed.add(line.split()[2])
            else:
                match = PROM_SAMPLE.match(line)
                assert match is not None, line
                labels = dict(PROM_LABEL.findall(match["labels"] or ""))
                samples.append((match["name"], labels, float(match["value"])))
        assert samples
        for name, _, _ in samples:
            family = re.sub(r"_(bucket|sum|count)$", "", name)
            assert {name, family} & typed and {name, family} & helped, name
        # Per route: cumulative buckets whose +Inf bucket is _count.
        histogram = "repro_http_request_duration_milliseconds"
        buckets, counts = {}, {}
        for name, labels, value in samples:
            route = (labels.get("method"), labels.get("endpoint"))
            if name == histogram + "_bucket":
                buckets.setdefault(route, []).append((labels["le"], value))
            elif name == histogram + "_count":
                counts[route] = value
        assert set(buckets) == set(counts)
        assert ("GET", "<other>") in counts
        for route, series in buckets.items():
            values = [value for _, value in series]
            assert values == sorted(values), route
            assert series[-1] == ("+Inf", counts[route]), route
        # The two views render one snapshot: the run split agrees.
        _, snapshot, _ = request("GET", base + "/v1/metrics")
        assert {
            labels["source"]: int(value)
            for name, labels, value in samples
            if name == "repro_runs_total"
        } == snapshot["runs"]

    def test_unknown_format_is_a_400(self, live):
        _, base = live
        status, body, _ = request("GET", base + "/v1/metrics?format=xml")
        assert status == 400
        assert "format" in body["message"]


class TestMetricsRegistry:
    def test_request_lifecycle_and_gauge(self):
        registry = MetricsRegistry(clock=lambda: 0.0)
        registry.request_started()
        assert registry.active_requests() == 1
        registry.request_finished("/v1/run", "POST", 200, 3.0)
        assert registry.active_requests() == 0
        assert registry.requests_total() == 1
        snapshot = registry.snapshot()
        entry = snapshot["requests"]["POST /v1/run"]
        assert entry["count"] == 1
        assert entry["by_status"] == {"200": 1}
        # 3ms lands in the first bucket that fits: the 5ms bound.
        assert entry["latency_ms"]["histogram"]["5"] == 1

    def test_histogram_percentiles_and_overflow(self):
        registry = MetricsRegistry(clock=lambda: 0.0)
        registry.request_started()
        for elapsed in (1.0, 2.0, 4.0, 8.0, 1e9):  # last one overflows
            registry.request_finished("/x", "GET", 200, elapsed)
        entry = registry.snapshot()["requests"]["GET /x"]
        latency = entry["latency_ms"]
        assert latency["histogram"]["+Inf"] == 1
        assert latency["p50"] is not None
        assert latency["p99"] == "+Inf"  # JSON-safe overflow marker
        json.dumps(entry)  # the whole snapshot must serialize strictly

    def test_histogram_quantile_edges(self):
        counts = [0] * len(LATENCY_BUCKETS_MS)
        assert _histogram_quantile(counts, 0, 0.5) is None
        counts[0] = 4
        assert _histogram_quantile(counts, 4, 0.5) == float(
            LATENCY_BUCKETS_MS[0]
        )
        assert math.isfinite(float(_histogram_quantile(counts, 4, 0.99)))

    def test_run_and_job_observations(self):
        registry = MetricsRegistry(clock=lambda: 0.0)
        for source in ("executed", "coalesced", "cache", "failed"):
            registry.observe_run(source)
        registry.observe_job(created=True)
        registry.observe_job(created=False)
        snapshot = registry.snapshot()
        assert snapshot["runs"] == {
            "executed": 1,
            "coalesced": 1,
            "cache": 1,
            "failed": 1,
        }
        assert snapshot["jobs"] == {"submitted": 1, "resubmitted": 1}

    def test_unknown_run_source_is_ignored(self):
        registry = MetricsRegistry(clock=lambda: 0.0)
        registry.observe_run("teleported")
        assert sum(registry.snapshot()["runs"].values()) == 0
