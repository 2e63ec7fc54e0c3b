"""SERVICE ISOLATION — a cache hit does not wait for a solve.

The solver is CPU-bound Python.  When the service solved on its
handler threads, a cache hit that arrived during a solve waited for the
GIL, which the solving thread gives up only every switch interval.  The
service now solves misses in a pool of worker processes, so a hit
shares the server's interpreter only with other cheap requests.

Method: a ``repro serve`` child process on an ephemeral port.  A probe
client POSTs one cached spec sequentially, first with the server
otherwise idle, then while a second client keeps the pool busy with
fresh bko20 solves (a new instance seed per request, so every one is a
miss).

Shape claim checked (ROADMAP Open item 5's target): a hit's median
latency beside a solving client is at most 1.5x its median alone.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis.tables import format_table
from repro.api import InstanceSpec, RunSpec

from conftest import report

ROOT = Path(__file__).resolve().parent.parent

#: Hit requests timed per phase.
PROBES = 300

#: Largest allowed ratio of a hit's p50 beside a solve to its p50 alone.
MAX_RATIO = 1.5

HIT_SPEC = RunSpec(InstanceSpec(family="complete_bipartite", size=4, seed=1))


def solve_spec(seed: int) -> RunSpec:
    return RunSpec(InstanceSpec(family="random_regular", size=8, seed=seed))


def post(address: tuple[str, int], spec: RunSpec) -> tuple[int, str]:
    connection = http.client.HTTPConnection(*address, timeout=120)
    try:
        connection.request(
            "POST", "/v1/run", body=json.dumps(spec.to_dict()).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        body = json.loads(response.read())
        return response.status, body.get("source", "")
    finally:
        connection.close()


def probe(address: tuple[str, int]) -> list[float]:
    """Milliseconds per sequential cache hit, ``PROBES`` of them."""
    latencies = []
    for _ in range(PROBES):
        start = time.perf_counter()
        status, source = post(address, HIT_SPEC)
        latencies.append((time.perf_counter() - start) * 1000.0)
        assert (status, source) == (200, "cache")
    return latencies


@pytest.mark.slow
def test_a_hit_beside_a_solve_costs_at_most_one_and_a_half_hits(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--data-dir", str(tmp_path / "data")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    stop = threading.Event()
    solves: list[str] = []
    try:
        match = re.search(r"http://([^:/\s]+):(\d+)", server.stdout.readline())
        address = (match.group(1), int(match.group(2)))
        assert post(address, HIT_SPEC) == (200, "executed")
        assert post(address, solve_spec(0)) == (200, "executed")
        alone = probe(address)

        def solver() -> None:
            seed = 1
            while not stop.is_set():
                status, source = post(address, solve_spec(seed))
                solves.append(f"{status}/{source}")
                seed += 1

        thread = threading.Thread(target=solver, daemon=True)
        thread.start()
        while not solves and thread.is_alive():  # the pool is busy from here
            time.sleep(0.01)
        beside = probe(address)
        stop.set()
        thread.join(timeout=120)
    finally:
        stop.set()
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    p50_alone = statistics.median(alone)
    p50_beside = statistics.median(beside)
    ratio = p50_beside / p50_alone
    report(
        format_table(
            ["phase", "hits", "p50 ms", "p90 ms", "solves beside"],
            [
                ["alone", len(alone), f"{p50_alone:.2f}",
                 f"{statistics.quantiles(alone, n=10)[-1]:.2f}", 0],
                ["beside a solving client", len(beside), f"{p50_beside:.2f}",
                 f"{statistics.quantiles(beside, n=10)[-1]:.2f}", len(solves)],
            ],
            title=(
                "SERVICE ISOLATION: cache-hit latency beside pooled solves "
                f"(p50 ratio {ratio:.2f}x, bound {MAX_RATIO}x)"
            ),
        )
    )
    assert set(solves) == {"200/executed"}
    assert len(solves) >= 2, "the solving client finished fewer than 2 solves"
    assert ratio <= MAX_RATIO, (
        f"a hit beside a solve takes {p50_beside:.2f} ms p50, "
        f"{ratio:.2f}x the {p50_alone:.2f} ms it takes alone"
    )
