"""The service's solve workers: byte identity, saturation, lifecycle.

Single-run misses are solved in forked worker processes, each reached
over its own pipe, and come back as the result's JSON text.  Pinned
here:

* **Byte identity** — a pooled response equals in-process
  ``run(spec, cache=False)``, for the paper solver (whose result
  carries a ledger), a baseline, an adversarial scenario and a poison
  spec (its failure record, traceback digest included); the later
  memory and disk hits serve the same bytes, and the disk entry is the
  one ``json.dumps`` of the in-process result's envelope.
* **Saturation** — with the pool holding its bound of in-flight runs,
  a new miss is a 503 with ``Retry-After``; cache hits and coalesced
  followers are still answered, and ``GET /v1/healthz`` reports the
  pool.
* **Lifecycle** — no worker outlives a ``repro serve`` process,
  whether it is stopped with SIGINT or killed with SIGKILL; a killed
  worker costs at most one 503, after which fresh specs solve, and one
  killed while idle costs none; no executor relay thread runs in the
  server.
* **Memory layer** — a repeat within one server reads no disk entry
  and is recorded ``cache_memory``; a restarted server reads the disk
  once per spec; with the executor's cache budget below two results,
  alternating specs come from disk with unchanged bytes.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import InstanceSpec, RunSpec, ScenarioSpec, run
from repro.api import runner
from repro.results import RunResult, canonical_json
from repro.service import ReproService, app, make_server
from repro.telemetry.ledger import read_ledger_rows

from tests.test_service import request

ROOT = Path(__file__).resolve().parent.parent

BARRIER_S = 30.0

INSTANCE = InstanceSpec(family="complete_bipartite", size=3, seed=2)


def serve(service: ReproService):
    """Serve ``service`` on an ephemeral port; returns ``(server, base)``."""
    server = make_server(service)
    host, port = server.server_address[:2]
    threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    ).start()
    return server, f"http://{host}:{port}"


@pytest.fixture()
def live(tmp_path):
    """A served service: ``(service, base_url)``."""
    # The result cache is process-wide: start each server empty, as a
    # fresh server process would.
    runner.clear_result_cache()
    service = ReproService(tmp_path / "data")
    server, base = serve(service)
    try:
        yield service, base
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def wait_for(condition, what: str) -> None:
    deadline = time.monotonic() + BARRIER_S
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


def post_raw(base: str, spec: RunSpec) -> tuple[int, bytes]:
    """``POST /v1/run`` returning the status and the raw body bytes."""
    host, port = base.removeprefix("http://").split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=60)
    try:
        connection.request(
            "POST", "/v1/run", body=json.dumps(spec.to_dict()).encode()
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def envelope(spec: RunSpec, result: RunResult, source: str) -> bytes:
    """The bytes a ``POST /v1/run`` answer has always had."""
    payload = {
        "fingerprint": spec.fingerprint(),
        "source": source,
        "failed": result.is_failure(),
        "result": result.to_dict(),
    }
    return json.dumps(payload, sort_keys=True, default=repr).encode()


LOSSY = RunSpec(
    instance=InstanceSpec(family="random_regular", size=4, seed=3),
    algorithm="greedy_sequential",
    scenario=ScenarioSpec(model="lossy_links", seed=5, params={"drop": 0.2}),
)

POISON = RunSpec(instance=INSTANCE, algorithm="no_such_algorithm")


class TestPooledBytes:
    @pytest.mark.parametrize(
        "spec",
        [
            RunSpec(instance=INSTANCE, algorithm="bko20"),
            RunSpec(instance=INSTANCE, algorithm="kuhn_soda20"),
            LOSSY,
            POISON,
        ],
        ids=["bko20", "baseline", "lossy_links", "poison"],
    )
    def test_pooled_response_equals_in_process_run(self, live, spec):
        _, base = live
        direct = run(spec, cache=False, on_error="capture")
        expected = canonical_json(direct.to_dict())
        status, first, _ = request("POST", base + "/v1/run", spec.to_dict())
        assert status == 200 and first["source"] == "executed"
        assert first["failed"] is direct.is_failure()
        assert canonical_json(first["result"]) == expected
        status, again, _ = request("POST", base + "/v1/run", spec.to_dict())
        assert status == 200
        # Failures are never cached: the poison spec runs again.
        assert again["source"] == (
            "executed" if direct.is_failure() else "cache"
        )
        assert canonical_json(again["result"]) == expected

    @pytest.mark.parametrize(
        "spec",
        [RunSpec(instance=INSTANCE, algorithm="bko20"), LOSSY, POISON],
        ids=["bko20", "lossy_links", "poison"],
    )
    def test_a_solve_adopts_the_workers_serializations(self, live, spec):
        service, _ = live
        result, _ = service._solve(spec, spec.fingerprint())
        # Set by the worker's values, not computed in the server.
        adopted = result.__dict__["_result_fingerprint"]
        body = result.to_dict()
        assert result.__dict__["_json"] == json.dumps(
            body, sort_keys=True, default=repr
        )
        assert adopted == RunResult.from_dict(body).result_fingerprint()
        assert adopted == run(
            spec, cache=False, on_error="capture"
        ).result_fingerprint()

    @pytest.mark.parametrize(
        "spec",
        [
            RunSpec(instance=INSTANCE, algorithm="bko20"),
            RunSpec(instance=INSTANCE, algorithm="kuhn_soda20"),
            LOSSY,
        ],
        ids=["bko20", "baseline", "lossy_links"],
    )
    def test_miss_memory_and_disk_hits_serve_the_same_bytes(self, live, spec):
        service, base = live
        direct = run(spec, cache=False)
        expected = json.dumps(direct.to_dict(), sort_keys=True, default=repr)
        served = []
        for clear in (False, False, True):
            if clear:
                runner.clear_result_cache()
            status, body = post_raw(base, spec)
            assert status == 200
            _, rest = body.split(b'"result": ', 1)
            text, source = rest.rsplit(b', "source": ', 1)
            served.append((text.decode(), json.loads(source[:-1])))
        assert served == [
            (expected, "executed"),
            (expected, "cache"),
            (expected, "cache"),
        ]
        assert [
            row["disposition"] for row in read_ledger_rows(service.ledger_dir)
        ] == ["executed", "cache_memory", "cache_disk"]
        entry = service.cache_dir / f"{spec.fingerprint()}.json"
        assert entry.read_bytes() == json.dumps(
            {
                "format": 2,
                "fingerprint": spec.fingerprint(),
                "result": direct.to_dict(),
                "result_fingerprint": direct.result_fingerprint(),
            },
            sort_keys=True,
            default=repr,
        ).encode()

    def test_poison_record_keeps_its_traceback_digest(self, live):
        _, base = live
        spec = RunSpec(instance=INSTANCE, algorithm="no_such_algorithm")
        direct = run(spec, cache=False, on_error="capture")
        _, body, _ = request("POST", base + "/v1/run", spec.to_dict())
        assert body["result"]["failure"]["traceback_digest"] == (
            direct.traceback_digest
        )

    def test_ledger_rows_stay_in_the_server_file(self, live):
        service, base = live
        spec = RunSpec(instance=INSTANCE, algorithm="greedy_sequential")
        request("POST", base + "/v1/run", spec.to_dict())
        request("POST", base + "/v1/run", spec.to_dict())
        files = sorted(service.ledger_dir.glob("*.jsonl"))
        assert [path.name.rsplit("-", 1)[-1] for path in files] == [
            f"{os.getpid()}.jsonl"
        ]
        rows = read_ledger_rows(service.ledger_dir)
        assert [row["disposition"] for row in rows] == [
            "executed",
            "cache_memory",
        ]
        assert rows[0]["attempts"] == 1
        assert rows[0]["observed"]["wall_clock_s"] > 0


class TestMemoryLayer:
    def test_a_repeat_reads_no_disk_entry(self, live, monkeypatch):
        service, base = live
        loads = []
        disk_load = runner.disk_load

        def counted(*args):
            loads.append(args)
            return disk_load(*args)

        monkeypatch.setattr(runner, "disk_load", counted)
        spec = RunSpec(instance=INSTANCE, algorithm="greedy_sequential")
        status, first = post_raw(base, spec)
        assert status == 200 and len(loads) == 1  # the miss
        status, again = post_raw(base, spec)
        assert status == 200 and len(loads) == 1
        assert json.loads(again)["source"] == "cache"
        assert json.loads(again)["result"] == json.loads(first)["result"]
        assert [
            row["disposition"] for row in read_ledger_rows(service.ledger_dir)
        ] == ["executed", "cache_memory"]

    def test_a_restart_reads_the_disk_once(self, tmp_path):
        spec = RunSpec(instance=INSTANCE, algorithm="greedy_sequential")
        sources = []
        for _ in range(2):
            runner.clear_result_cache()  # process-wide: a restart empties it
            service = ReproService(tmp_path / "data")
            try:
                sources.append(service.run_one(spec)[2])
                sources.append(service.run_one(spec)[2])
            finally:
                service.close()
        assert sources == ["executed", "cache", "cache", "cache"]
        rows = read_ledger_rows(tmp_path / "data" / app.LEDGER_SUBDIR)
        assert [row["disposition"] for row in rows] == [
            "executed",
            "cache_memory",
            "cache_disk",
            "cache_memory",
        ]
        assert len({row["result_fingerprint"] for row in rows}) == 1

    def test_a_hit_refreshes_the_disk_entry(self, live):
        service, base = live
        spec = RunSpec(instance=INSTANCE, algorithm="greedy_sequential")
        post_raw(base, spec)
        entry = service.cache_dir / f"{spec.fingerprint()}.json"
        os.utime(entry, ns=(0, 0))
        post_raw(base, spec)
        assert entry.stat().st_mtime_ns > 0

    def test_a_hit_keeps_the_disk_cap(self, tmp_path):
        runner.clear_result_cache()
        specs = [
            RunSpec(instance=INSTANCE, algorithm="greedy_sequential"),
            RunSpec(instance=INSTANCE, algorithm="bko20"),
        ]
        service = ReproService(tmp_path / "data", cache_max_entries=1)
        try:
            for spec in specs + specs:
                service.run_one(spec)
        finally:
            service.close()
        assert len(list(service.cache_dir.glob("*.json"))) == 1

    def test_over_budget_results_come_from_disk_unchanged(
        self, live, monkeypatch
    ):
        service, base = live
        specs = [
            RunSpec(instance=INSTANCE, algorithm="bko20"),
            RunSpec(instance=INSTANCE, algorithm="greedy_sequential"),
        ]
        direct = [run(spec, cache=False) for spec in specs]
        monkeypatch.setattr(
            runner,
            "RESULT_CACHE_EDGES",
            max(len(result.coloring) for result in direct),
        )
        for round_index in range(3):
            for spec, result in zip(specs, direct):
                source = "executed" if round_index == 0 else "cache"
                assert post_raw(base, spec) == (
                    200,
                    envelope(spec, result, source),
                )
        assert [
            row["disposition"] for row in read_ledger_rows(service.ledger_dir)
        ] == ["executed"] * 2 + ["cache_disk"] * 4


class TestSaturation:
    def test_a_miss_beyond_the_bound_is_a_503(self, live):
        service, base = live
        bound = service.max_inflight
        assert bound == 2 * service.workers
        cached = RunSpec(instance=INSTANCE, algorithm="greedy_sequential")
        status, _, _ = request("POST", base + "/v1/run", cached.to_dict())
        assert status == 200
        fresh = [
            RunSpec(
                instance=InstanceSpec(family="path", size=5 + i, seed=i),
                algorithm="greedy_sequential",
            )
            for i in range(bound + 1)
        ]
        release = threading.Event()
        solve = service._solve

        def hold(spec, fingerprint):
            release.wait(BARRIER_S)
            return solve(spec, fingerprint)

        answers = []
        lock = threading.Lock()

        def post(spec):
            answer = request("POST", base + "/v1/run", spec.to_dict())
            with lock:
                answers.append(answer)

        service._solve = hold
        leaders = [
            threading.Thread(target=post, args=(spec,)) for spec in fresh[:-1]
        ]
        follower = threading.Thread(target=post, args=(fresh[0],))
        try:
            for thread in leaders:
                thread.start()
            wait_for(
                lambda: service.health()["inflight_runs"] == bound,
                f"{bound} leaders",
            )
            follower.start()
            wait_for(
                lambda: service.inflight_waiters(fresh[0].fingerprint()) == 1,
                "the follower",
            )
            status, body, headers = request(
                "POST", base + "/v1/run", fresh[-1].to_dict()
            )
            assert status == 503
            assert body["error"] == "unavailable"
            assert headers["Retry-After"] == "1"
            status, body, _ = request("POST", base + "/v1/run", cached.to_dict())
            assert status == 200 and body["source"] == "cache"
            status, health, _ = request("GET", base + "/v1/healthz")
            assert health["pool"] == {
                "workers": service.workers,
                "solving": 0,  # every leader is held before the pool
                "max_inflight": bound,
            }
            assert health["inflight_runs"] == bound
        finally:
            release.set()
            for thread in leaders + [follower]:
                thread.join()
            del service._solve
        sources = sorted(body["source"] for _, body, _ in answers)
        assert sources == ["coalesced"] + ["executed"] * bound
        status, body, _ = request("POST", base + "/v1/run", fresh[-1].to_dict())
        assert status == 200 and body["source"] == "executed"


def alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie waiting to be reaped does not)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    match = re.search(r"^State:\s+(\S)", status, re.MULTILINE)
    return match is not None and match.group(1) != "Z"


def children_of(pid: int) -> list[int]:
    found: list[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        found += [int(p) for p in (task / "children").read_text().split()]
    return found


needs_proc = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="needs Linux /proc"
)


@needs_proc
class TestWorkerDeath:
    def test_a_killed_worker_costs_at_most_one_503(self, tmp_path):
        before = set(children_of(os.getpid()))
        service = ReproService(tmp_path / "data")
        server, base = serve(service)
        spec = RunSpec(
            instance=InstanceSpec(family="random_regular", size=3, seed=7),
            algorithm="bko20",
        )
        try:
            workers = set(children_of(os.getpid())) - before
            assert len(workers) == service.workers
            victim = min(workers)
            os.kill(victim, signal.SIGKILL)
            statuses = []
            for _ in range(2):
                status, body, _ = request(
                    "POST", base + "/v1/run", spec.to_dict()
                )
                statuses.append(status)
                if status == 200:
                    break
                assert status == 503 and body["error"] == "unavailable"
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert statuses[-1] == 200 and statuses.count(503) <= 1
        assert body["source"] == "executed"
        assert canonical_json(body["result"]) == canonical_json(
            run(spec, cache=False).to_dict()
        )
        assert not alive(victim)

    def test_a_worker_killed_while_idle_costs_no_503(self, tmp_path):
        before = set(children_of(os.getpid()))
        runner.clear_result_cache()
        service = ReproService(tmp_path / "data")
        server, base = serve(service)
        spec = RunSpec(instance=INSTANCE, algorithm="bko20")
        try:
            # The idle stack hands out its last worker next.
            victim = service._idle.queue[-1].process.pid
            os.kill(victim, signal.SIGKILL)
            wait_for(lambda: not alive(victim), "the killed worker to die")
            status, body, _ = request("POST", base + "/v1/run", spec.to_dict())
            assert status == 200 and body["source"] == "executed"
            workers = [
                pid
                for pid in set(children_of(os.getpid())) - before
                if alive(pid)
            ]
            assert len(workers) == service.workers
            assert victim not in workers
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_a_miss_runs_no_executor_relay_thread(self, live):
        service, base = live
        spec = RunSpec(instance=INSTANCE, algorithm="greedy_sequential")
        status, body, _ = request("POST", base + "/v1/run", spec.to_dict())
        assert status == 200 and body["source"] == "executed"
        relays = [
            thread.name
            for thread in threading.enumerate()
            if thread.name == "QueueFeederThread"
            or type(thread).__module__.startswith("concurrent.futures")
        ]
        assert relays == []

    def test_a_worker_exception_is_raised_in_the_server(self, live, tmp_path):
        service, _ = live
        spec = RunSpec(instance=INSTANCE, algorithm="greedy_sequential")
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        options = service._worker_options
        service._worker_options = {**options, "cache_dir": str(blocker)}
        with pytest.raises(OSError) as excinfo:
            service._solve(spec, spec.fingerprint())
        assert any(
            note.startswith("in solve worker")
            for note in excinfo.value.__notes__
        )
        service._worker_options = options
        result, observed = service._solve(spec, spec.fingerprint())
        assert observed["disposition"] == "executed"
        assert result.result_fingerprint() == run(
            spec, cache=False
        ).result_fingerprint()

    def test_close_stops_every_worker(self, tmp_path):
        before = set(children_of(os.getpid()))
        service = ReproService(tmp_path / "data")
        workers = set(children_of(os.getpid())) - before
        assert len(workers) == service.workers
        assert all(alive(pid) for pid in workers)
        service.close()
        assert not any(alive(pid) for pid in workers)


#: ``prctl`` option making this process adopt its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36


@pytest.fixture()
def subreaper():
    """Adopt orphaned descendants for the test, so it can reap them.

    Workers orphaned by a killed server are otherwise re-parented to
    PID 1, which in a container may never reap them.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    adopted = libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    try:
        yield
    finally:
        if adopted:
            libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)


@needs_proc
@pytest.mark.usefixtures("subreaper")
class TestNoOrphans:
    """A ``repro serve`` child's pool workers die with it."""

    def start(self, tmp_path) -> tuple[subprocess.Popen, list[int]]:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--data-dir", str(tmp_path / "data")],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = proc.stdout.readline()
        base = re.search(r"http://\S+:\d+", line).group(0)
        spec = RunSpec(instance=INSTANCE, algorithm="greedy_sequential")
        status, _, _ = request("POST", base + "/v1/run", spec.to_dict())
        assert status == 200
        workers = children_of(proc.pid)
        assert workers and all(alive(pid) for pid in workers)
        return proc, workers

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGKILL])
    def test_no_worker_survives_the_server(self, tmp_path, signum):
        proc, workers = self.start(tmp_path)
        try:
            proc.send_signal(signum)
            proc.wait(timeout=BARRIER_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        wait_for(
            lambda: not any(alive(pid) for pid in workers),
            f"pool workers to exit after signal {signum}",
        )
        for pid in workers:  # adopted ones only; the server reaped the rest
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
