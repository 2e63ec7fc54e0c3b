#!/usr/bin/env python3
"""Talk to the repro service with nothing but the standard library.

The service's whole point is that clients need zero dependencies:
every exchange below is plain ``urllib`` + ``json``.  The script
demonstrates the full client lifecycle —

1. ``POST /v1/run`` the same spec twice: the first response is
   ``"executed"``, the repeat is a ``"cache"`` replay with a
   byte-identical result (the fingerprint in ``X-Repro-Fingerprint``
   is the idempotency key).
2. ``POST /v1/jobs`` a mixed batch (duplicate spec included) as a
   sharded job, then ``GET /v1/jobs/<id>`` to poll progress, and
   ``GET /v1/jobs/<id>/stream`` to read the NDJSON stream — one
   ``{"index": i, "result": ...}`` line per spec, in batch order, as
   shards seal.
3. Resubmit the identical batch: same job id back, nothing re-runs.

Point it at a running server, or let it start a private in-process one
(the default — no setup needed)::

    python examples/service_client.py                    # in-process
    python -m repro serve --port 8000 &                  # or external:
    python examples/service_client.py http://127.0.0.1:8000

Run it twice against a persistent server and every single run comes
back ``"cache"``.
"""

import json
import sys
import tempfile
import threading
import time
import urllib.request


def request(method: str, url: str, payload=None):
    """One JSON round-trip; returns ``(status, body, headers)``."""
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(req, timeout=120) as response:
        return response.status, json.loads(response.read()), response.headers


def main() -> None:
    if len(sys.argv) > 1:
        base = sys.argv[1].rstrip("/")
        cleanup = None
    else:
        # No server given: start a private one on an ephemeral port.
        from repro.service import ReproService, make_server

        data_dir = tempfile.mkdtemp(prefix="repro-service-demo-")
        service = ReproService(data_dir)  # forks the solve pool
        server = make_server(service)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        threading.Thread(target=server.serve_forever, daemon=True).start()

        def cleanup() -> None:
            server.shutdown()
            service.close()

        print(f"started in-process service at {base} (data in {data_dir})")

    try:
        # -- single runs: fingerprint = idempotency key ----------------
        spec = {
            "instance": {"family": "complete_bipartite", "size": 3, "seed": 2},
            "algorithm": "bko20",
        }
        status, body, headers = request("POST", base + "/v1/run", spec)
        print(
            f"\nPOST /v1/run -> {status} source={body['source']} "
            f"colors={body['result']['colors_used']} "
            f"[{headers['X-Repro-Fingerprint'][:12]}]"
        )
        status, body, _ = request("POST", base + "/v1/run", spec)
        print(f"POST /v1/run (repeat) -> {status} source={body['source']}")

        # -- a sharded streaming job -----------------------------------
        batch = [
            spec,
            {**spec, "algorithm": "greedy_sequential"},
            {
                **spec,
                "algorithm": "greedy_sequential",
                "scenario": {
                    "model": "crash_stop", "seed": 5, "params": {"f": 2}
                },
            },
            spec,  # duplicate: one solve fans out to both slots
        ]
        status, job, _ = request(
            "POST",
            base + "/v1/jobs",
            {"specs": batch, "shards": "auto", "local_workers": 1},
        )
        print(
            f"\nPOST /v1/jobs -> {status} job={job['job'][:12]} "
            f"created={job['created']} shards={job['shards']}"
        )

        # Poll progress while the stream below fills (jobs run in the
        # background; status is cheap and always answers).
        status, snap, _ = request("GET", base + job["status_url"])
        print(
            f"GET {job['status_url'][:22]}… -> state={snap['state']} "
            f"done={snap['done']}/{snap['total']}"
        )

        # Stream: one NDJSON line per spec, batch order, exactly once.
        print(f"GET {job['stream_url'][:22]}…/stream:")
        with urllib.request.urlopen(
            base + job["stream_url"], timeout=300
        ) as stream:
            for raw in stream:
                if not raw.strip():
                    continue
                line = json.loads(raw)
                result = line["result"]
                failed = "FAILED " if "failure" in result else ""
                print(
                    f"  index {line['index']}: {failed}{result['name']} "
                    f"[{result['fingerprint'][:12]}]"
                )

        # Terminal state (give the driver a beat to reap its worker).
        deadline = time.time() + 30
        while time.time() < deadline:
            status, snap, _ = request("GET", base + job["status_url"])
            if snap["state"] != "running":
                break
            time.sleep(0.05)
        print(f"final state: {snap['state']} ({snap['done']}/{snap['total']})")

        # -- idempotent resubmission ------------------------------------
        status, again, _ = request(
            "POST",
            base + "/v1/jobs",
            {"specs": batch, "shards": "auto", "local_workers": 1},
        )
        print(
            f"\nresubmit -> {status} same job: "
            f"{again['job'] == job['job']}, created={again['created']}"
        )
    finally:
        if cleanup is not None:
            cleanup()


if __name__ == "__main__":
    main()
