"""repro.service — an idempotent HTTP front door over the executor.

The serving tier of the stack: spec fingerprints become **idempotency
keys**, so identical requests cost one solve no matter how many
clients send them — concurrent duplicates coalesce onto the single
in-flight execution, later duplicates replay from the disk cache — and
batches become **streaming sharded jobs** identified by their plan
fingerprint, executed through :mod:`repro.cluster` with failures
captured per spec.

Zero dependencies: the transport is :class:`http.server.HTTPServer`
with handler threads that park between connections (so a cache hit
starts no thread) and a header parser of its own, and the client needs
nothing beyond ``urllib`` (see ``examples/service_client.py``).  Start
one with::

    python -m repro serve --port 8000 --data-dir service-data

or in-process::

    from repro.service import ReproService, make_server

    service = ReproService("service-data")  # forks the solve workers
    server = make_server(service, port=0)   # ephemeral port
    try:
        server.serve_forever()
    finally:
        service.close()                     # stops the solve workers

Endpoints: ``POST /v1/run``, ``POST /v1/jobs``, ``GET /v1/jobs/<id>``,
``GET /v1/jobs/<id>/stream`` (NDJSON, batch order, exactly once),
``GET /v1/registry``, ``GET /v1/healthz`` — full contract in
:mod:`repro.service.http`.
"""

from repro.service.app import (
    CACHE_SUBDIR,
    JOBS_SUBDIR,
    Job,
    ReproService,
    registry_payload,
)
from repro.service.http import ServiceHandler, make_server

__all__ = [
    "CACHE_SUBDIR",
    "JOBS_SUBDIR",
    "Job",
    "ReproService",
    "ServiceHandler",
    "make_server",
    "registry_payload",
]
