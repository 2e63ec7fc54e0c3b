"""Observability: run ledger, span tracing, events, and fleet metrics.

Everything in this package is **observational**: it records what ran
where, under which environment, at what cost — and none of it may ever
feed back into results.  The invariant (which the cluster layer's
shard timing, read from the event stream, also keeps) is:

    observational data never enters fingerprints or sealed files.

The surfaces:

* :mod:`repro.telemetry.ledger` — one append-only JSONL record per
  executed spec (environment snapshot, disposition, wall-clock,
  attempts, rounds/messages), written through the executor's
  ``ledger_dir=`` seam and defaulted on by cluster workers.
* :mod:`repro.telemetry.trace` — a zero-dependency ``trace`` context
  manager emitting nested spans into the same ledger stream, with a
  no-op fast path when disabled.
* :mod:`repro.telemetry.events` — the live job event stream: workers
  and coordinator append sequenced progress events (shard lifecycle,
  spec dispositions, retries, dead letters, worker supervision) under
  ``<job>/events/`` with the ledger's per-process-file discipline;
  readers merge with an opaque resume cursor so a dropped client
  misses nothing.
* :mod:`repro.telemetry.metrics` — the in-process registry behind the
  service's ``GET /v1/metrics`` and the real ``/v1/healthz`` load
  figures.
* :mod:`repro.telemetry.prometheus` — the registry snapshot rendered
  in the Prometheus text exposition format
  (``GET /v1/metrics?format=prometheus``).
* :mod:`repro.telemetry.report` — the fleet rollup behind
  ``python -m repro report`` (latency percentiles, cache/retry rates,
  ledger-driven retry advice).
* :mod:`repro.telemetry.flame` — parent→child span trees: self/total
  time by call path and the critical path (``repro report --flame``).
* :mod:`repro.telemetry.top` — the refreshing terminal dashboard
  behind ``python -m repro top`` and ``shard status --watch``.
"""

from repro.telemetry.events import (
    EVENT_TYPES,
    emit_event,
    encode_cursor,
    events_context,
    events_dir_of,
    parse_cursor,
    read_events,
)
from repro.telemetry.flame import (
    build_flame,
    flame_rollup,
    format_flame,
)
from repro.telemetry.ledger import (
    LEDGER_FORMAT,
    LedgerWriter,
    active_ledger_dir,
    ledger_context,
    read_ledger_rows,
    record_run,
    snapshot_environment,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.telemetry.report import format_report, rollup
from repro.telemetry.top import render_job_view, run_top, shard_progress_table
from repro.telemetry.trace import trace, trace_context, tracing_enabled

__all__ = [
    "EVENT_TYPES",
    "LEDGER_FORMAT",
    "LedgerWriter",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "active_ledger_dir",
    "build_flame",
    "emit_event",
    "encode_cursor",
    "events_context",
    "events_dir_of",
    "flame_rollup",
    "format_flame",
    "format_report",
    "ledger_context",
    "parse_cursor",
    "read_events",
    "read_ledger_rows",
    "record_run",
    "render_job_view",
    "render_prometheus",
    "rollup",
    "run_top",
    "shard_progress_table",
    "snapshot_environment",
    "trace",
    "trace_context",
    "tracing_enabled",
]
