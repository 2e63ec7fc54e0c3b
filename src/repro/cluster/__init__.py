"""repro.cluster — sharded, resumable multi-worker spec execution.

The layer above :func:`repro.api.run_many` for sweeps too big for one
process (or one machine): a spec batch is deterministically partitioned
into shards, independent workers drain the shards through the ordinary
batch executor against a shared directory, and the coordinator merges
the sealed shard outputs back into the exact ordered result list
``run_many`` would have produced — byte for byte::

    from repro.api import InstanceSpec, RunSpec
    from repro.cluster import run_sharded

    specs = [RunSpec(InstanceSpec(family="grid", size=s)) for s in range(3, 9)]
    results = run_sharded(specs, "jobs/grid-sweep", shards=4, local_workers=2)
    # == run_many(specs), byte-identical

No external dependencies: the *filesystem is the cluster*.  Workers on
any machine that shares the job directory participate by running
``python -m repro worker <job_dir>``; coordination is three kinds of
file —

* **task files** (written once by the deterministic planner,
  :mod:`repro.cluster.planner`): which fingerprints a shard owns;
* **claim files** (:mod:`repro.cluster.queue`): advisory leases with
  heartbeats; crashed workers' leases go stale and their shards are
  reclaimed by anyone still alive;
* **sealed result files** (:mod:`repro.cluster.worker`): published by
  atomic rename, integrity-checked on merge
  (:mod:`repro.cluster.coordinator`).

What the job *did* — shard claims, heartbeats and seals with their
wall-clock, spec resolutions, worker exits and escalations — is one
observational record, the event stream under ``events/``
(:mod:`repro.telemetry.events`); ``job_status`` reads its shard timing
and worker events from there.

Everything is content-addressed and idempotent, so any component may
die and be re-run: per-spec results spill into the job's shared
``cache/`` as they finish (a reclaimed shard replays them instead of
re-solving), and duplicate execution during a lease race publishes
byte-identical files.  The CLI front ends are ``python -m repro worker``
and ``python -m repro shard plan|status|merge|retry-failed``.

**Failure domains.**  Workers execute specs under a
:class:`~repro.api.FailurePolicy` (default capture): a poison spec
becomes a quarantined dead letter in the job's ``failed/`` directory
and merges as a :class:`~repro.results.FailedResult` slot; the
coordinator bounds its wait on spawned workers
(:func:`wait_for_workers`), escalating terminate → kill on any worker
whose lease heartbeats stop, and emits the events to the job's event
stream.
The deterministic chaos harness (:mod:`repro.faults`) drives injected
faults through this whole stack end-to-end.
"""

from repro.cluster.coordinator import (
    WorkerWatch,
    job_status,
    load_shard_results,
    merge_results,
    retry_failed,
    run_sharded,
    run_sharded_iter,
    spawn_local_worker,
    wait_for_workers,
)
from repro.cluster.planner import (
    ShardPlan,
    ensure_plan,
    load_plan,
    load_task,
    plan_shards,
    resolve_shards,
    write_plan,
)
from repro.cluster.queue import DEFAULT_LEASE_TTL, ShardQueue, default_worker_id
from repro.cluster.worker import (
    cache_dir_of,
    dead_letter_path,
    load_dead_letter,
    load_dead_letters,
    publish_shard_result,
    quarantine_failure,
    work_loop,
)

__all__ = [
    "DEFAULT_LEASE_TTL",
    "ShardPlan",
    "ShardQueue",
    "WorkerWatch",
    "cache_dir_of",
    "dead_letter_path",
    "default_worker_id",
    "ensure_plan",
    "job_status",
    "load_dead_letter",
    "load_dead_letters",
    "load_plan",
    "load_shard_results",
    "load_task",
    "merge_results",
    "plan_shards",
    "publish_shard_result",
    "quarantine_failure",
    "resolve_shards",
    "retry_failed",
    "run_sharded",
    "run_sharded_iter",
    "spawn_local_worker",
    "wait_for_workers",
    "work_loop",
]
