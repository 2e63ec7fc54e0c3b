"""Turning fault plans into injected behaviour via the library's seams.

The executor and the disk layer each expose one deliberate seam:

* :data:`repro.api.runner._FAULT_HOOK` — called as
  ``hook(fingerprint, attempt)`` at the start of every execution
  attempt, inside the attempt's deadline and retry scope;
* :data:`repro.api.diskcache._PUBLISH_FAULT` — consulted as
  ``hook(path, text)`` before every atomic JSON publish; returning
  ``True`` means the hook already "published" (e.g. a torn file).

A :class:`FaultInjector` compiles a :class:`~repro.faults.spec.FaultPlan`
into those two hooks.  Installation is process-local and explicitly
scoped (:func:`active_faults`); worker subprocesses opt in through the
:data:`ENV_VAR` environment variable (:func:`env_with_faults` on the
spawning side, :func:`install_from_env` inside ``python -m repro
worker``), which also flips ``in_worker`` so the ``worker_kill`` fault
can only ever take down a worker subprocess — never the coordinator or
a test harness.

Everything here is deterministic by construction: targeted faults key
on the spec fingerprint and the runner-supplied attempt number (both
identical in every process), and the stateful kinds (``torn_write``
counts, ``worker_kill`` spec counts) count per process, which is the
point — each process crashes/tears the same way the real failure
would, and recovery is the library's job.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.api import diskcache as _diskcache
from repro.api import runner as _runner
from repro.errors import InjectedFault
from repro.faults.spec import FaultPlan, FaultSpec

#: Environment variable carrying a JSON fault plan into worker
#: subprocesses (see :func:`env_with_faults` / :func:`install_from_env`).
ENV_VAR = "REPRO_FAULTS"

#: Exit code of a ``worker_kill`` fault — distinguishable from clean
#: exits and from signal deaths in ``worker_exit_nonzero`` events.
KILL_EXIT_CODE = 86


class FaultInjector:
    """Compiled, installable form of one fault plan.

    Parameters
    ----------
    plan:
        The faults to inject.
    in_worker:
        ``True`` only in worker subprocesses; gates ``worker_kill``.
    """

    def __init__(self, plan: FaultPlan, *, in_worker: bool = False) -> None:
        self.plan = plan
        self.in_worker = in_worker
        self._poison = plan.of_kind("poison")
        self._flaky = plan.of_kind("flaky")
        self._hang = plan.of_kind("hang")
        self._torn = plan.of_kind("torn_write")
        self._kill = plan.of_kind("worker_kill")
        self._torn_used: dict[int, int] = {}
        self._specs_executed = 0
        self._installed = False

    # -- the two hooks -------------------------------------------------

    def runner_hook(self, fingerprint: str, attempt: int) -> None:
        """Executor seam: maybe kill, stall, or fail this attempt."""
        if attempt == 1:
            # A spec boundary: the worker_kill budget counts distinct
            # executions, not retries.
            if self.in_worker and self._kill:
                budget = min(f.params["after_specs"] for f in self._kill)
                if self._specs_executed >= budget:
                    os._exit(KILL_EXIT_CODE)
            self._specs_executed += 1
        for fault in self._hang:
            if fault.matches(fingerprint):
                time.sleep(float(fault.params["sleep_s"]))
        for fault in self._flaky:
            if fault.matches(fingerprint) and attempt <= int(
                fault.params["fail_attempts"]
            ):
                raise InjectedFault(
                    f"injected flaky failure (attempt {attempt} of "
                    f"{fault.params['fail_attempts']} doomed) for spec "
                    f"{fingerprint[:12]}"
                )
        for fault in self._poison:
            if fault.matches(fingerprint):
                raise InjectedFault(
                    f"injected poison for spec {fingerprint[:12]}"
                )

    def publish_hook(self, path: Path, text: str) -> bool:
        """Disk seam: maybe publish a torn file instead of the payload."""
        for index, fault in enumerate(self._torn):
            if fault.params["match"] not in str(path):
                continue
            used = self._torn_used.get(index, 0)
            if used >= int(fault.params["count"]):
                continue
            self._torn_used[index] = used + 1
            # The artefact of a crash mid-write: the destination holds
            # a prefix of the payload and no rename ever happened.
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text[: max(1, len(text) // 2)])
            return True
        return False

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Attach both hooks (refusing to stack over a foreign injector)."""
        if _runner._FAULT_HOOK is not None or _diskcache._PUBLISH_FAULT is not None:
            raise InjectedFault(
                "another fault injector is already installed in this "
                "process; nest via a single combined FaultPlan instead"
            )
        # Pin the bound methods: attribute access would create fresh
        # objects, defeating the identity checks in uninstall().
        self._runner_hook = self.runner_hook
        self._publish_hook = self.publish_hook
        _runner._FAULT_HOOK = self._runner_hook
        _diskcache._PUBLISH_FAULT = self._publish_hook
        self._installed = True

    def uninstall(self) -> None:
        """Detach the hooks if this injector owns them."""
        if not self._installed:
            return
        if _runner._FAULT_HOOK is self._runner_hook:
            _runner._FAULT_HOOK = None
        if _diskcache._PUBLISH_FAULT is self._publish_hook:
            _diskcache._PUBLISH_FAULT = None
        self._installed = False


@contextmanager
def active_faults(
    plan: FaultPlan, *, in_worker: bool = False
) -> Iterator[FaultInjector]:
    """Scope a fault plan over a block: install on entry, always detach."""
    injector = FaultInjector(plan, in_worker=in_worker)
    injector.install()
    try:
        yield injector
    finally:
        injector.uninstall()


def env_with_faults(plan: FaultPlan) -> dict[str, str]:
    """The environment delta that ships ``plan`` to worker subprocesses."""
    return {ENV_VAR: plan.to_json()}


def install_from_env(environ: Any = None) -> FaultInjector | None:
    """Install the env-carried fault plan, if any (worker entry point).

    Called by ``python -m repro worker`` before draining: a plan found
    in :data:`ENV_VAR` is installed with ``in_worker=True`` (arming
    ``worker_kill``); no variable, no injector.  Returns the installed
    injector so callers can uninstall in tests.
    """
    source = os.environ if environ is None else environ
    text = source.get(ENV_VAR)
    if not text:
        return None
    injector = FaultInjector(FaultPlan.from_json(text), in_worker=True)
    injector.install()
    return injector


def apply_stale_leases(
    plan: FaultPlan, job_dir: str | Path, *, now: float | None = None
) -> list[int]:
    """Pre-plant the plan's ``stale_lease`` claims in a job directory.

    Each targeted shard gets a claim file held by the phantom worker
    ``"chaos-ghost:0"`` (pid 0 — never a live worker, so the
    coordinator's liveness scan cannot mistake it for one of its own)
    with a heartbeat ``age_s`` seconds in the past.  Returns the shard
    indices planted, for assertion by the harness.
    """
    from repro.cluster.queue import claim_path

    stamp = time.time() if now is None else now
    planted: list[int] = []
    for fault in plan.of_kind("stale_lease"):
        shard = int(fault.params["shard"])
        age = float(fault.params["age_s"])
        path = claim_path(job_dir, shard)
        path.parent.mkdir(parents=True, exist_ok=True)
        _diskcache.atomic_write_json(
            path,
            {
                "worker": "chaos-ghost:0",
                "claimed_at": stamp - age,
                "heartbeat_at": stamp - age,
            },
        )
        planted.append(shard)
    return planted
