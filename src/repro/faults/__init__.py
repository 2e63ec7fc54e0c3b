"""repro.faults — deterministic fault injection (the chaos harness).

Robustness claims need adversaries.  This package turns seeded
:class:`FaultSpec` descriptions — poison specs, flaky specs, hangs,
torn file writes, killed workers, stale leases — into injected
behaviour via two deliberate seams in the execution stack
(:data:`repro.api.runner._FAULT_HOOK` and
:data:`repro.api.diskcache._PUBLISH_FAULT`), so every failure-handling
path in the library can be driven on purpose, reproducibly::

    from repro.faults import FaultPlan, active_faults, make_fault

    plan = FaultPlan(seed=7, faults=(
        make_fault("poison", target=spec.fingerprint()),
        make_fault("torn_write", match="results/", count=1),
    ))
    with active_faults(plan):
        results = run_many(specs, on_error="capture")

Determinism is the point: fault plans are fingerprinted and round-trip
through JSON (workers receive theirs via the ``REPRO_FAULTS``
environment variable), and targeted faults key on spec fingerprints
and runner-supplied attempt numbers.  ``tests/test_faults.py`` drives
a seeded schedule of every fault kind through a sharded run end to
end.
"""

from repro.faults.injector import (
    ENV_VAR,
    KILL_EXIT_CODE,
    FaultInjector,
    active_faults,
    apply_stale_leases,
    env_with_faults,
    install_from_env,
)
from repro.faults.spec import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    make_fault,
)

__all__ = [
    "ENV_VAR",
    "FAULT_KINDS",
    "KILL_EXIT_CODE",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "active_faults",
    "apply_stale_leases",
    "env_with_faults",
    "install_from_env",
    "make_fault",
]
