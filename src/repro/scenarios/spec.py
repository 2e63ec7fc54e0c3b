"""Declarative, serializable scenario descriptions.

A :class:`ScenarioSpec` names an execution model from the scenario
registry, the adversary's seed, and the model's parameters — nothing
else.  It composes into :class:`repro.api.RunSpec` (the ``scenario``
field) and therefore into the spec fingerprint, the result cache, and
the process-pool executor: a scenario run is just a run whose spec
carries one more declarative block.

Fingerprint semantics mirror the rest of the spec layer:

* parameters are normalised through the model's schema before
  fingerprinting, so ``{}`` and spelled-out defaults are one scenario;
* the **identity** scenario (``synchronous``) contributes *nothing* to
  the enclosing run fingerprint — a spec carrying it is the same
  experiment as a spec without one, shares its fingerprint, and hits
  the same cache entries (that is the bit-for-bit contract).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import check_known_keys
from repro.scenarios.registry import get_model

#: Keys a serialized ScenarioSpec may carry.
_SCENARIO_KEYS = frozenset({"model", "seed", "params"})


@dataclass(frozen=True)
class ScenarioSpec:
    """A serializable description of one execution model instance.

    Attributes
    ----------
    model:
        Name from the scenario registry
        (:func:`repro.scenarios.registry.model_names`).
    seed:
        The adversary's seed — drives the drop/crash/quota schedule,
        independently of the run seed (same algorithm randomness, a
        different adversary, and vice versa).
    params:
        Model parameters.  Accepts any mapping; stored as a sorted
        tuple of pairs so specs stay hashable (``dict(spec.params)``
        recovers the mapping).  Validated eagerly against the model's
        schema.
    """

    model: str = "synchronous"
    seed: int = 0
    params: Mapping[str, Any] | tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "params", tuple(sorted(dict(self.params).items()))
        )
        # Eager validation: unknown models and bad parameters fail at
        # construction, not deep inside a sweep.
        get_model(self.model).validate_params(dict(self.params))

    def is_identity(self) -> bool:
        """``True`` when runs under this scenario are the plain engine."""
        return get_model(self.model).identity

    def normalized_params(self) -> dict[str, Any]:
        """The parameters that actually execute (defaults filled in)."""
        return get_model(self.model).validate_params(dict(self.params))

    def label(self) -> str:
        """Short human-readable identifier (table row label)."""
        if self.is_identity():
            return self.model
        inside = ",".join(
            f"{key}={value}" for key, value in sorted(self.normalized_params().items())
        )
        suffix = f"[{inside}]" if inside else ""
        return f"{self.model}{suffix}#s{self.seed}"

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (empty params dropped)."""
        payload: dict[str, Any] = {"model": self.model, "seed": self.seed}
        if self.params:
            payload["params"] = dict(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; unknown fields raise."""
        check_known_keys(payload, _SCENARIO_KEYS, "ScenarioSpec")
        return cls(
            model=payload.get("model", "synchronous"),
            seed=int(payload.get("seed", 0)),
            params=dict(payload.get("params", {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def _fingerprint_payload(self) -> dict[str, Any]:
        """Canonical form entering the enclosing run fingerprint.

        Only non-identity scenarios ever reach a fingerprint (the run
        spec omits identity scenarios entirely), and parameters are
        normalised, so equal adversaries hash equal regardless of
        spelling.
        """
        return {
            "model": self.model,
            "seed": self.seed,
            "params": self.normalized_params(),
        }
