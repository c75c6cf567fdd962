"""Deterministic fault injection for the execution layer.

A :class:`FaultPlan` is a *seeded schedule* of three fault kinds,
fired inside the tasks of the resilience layer's one retry/fallback
loop — by the schedule executor, the distributed rank kernels, shard
workers and serve windows:

* **crash** — the executing site dies: ``os._exit`` in a process
  worker (a real ``BrokenProcessPool``), an :class:`InjectedFault`
  raise in threads/serial/task/rank scopes;
* **slow** — the site sleeps ``slow_seconds`` before computing, so
  deadline enforcement paths get exercised;
* **alloc** — an injected :class:`MemoryError` before the kernel runs.

A process worker receives the plan as its spec string (:meth:`spec`)
and parses it with :meth:`FaultPlan.parse`; there is no other
injection hook.

Decisions are *stateless and deterministic*: whether fault ``kind``
fires at ``(scope, key, attempt)`` is a pure hash of those coordinates
plus the plan's seed. Worker processes therefore need no shared RNG —
the same plan makes the same faults fire in the same places on every
run, which is what lets tests pin every recovery path instead of
relying on luck. The ``attempt`` coordinate means an item that crashed
on attempt 0 rolls fresh dice on attempt 1; a ladder's fault-free last
rung guarantees completion whatever the rates. A rate of ``1.0`` fires
on *every* attempt, forcing the full fallback ladder.

Grammar (CLI ``--fault-plan``, env ``REPRO_FAULT_PLAN``)::

    seed=7,crash=0.3,slow=0.2,slow_ms=20,alloc=0.1

comma-separated ``key=value`` pairs; rates in ``[0, 1]``.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from ..errors import InjectedFault, ValidationError
from ..obs.metrics import get_registry as _get_registry

__all__ = ["FaultPlan", "FAULT_PLAN_ENV"]

#: Environment variable holding a fault-plan spec string. Read once at
#: the driver entry points (``execute_schedule``,
#: ``DistributedAllKnn.solve``, ``ShardedAllKnn``, ``KnnQueryService``)
#: — which also switch on a default retry policy, so a plan in the
#: environment turns every suite run into a recovery-path exercise that
#: must still pass.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

_RATE_KEYS = ("crash", "slow", "alloc")


def _unit(seed: int, kind: str, scope: str, key: object, attempt: int) -> float:
    """Deterministic uniform value in [0, 1) for one decision site.

    blake2b, not ``zlib.crc32``: CRC is linear, so single-character
    differences between site strings (adjacent task ids, successive
    attempts) produce tightly correlated values — a 0.5 crash rate would
    fire on nearly all sites or nearly none, seed depending. A
    cryptographic hash gives independent decisions per coordinate.
    (Never ``hash()``: it is salted per process, and workers must agree
    with the parent.)
    """
    text = f"{seed}:{kind}:{scope}:{key}:{attempt}"
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected failures.

    Rates are per-(scope, key, attempt) probabilities.
    """

    seed: int = 0
    crash: float = 0.0
    slow: float = 0.0
    alloc: float = 0.0
    slow_seconds: float = 0.02

    def __post_init__(self) -> None:
        for name in _RATE_KEYS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(
                    f"fault rate {name} must be in [0, 1], got {rate}"
                )
        if self.slow_seconds < 0:
            raise ValidationError(
                f"slow_seconds must be >= 0, got {self.slow_seconds}"
            )

    # -- construction ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``key=value,...`` spec grammar (see module docstring)."""
        kwargs: dict = {}
        for part in filter(None, (p.strip() for p in text.split(","))):
            if "=" not in part:
                raise ValidationError(
                    f"fault-plan entry {part!r} is not key=value "
                    f"(full spec: {text!r})"
                )
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key in _RATE_KEYS:
                    kwargs[key] = float(value)
                elif key == "slow_ms":
                    kwargs["slow_seconds"] = float(value) / 1e3
                elif key == "slow_s":
                    kwargs["slow_seconds"] = float(value)
                else:
                    raise ValidationError(
                        f"unknown fault-plan key {key!r} (full spec: {text!r})"
                    )
            except ValueError as exc:
                raise ValidationError(
                    f"bad fault-plan value {part!r}: {exc}"
                ) from None
        return cls(**kwargs)

    @classmethod
    def coerce(cls, value: "FaultPlan | str | None") -> "FaultPlan | None":
        if value is None or isinstance(value, FaultPlan):
            return value
        return cls.parse(value)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan named by ``$REPRO_FAULT_PLAN``, or ``None``."""
        spec = os.environ.get(FAULT_PLAN_ENV)
        if not spec:
            return None
        return cls.parse(spec)

    def spec(self) -> str:
        """Round-trippable spec string (what workers receive)."""
        parts = [f"seed={self.seed}"]
        for name in _RATE_KEYS:
            rate = getattr(self, name)
            if rate:
                parts.append(f"{name}={rate}")
        if self.slow:
            parts.append(f"slow_s={self.slow_seconds}")
        return ",".join(parts)

    @property
    def active(self) -> bool:
        return bool(self.crash or self.slow or self.alloc)

    # -- decisions ------------------------------------------------------------

    def decide(
        self, scope: str, key: object, attempt: int = 0
    ) -> str | None:
        """Which fault (if any) fires at this site — pure, no side effects.

        ``scope`` names the execution layer (``"task"``, ``"rank"``,
        ``"shard"``, ``"shard.refresh"``, ``"serve.window"``), ``key``
        the work item within it, ``attempt`` the 0-based retry count.
        Order: crash beats alloc beats slow.
        """
        if self.crash and _unit(self.seed, "crash", scope, key, attempt) < self.crash:
            return "crash"
        if self.alloc and _unit(self.seed, "alloc", scope, key, attempt) < self.alloc:
            return "alloc"
        if self.slow and _unit(self.seed, "slow", scope, key, attempt) < self.slow:
            return "slow"
        return None

    def apply(
        self,
        scope: str,
        key: object,
        attempt: int = 0,
        *,
        hard_exit: bool = False,
    ) -> None:
        """Fire the decided fault, if any.

        ``hard_exit`` is set only inside process-pool workers, where a
        crash must be a real process death (``os._exit``) so the parent
        sees a genuine ``BrokenProcessPool``; elsewhere a crash raises
        :class:`InjectedFault`. ``slow`` sleeps and returns; ``alloc``
        raises :class:`MemoryError`.
        """
        kind = self.decide(scope, key, attempt)
        if kind is None:
            return
        registry = _get_registry()
        if registry.enabled:
            registry.inc("resilience.faults_injected")
            registry.inc(f"resilience.faults_injected.{kind}")
        if kind == "slow":
            time.sleep(self.slow_seconds)
            return
        if kind == "crash":
            if hard_exit:
                os._exit(13)
            raise InjectedFault(
                f"injected crash at {scope}={key} attempt={attempt} "
                f"(seed={self.seed})"
            )
        raise MemoryError(
            f"injected allocation failure at {scope}={key} "
            f"attempt={attempt} (seed={self.seed})"
        )
