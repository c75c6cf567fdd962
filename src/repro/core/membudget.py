"""An explicit workspace memory budget, threaded like ``Deadline``.

Everything in the seed assumed the reference table, its packed panels,
and every per-call workspace fit in RAM: on a smaller host the system
did not degrade, it OOMed. A :class:`MemoryBudget` makes the limit
explicit and *enforced*: workspace arenas charge every buffer growth
against it, plans consult it to decide whether reference panels may be
cached whole or must be streamed tile-by-tile from a memmapped table,
and any reservation that would cross the line raises
:class:`~repro.errors.MemoryBudgetError` before the allocation happens.

The budget mirrors :class:`repro.resilience.Deadline` deliberately —
``coerce`` accepts a ready budget, a raw byte count, a human spec like
``"64MiB"``, or ``None``, so every layer of the stack (config →
plan/arena → batch/streaming/serve → CLI) can
thread one optional parameter without caring which form the caller
used.

Scope: the budget caps *workspace* — panels, distance tiles, neighbor
lists, packed queries, gather buffers, every buffer an execute's
:class:`~repro.core.workspace.Workspace` lists — not the memmapped table
itself (the OS pages that in and out beneath us; that is the point),
not the results a call returns (they are the caller's), and not the
short-lived survivor arrays of a selection. Accounting is byte-exact
for every arena-managed buffer.
"""

from __future__ import annotations

import re
import threading

from ..errors import MemoryBudgetError, ValidationError
from ..obs.metrics import get_registry as _get_registry

__all__ = ["MemoryBudget", "parse_bytes"]

_UNITS = {
    "": 1,
    "b": 1,
    "k": 1 << 10,
    "kb": 1 << 10,
    "kib": 1 << 10,
    "m": 1 << 20,
    "mb": 1 << 20,
    "mib": 1 << 20,
    "g": 1 << 30,
    "gb": 1 << 30,
    "gib": 1 << 30,
    "t": 1 << 40,
    "tb": 1 << 40,
    "tib": 1 << 40,
}

_SPEC_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([a-zA-Z]*)\s*$")


def parse_bytes(spec: int | float | str) -> int:
    """Parse a byte-count spec: ``67108864``, ``"64MiB"``, ``"1.5g"``.

    Unit suffixes are case-insensitive and binary (``KB`` == ``KiB`` ==
    1024 bytes — nobody configuring a workspace cap wants decimal
    megabytes silently 5% smaller than the power of two they reasoned
    about).
    """
    if isinstance(spec, bool):
        raise ValidationError(f"cannot parse a memory size from {spec!r}")
    if isinstance(spec, (int, float)):
        nbytes = int(spec)
    else:
        match = _SPEC_RE.match(str(spec))
        if match is None:
            raise ValidationError(
                f"cannot parse a memory size from {spec!r} "
                "(expected e.g. 67108864, '64MiB', '1.5GB')"
            )
        number, unit = match.groups()
        factor = _UNITS.get(unit.lower())
        if factor is None:
            raise ValidationError(
                f"unknown memory unit {unit!r} in {spec!r} "
                f"(known: {', '.join(sorted(u for u in _UNITS if u))})"
            )
        nbytes = int(float(number) * factor)
    if nbytes <= 0:
        raise ValidationError(f"memory budget must be positive, got {spec!r}")
    return nbytes


class MemoryBudget:
    """A byte cap on kernel workspace, with live reserve/release accounting.

    Thread-safe: one budget may be shared by every arena of a plan's
    pool (concurrent executes borrow concurrent arenas; their combined
    footprint is what must stay under the limit).

    Parameters
    ----------
    limit:
        The cap — raw bytes or a spec accepted by :func:`parse_bytes`.
    """

    __slots__ = ("limit_bytes", "_lock", "_used", "_peak", "_denials")

    def __init__(self, limit: int | float | str) -> None:
        self.limit_bytes = parse_bytes(limit)
        self._lock = threading.Lock()
        self._used = 0
        self._peak = 0
        self._denials = 0

    @classmethod
    def coerce(
        cls, value: "MemoryBudget | int | float | str | None"
    ) -> "MemoryBudget | None":
        """Accept a ready budget, a byte count / spec, or ``None``.

        The threading idiom (same as ``Deadline.coerce``): every layer
        takes ``memory_budget=None`` and coerces, so callers pass
        whatever form they have and a shared budget object survives the
        descent through driver → plan → arena.
        """
        if value is None:
            return None
        if isinstance(value, cls):
            return value
        return cls(value)

    # -- accounting ----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently reserved against the budget."""
        return self._used

    @property
    def peak_bytes(self) -> int:
        """High-water mark of reserved bytes over the budget's lifetime."""
        return self._peak

    @property
    def remaining_bytes(self) -> int:
        return max(0, self.limit_bytes - self._used)

    @property
    def denials(self) -> int:
        """How many reservations were refused."""
        return self._denials

    def would_fit(self, nbytes: int) -> bool:
        return self._used + int(nbytes) <= self.limit_bytes

    def reserve(self, nbytes: int, site: str = "") -> None:
        """Charge ``nbytes``; raise :class:`MemoryBudgetError` if over cap.

        Nothing is allocated here — callers reserve first, allocate
        second, so denial happens before memory pressure, not after.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValidationError(f"cannot reserve {nbytes} bytes")
        with self._lock:
            if self._used + nbytes > self.limit_bytes:
                self._denials += 1
                used = self._used
                self._emit(denied=True)
                raise MemoryBudgetError(
                    f"memory budget exhausted at {site or 'reserve'}: "
                    f"requested {nbytes} bytes with {used} of "
                    f"{self.limit_bytes} already reserved",
                    limit=self.limit_bytes,
                    requested=nbytes,
                    used=used,
                    site=site or None,
                )
            self._used += nbytes
            if self._used > self._peak:
                self._peak = self._used
            self._emit()

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the budget (clamped at zero)."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValidationError(f"cannot release {nbytes} bytes")
        with self._lock:
            self._used = max(0, self._used - nbytes)
            self._emit()

    def _emit(self, denied: bool = False) -> None:
        # Called with the lock held; growth events are rare (buffers are
        # grow-only), so this is off the steady-state hot path entirely.
        registry = _get_registry()
        if not registry.enabled:
            return
        registry.set("budget.used_bytes", float(self._used))
        registry.set("budget.peak_bytes", float(self._peak))
        registry.set("budget.limit_bytes", float(self.limit_bytes))
        if denied:
            registry.inc("budget.denials")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryBudget(limit={self.limit_bytes}, used={self._used}, "
            f"peak={self._peak})"
        )
