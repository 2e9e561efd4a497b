"""Instance lifecycle layer: named, stateful wrappers around indexes.

The execution stack used to hand the engine a *bare* index; nothing in
the system knew whether that index was still bulk loading, serving
traffic, or halfway through being replaced.  An :class:`IndexInstance`
is the missing operational identity: one registry-built index plus

* a **state machine** — ``LOADING -> SERVING -> MIGRATING -> DRAINING
  -> RETIRED`` with explicit legal transitions (illegal ones raise
  :class:`StateError` instead of silently corrupting a rollout),
* an **admission policy** — which operation kinds each state accepts
  (``DRAINING`` serves reads while refusing writes; ``RETIRED`` refuses
  everything).  Rejections are counted, never silently dropped, so a
  migration run can prove "zero lookup downtime" as a measured fact,
* **live status** — per-op-kind counts (bumped in line by whoever
  applies the ops: the engine's per-op body, the shard router, the
  server), the last SMO's sequence number, and backfill progress, all
  reported by :meth:`status`; lifecycle events go straight to an
  attached event bus.

The engine (:mod:`repro.core.runner`) now routes every run through an
instance; a bare index is wrapped on entry via :meth:`IndexInstance.wrap`,
which is what keeps the single-instance path byte-identical to the
pre-instance releases (the wrapper adds observers, never charges).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.workloads import DELETE, INSERT, LOOKUP, SCAN, UPDATE
from repro.indexes.multiplex import MultiplexIndex

__all__ = [
    "LOADING", "SERVING", "MIGRATING", "DRAINING", "RETIRED", "STATES",
    "AdmissionError", "IndexInstance", "StateError",
]

#: Lifecycle states, in the order a healthy migration walks them.
LOADING = "loading"
SERVING = "serving"
MIGRATING = "migrating"
DRAINING = "draining"
RETIRED = "retired"
STATES = (LOADING, SERVING, MIGRATING, DRAINING, RETIRED)

#: Legal transitions.  ``MIGRATING -> SERVING`` is the rollback edge: a
#: diverging migration aborts and the primary resumes normal service.
_TRANSITIONS: Dict[str, frozenset] = {
    LOADING: frozenset({SERVING, RETIRED}),
    SERVING: frozenset({MIGRATING, DRAINING, RETIRED}),
    MIGRATING: frozenset({SERVING, DRAINING, RETIRED}),
    DRAINING: frozenset({RETIRED}),
    RETIRED: frozenset(),
}

READ_OPS = frozenset({LOOKUP, SCAN})
WRITE_OPS = frozenset({INSERT, UPDATE, DELETE})
ALL_OPS = READ_OPS | WRITE_OPS

#: Admission policy per state.  MIGRATING admits everything — that is
#: the whole point of multiplexed migration: clients never notice.
_ADMISSION: Dict[str, frozenset] = {
    LOADING: frozenset(),
    SERVING: ALL_OPS,
    MIGRATING: ALL_OPS,
    DRAINING: READ_OPS,
    RETIRED: frozenset(),
}


class StateError(RuntimeError):
    """An illegal lifecycle transition or state-gated call."""


class AdmissionError(RuntimeError):
    """An operation the instance's state refuses.

    Raised by :meth:`IndexInstance.admit`, which counts the refusal
    before the raise — refusals are facts to report, never silent
    drops.
    """

    def __init__(self, instance: "IndexInstance", op_kind: str) -> None:
        super().__init__(
            f"instance {instance.name!r} ({instance.state}) does not "
            f"admit {op_kind!r} operations")
        self.instance = instance
        self.op_kind = op_kind


class IndexInstance:
    """One index with an operational identity.

    Whoever applies ops to it bumps :attr:`op_counts` in line — the
    engine's per-op body, the shard router and the server each do — and
    the engine and router call :meth:`on_smo` for an op that ran an SMO;
    :meth:`status` reports both.  The engine also passes it the
    ``on_phase`` calls of its observers (duck-typed).
    """

    def __init__(self, index: Any, name: str = "",
                 state: str = LOADING) -> None:
        if state not in STATES:
            raise StateError(f"unknown instance state {state!r}")
        self.index = index
        self.name = name or getattr(index, "name", "index")
        self._state = state
        #: Lifecycle events (state changes, progress ticks, admission
        #: rejections) recorded so far, published to :attr:`bus` if set.
        self.events = 0
        self.op_counts: Dict[str, int] = {}
        self.rejected: Dict[str, int] = {}
        self.smo_count = 0
        self.last_smo_seq: Optional[int] = None
        self._progress: Optional[dict] = None
        #: An :class:`~repro.core.events.EventBus` (duck-typed: this
        #: module sits below the bus in the import order), or ``None``.
        self.bus: Any = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def wrap(cls, index: Any) -> "IndexInstance":
        """A fresh LOADING instance around ``index`` (engine entry path)."""
        if isinstance(index, IndexInstance):
            return index
        return cls(index)

    # -- the state machine ----------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    def advance(self, state: str, reason: str = "") -> "IndexInstance":
        """Move to ``state``; anything not in the transition table raises."""
        if state not in STATES:
            raise StateError(f"unknown instance state {state!r}")
        if state not in _TRANSITIONS[self._state]:
            raise StateError(
                f"instance {self.name!r}: illegal transition "
                f"{self._state} -> {state}")
        self._publish("state", from_state=self._state, to=state,
                      reason=reason)
        self._state = state
        return self

    def admits(self, op_kind: str) -> bool:
        """Whether the admission policy accepts ``op_kind`` right now."""
        return op_kind in _ADMISSION[self._state]

    def admit(self, op_kind: str) -> None:
        """Raise :class:`AdmissionError` (and count it) unless admitted."""
        if not self.admits(op_kind):
            self.rejected[op_kind] = self.rejected.get(op_kind, 0) + 1
            self._publish("admission_reject", op=op_kind, state=self._state)
            raise AdmissionError(self, op_kind)

    def bulk_load(self, items: Any) -> None:
        """Load the wrapped index and transition LOADING -> SERVING."""
        if self._state != LOADING:
            raise StateError(
                f"instance {self.name!r}: bulk_load requires LOADING, "
                f"is {self._state}")
        self.index.bulk_load(items)
        self.advance(SERVING, f"bulk loaded {len(items)} items")

    # -- telemetry-fed status --------------------------------------------------

    def _publish(self, kind: str, **payload: Any) -> None:
        """Count one lifecycle event and publish it to the bus, stamped
        with the wrapped index's virtual clock."""
        self.events += 1
        if self.bus is not None:
            self.bus.publish(kind, source=self.name,
                             t_ns=self.index.meter.total_time(), **payload)

    def note_backfill(self, stage: str, done: int, total: int) -> None:
        """Record one backfill/verify progress tick."""
        self._progress = {"event": "progress", "stage": stage,
                          "done": done, "total": total}
        self._publish("backfill_chunk", stage=stage, done=done, total=total,
                      fraction=done / total if total else 0.0)

    def watch(self, mux: Any) -> None:
        """Follow a migration multiplexer: its pump progress feeds
        :meth:`note_backfill`."""
        mux.progress_sink = self.note_backfill

    def attach_bus(self, bus: Any) -> "IndexInstance":
        """Publish this instance's lifecycle events into ``bus``: state
        changes, backfill/verify progress and admission rejections, as
        ``state`` / ``backfill_chunk`` / ``admission_reject`` events."""
        self.bus = bus
        return self

    @property
    def ops_total(self) -> int:
        return sum(self.op_counts.values())

    @property
    def backfill_fraction(self) -> Optional[float]:
        """Completed fraction of the last progress stage (None = idle)."""
        if not self._progress or not self._progress.get("total"):
            return None
        return self._progress["done"] / self._progress["total"]

    def status(self) -> dict:
        """Operational snapshot: state, size, traffic, SMO recency.

        While the instance serves through a migrating
        :class:`~repro.indexes.multiplex.MultiplexIndex`, the
        multiplexer's own snapshot rides along under ``"migration"`` —
        backfill cursor, dirty-set size, verify counters, all mid-flight.
        """
        out = {
            "name": self.name,
            "index": getattr(self.index, "name", type(self.index).__name__),
            "state": self._state,
            "size": len(self.index),
            "ops": self.ops_total,
            "op_counts": dict(self.op_counts),
            "rejected": dict(self.rejected),
            "smo_count": self.smo_count,
            "last_smo_seq": self.last_smo_seq,
            "progress": dict(self._progress) if self._progress else None,
            "backfill_fraction": self.backfill_fraction,
            "events": self.events,
        }
        if isinstance(self.index, MultiplexIndex) and self.index.migrating:
            out["migration"] = self.index.status()
        return out

    # -- ExecutionObserver protocol (duck-typed) -------------------------------

    def on_phase(self, phase: str, index: Any, workload: Any) -> None:
        pass

    def on_smo(self, event: Any) -> None:
        self.smo_count += 1
        self.last_smo_seq = event.seq

    def __repr__(self) -> str:
        return (f"IndexInstance({self.name!r}, state={self._state}, "
                f"size={len(self.index)})")
