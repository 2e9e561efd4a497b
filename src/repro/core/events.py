"""Operational event bus: one stream correlating every subsystem.

Telemetry (PR 3) records what *one run* did; the instance layer (PR 7)
records what *one instance* did.  Nothing correlated them: a migration
interleaves engine ops, backfill chunks, admission decisions and a
cutover, and a sweep adds worker tasks and cache hits on top.  The
:class:`EventBus` is the missing spine — a thread-safe, bounded,
subscribable stream of typed events that the engine, instances, the
migration control plane and the sweep scheduler all publish into, and
that :mod:`repro.core.slo` folds into live SLO state and alerts.

Design rules, in order:

* **Zero cost-meter impact.**  Emitters only *read* virtual clocks
  (``meter.total_time()``), never charge them, so a run with a bus
  attached produces bit-identical results and fingerprints to a bare
  run — the same contract telemetry and the instance wrapper honor
  (tests/test_events.py pins it across the whole registry).
* **Flat, versioned records.**  Every event is one flat dict —
  ``{"kind", "source", "t_ns", "seq", ...payload}`` — persisted through
  the results layer (:func:`~repro.core.results.save_jsonl`), so event
  logs carry ``schema_version`` and load/validate like every other
  artifact.
* **Bounded memory.**  The buffer is a ring (``capacity`` events);
  ``published`` keeps the true total so overflow is observable
  (``dropped``), never silent.
* **Callbacks outside the lock.**  Subscribers (the SLO tracker, a
  live ``repro top`` renderer) run unlocked: a slow subscriber delays
  its publisher but can never deadlock another thread's publish.

Import layering matches :mod:`repro.core.telemetry`: this module
imports from :mod:`repro.core.runner`; the runner accepts a ``bus``
duck-typed and never imports back.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Iterable, List, Optional

from repro.core.results import save_jsonl
from repro.core.runner import ExecutionObserver, OpEvent, OpWindow

__all__ = [
    "EVENT_KINDS",
    "EventBus",
    "KIND_ADMISSION_REJECT",
    "KIND_ALERT",
    "KIND_BACKFILL_CHUNK",
    "KIND_CACHE_HIT",
    "KIND_CUTOVER",
    "KIND_JOB",
    "KIND_OP_WINDOW",
    "KIND_PHASE",
    "KIND_SLO_WINDOW",
    "KIND_SMO",
    "KIND_STATE",
    "KIND_SWEEP_TASK",
    "validate_bus_events",
]

#: Typed event kinds.  One vocabulary for the whole system: the engine
#: publishes phase/op-window/SMO, instances publish state/admission,
#: migration publishes backfill/cutover, the sweep publishes
#: task/cache-hit, and the SLO layer publishes windows/alerts back
#: into the same stream.
KIND_PHASE = "phase"
KIND_OP_WINDOW = "op_window"
KIND_SMO = "smo"
KIND_STATE = "state"
KIND_BACKFILL_CHUNK = "backfill_chunk"
KIND_CUTOVER = "cutover"
KIND_ADMISSION_REJECT = "admission_reject"
KIND_SWEEP_TASK = "sweep_task"
KIND_CACHE_HIT = "cache_hit"
KIND_SLO_WINDOW = "slo_window"
KIND_ALERT = "alert"
#: Background-job lifecycle/progress from the index server: submission
#: (with queue depth), running, per-step progress (chunks pumped,
#: verified fraction, virtual-clock ETA) and the terminal state.
KIND_JOB = "job"

EVENT_KINDS = frozenset({
    KIND_PHASE, KIND_OP_WINDOW, KIND_SMO, KIND_STATE, KIND_BACKFILL_CHUNK,
    KIND_CUTOVER, KIND_ADMISSION_REJECT, KIND_SWEEP_TASK, KIND_CACHE_HIT,
    KIND_SLO_WINDOW, KIND_ALERT, KIND_JOB,
})

Subscriber = Callable[[dict], None]


class EventBus:
    """Thread-safe bounded pub/sub stream of operational events.

    ``capacity`` bounds the ring buffer; ``published`` counts every
    event ever accepted, so ``dropped`` is always exact.  Subscribers
    are invoked synchronously in subscription order, outside the
    buffer lock, with the event dict (treat it as read-only).
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._subscribers: List[tuple] = []  # (callback, kinds-or-None)
        self.published = 0

    # -- publishing -----------------------------------------------------------

    def publish(self, kind: str, source: str = "", t_ns: float = 0.0,
                **payload) -> dict:
        """Append one event and fan it out to matching subscribers.

        ``kind`` must be one of :data:`EVENT_KINDS` — an open vocabulary
        would silently fork the schema.  ``t_ns`` is the publisher's
        virtual clock reading (0.0 when no clock applies, e.g. sweep
        scheduling).  Returns the event dict.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; known: {sorted(EVENT_KINDS)}")
        with self._lock:
            seq = self.published
            self.published += 1
            event = {"kind": kind, "source": source, "t_ns": t_ns,
                     "seq": seq, **payload}
            self._buffer.append(event)
            subscribers = list(self._subscribers)
        for callback, kinds in subscribers:
            if kinds is None or kind in kinds:
                callback(event)
        return event

    # -- subscription ----------------------------------------------------------

    def subscribe(self, callback: Subscriber,
                  kinds: Optional[Iterable[str]] = None) -> Subscriber:
        """Register ``callback`` for every event (or only ``kinds``)."""
        kindset = None if kinds is None else frozenset(kinds)
        if kindset is not None:
            unknown = kindset - EVENT_KINDS
            if unknown:
                raise ValueError(f"unknown event kinds {sorted(unknown)}")
        with self._lock:
            self._subscribers.append((callback, kindset))
        return callback

    def unsubscribe(self, callback: Subscriber) -> None:
        with self._lock:
            self._subscribers = [(cb, ks) for cb, ks in self._subscribers
                                 if cb is not callback]

    # -- reading ---------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring by overflow."""
        with self._lock:
            return self.published - len(self._buffer)

    def events(self, kind: Optional[str] = None,
               source: Optional[str] = None) -> List[dict]:
        """Buffered events, oldest first, optionally filtered."""
        with self._lock:
            out = list(self._buffer)
        if kind is not None:
            out = [e for e in out if e["kind"] == kind]
        if source is not None:
            out = [e for e in out if e["source"] == source]
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._buffer)

    def save(self, path: str, append: bool = False) -> int:
        """Persist the buffered events as versioned JSON-lines."""
        return save_jsonl(self.events(), path,
                          tags={"artifact": "events"}, append=append)

    # -- emitters --------------------------------------------------------------

    def engine_observer(self, window_ops: int = 256) -> "EngineBusEmitter":
        """An :class:`~repro.core.runner.ExecutionObserver` publishing
        this run's phase/op-window/SMO events into the bus."""
        return EngineBusEmitter(self, window_ops=window_ops)


class EngineBusEmitter(ExecutionObserver):
    """Publishes one run's engine stream into a bus.

    Per-op events would dwarf everything else in the ring, so ops come
    coalesced into windows of ``window_ops`` (per-kind counts, ok
    counts, the window's virtual duration and rolling throughput);
    phases and SMOs are rare and publish individually.  SMOs are
    stamped with the op's clock, which the engine hands ``on_smo``; the
    meter is never charged.
    """

    def __init__(self, bus: EventBus, window_ops: int = 256) -> None:
        if window_ops < 1:
            raise ValueError("window_ops must be >= 1")
        self.bus = bus
        self.window_ops = window_ops
        #: Who the events are published under: the index a run's phases
        #: named, or what a producer feeding ``on_window`` itself set.
        self.source = ""

    def on_phase(self, phase: str, index, workload) -> None:
        self.source = getattr(index, "name", type(index).__name__)
        self.bus.publish(
            KIND_PHASE, source=self.source, t_ns=index.meter.total_time(),
            phase=phase, workload=getattr(workload, "name", ""))

    def on_smo(self, event: OpEvent) -> None:
        record = event.record
        self.bus.publish(
            KIND_SMO, source=self.source, t_ns=event.t_ns,
            op_seq=event.seq, op=event.op.op,
            nodes_created=getattr(record, "nodes_created", 0),
            keys_shifted=getattr(record, "keys_shifted", 0))

    def on_window(self, window: OpWindow) -> None:
        dur = window.t_ns - window.start_ns
        self.bus.publish(
            KIND_OP_WINDOW, source=self.source, t_ns=window.t_ns,
            window_start_ns=window.start_ns, ops=window.ops, ok=window.ok,
            op_counts=window.counts,
            ops_per_vsec=(window.ops / (dur / 1e9)) if dur > 0 else 0.0)


def validate_bus_events(records: Iterable[dict]) -> int:
    """Validate persisted bus events; returns the count or raises."""
    n = 0
    last_seq = -1
    for i, rec in enumerate(records):
        for field in ("kind", "source", "t_ns", "seq"):
            if field not in rec:
                raise ValueError(f"event {i}: missing field {field!r}")
        if rec["kind"] not in EVENT_KINDS:
            raise ValueError(f"event {i}: unknown kind {rec['kind']!r}")
        if not isinstance(rec["seq"], int) or rec["seq"] <= last_seq:
            raise ValueError(
                f"event {i}: seq {rec['seq']!r} not strictly increasing")
        last_seq = rec["seq"]
        n += 1
    return n
