"""The observers as they stood before they took the clock from the event,
and before one ``WindowFold`` cut their windows for them.

``TraceRecorder``, ``MetricsCollector``, ``CostProfiler`` and
``EngineBusEmitter`` verbatim from the parent of the change that made
observation cost proportional to what an observer consumes.  Each one
re-reads ``meter.total_time()`` (and the profiler ``diff``s and copies a
snapshot) per op.  ``SLOTracker`` is verbatim from the parent of the
change that moved window counting into ``repro.core.runner.WindowFold``:
like the collector and the emitter here it counts ops, opens its first
window at ``"measure"`` and flushes the last at ``"done"`` itself.  Its
one edit: it re-sums the clock from the meter per op, as it did before
``OpEvent`` carried ``t_ns`` (the engine no longer reads the clock per
op for anyone).  ``tests/test_telemetry.py``, ``tests/test_events.py``
and ``tests/test_windows.py`` attach these and the live observers to
the same ``ExecutionEngine.run`` and require equal artifacts; nothing
else imports this module (the ``tests/pla_reference.py`` precedent).

``parity_case`` is the one addition: it builds the per-index stream
the parity tests run.
"""

from __future__ import annotations

import json
from statistics import median_high
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.cost import ALL_PHASES
from repro.core.events import (
    KIND_ALERT,
    KIND_OP_WINDOW,
    KIND_PHASE,
    KIND_SLO_WINDOW,
    KIND_SMO,
    EventBus,
)
from repro.core.opstream import generate_stream, stress_factory
from repro.core.registry import REGISTRY
from repro.core.report import table
from repro.core.runner import ExecutionObserver, LatencyStats, OpEvent
from repro.core.slo import (
    ALERT_BURN_RATE,
    ALERT_SMO_STORM,
    SEVERITY_CRITICAL,
    SEVERITY_WARNING,
    Alert,
    SLOTarget,
)
from repro.core.telemetry import (
    EVENT_INSTANT,
    EVENT_PHASE,
    EVENT_SPAN,
    METRIC_MEMORY,
    METRIC_SMO_RATE,
    METRIC_THROUGHPUT,
    MetricsRegistry,
    SmoStorm,
    events_to_chrome,
)
from repro.core.workloads import LOOKUP, Operation, Workload, mixed_workload


class TraceRecorder(ExecutionObserver):
    """Records per-operation spans and SMO instants on the virtual clock.

    Timestamps are the index meter's cumulative virtual nanoseconds at
    the moment each event ends; a span covers ``[ts_ns, ts_ns + dur_ns)``
    where ``dur_ns`` is the operation's full virtual cost (every op is
    timed, not just the engine's ~1% latency samples).

    ``events`` is a list of plain dicts ready for
    :func:`repro.core.results.save_jsonl`; :meth:`to_chrome` converts
    them to the Chrome trace-event format for Perfetto.
    """

    def __init__(self, max_events: int = 1_000_000) -> None:
        self.events: List[dict] = []
        self.dropped = 0
        self.max_events = max_events
        self.index_name = ""
        self.workload_name = ""
        self._meter = None
        self._last_ns = 0.0

    # -- observer hooks -----------------------------------------------------

    def on_phase(self, phase, index, workload) -> None:
        self._meter = index.meter
        self.index_name = index.name
        self.workload_name = workload.name
        now = self._meter.total_time()
        if phase == "measure":
            self._last_ns = now
        self._emit({
            "kind": EVENT_PHASE, "name": phase, "ts_ns": now,
        })

    def on_op(self, event: OpEvent, latency: Optional[float]) -> None:
        now = self._meter.total_time()
        rec = {
            "kind": EVENT_SPAN,
            "name": event.op.op,
            "ts_ns": self._last_ns,
            "dur_ns": now - self._last_ns,
            "seq": event.seq,
            "key": event.op.key,
            "ok": event.ok,
        }
        if event.scanned:
            rec["scanned"] = event.scanned
        r = event.record
        if r is not None and (r.keys_shifted or r.nodes_created or r.smo):
            rec["keys_shifted"] = r.keys_shifted
            rec["nodes_created"] = r.nodes_created
        self._last_ns = now
        self._emit(rec)

    def on_smo(self, event: OpEvent) -> None:
        r = event.record
        self._emit({
            "kind": EVENT_INSTANT,
            "name": "smo",
            "ts_ns": self._meter.total_time(),
            "seq": event.seq,
            "key": event.op.key,
            "keys_shifted": r.keys_shifted if r else 0,
            "nodes_created": r.nodes_created if r else 0,
        })

    def _emit(self, rec: dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(rec)

    # -- export -------------------------------------------------------------

    def spans(self) -> List[dict]:
        return [e for e in self.events if e["kind"] == EVENT_SPAN]

    def to_chrome(self) -> dict:
        """The recorded run as a Chrome trace-event JSON object."""
        title = f"{self.index_name} / {self.workload_name}"
        return events_to_chrome(self.events, title, dropped=self.dropped)

    def save_chrome(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_chrome(), f)



class MetricsCollector(ExecutionObserver):
    """Windowed time-series over a run, backed by a :class:`MetricsRegistry`.

    Every ``window_ops`` operations the collector closes a window and
    emits one sample per metric at the current virtual timestamp:
    rolling throughput (Mops on the virtual clock), rolling SMO rate
    (SMOs per op) and the index's analytic ``memory_usage()`` total.
    ``series`` holds the samples as dicts ready for ``save_jsonl``.

    **Thread-safety: none — single-engine-thread only.**  The window
    counters are unlocked read-modify-write state, exactly like the base
    :class:`~repro.core.cost.CostMeter` (see its docstring); a collector
    observes one engine loop.  The multi-threaded serving tier does not
    attach one: :class:`~repro.core.server.IndexServer` wraps each
    instance's meter in :class:`~repro.core.cost.SyncedMeter` and keeps
    its own per-instance counters under locks instead
    (``tests/test_server.py`` hammers that path from two threads).
    """

    def __init__(self, window_ops: int = 256) -> None:
        if window_ops < 1:
            raise ValueError("window_ops must be >= 1")
        self.window_ops = window_ops
        self.registry = MetricsRegistry()
        self.series: List[dict] = []
        self._index = None
        self._meter = None
        self._win_start_ns = 0.0
        self._win_ops = 0
        self._win_smos = 0

    # -- observer hooks -----------------------------------------------------

    def on_phase(self, phase, index, workload) -> None:
        self._index = index
        self._meter = index.meter
        if phase == "measure":
            self._win_start_ns = self._meter.total_time()
            self.registry.gauge(METRIC_MEMORY).set(index.memory_usage().total)
        elif phase == "done" and self._win_ops:
            self._close_window()

    def on_op(self, event: OpEvent, latency: Optional[float]) -> None:
        reg = self.registry
        reg.counter("ops_total").inc()
        reg.counter(f"ops.{event.op.op}").inc()
        if not event.ok:
            reg.counter("ops_failed").inc()
        if latency is not None:
            reg.histogram("op_latency_ns").observe(latency)
        self._win_ops += 1
        if self._win_ops >= self.window_ops:
            self._close_window()

    def on_smo(self, event: OpEvent) -> None:
        self.registry.counter("smo_total").inc()
        self._win_smos += 1

    def _close_window(self) -> None:
        now = self._meter.total_time()
        dur = now - self._win_start_ns
        mops = (self._win_ops / dur) * 1e3 if dur > 0 else 0.0
        mem = self._index.memory_usage().total
        self.registry.gauge(METRIC_MEMORY).set(mem)
        for metric, value in (
            (METRIC_THROUGHPUT, mops),
            (METRIC_SMO_RATE, self._win_smos / self._win_ops),
            (METRIC_MEMORY, mem),
        ):
            self.series.append({
                "kind": "metric", "metric": metric, "t_ns": now,
                "window_start_ns": self._win_start_ns, "value": value,
                "window_ops": self._win_ops,
            })
        self._win_start_ns = now
        self._win_ops = 0
        self._win_smos = 0

    # -- analysis -----------------------------------------------------------

    def samples(self, metric: str) -> List[dict]:
        return [s for s in self.series if s["metric"] == metric]

    def smo_storms(self, factor: float = 3.0,
                   min_rate: float = 0.05) -> List[SmoStorm]:
        """Windows whose SMO rate spikes above the run's baseline.

        A window is *hot* when its rate exceeds both ``min_rate`` and
        ``factor`` x the *median* window rate (the median, unlike the
        mean, stays a calm baseline even when storms dominate total
        SMO count); consecutive hot windows merge into one storm.
        These are the bursts behind the paper's insert tail-latency
        observations (Figure 10).
        """
        samples = self.samples(METRIC_SMO_RATE)
        if not samples:
            return []
        rates = sorted(s["value"] for s in samples)
        median = rates[len(rates) // 2]
        threshold = max(min_rate, factor * median)
        storms: List[SmoStorm] = []
        for s in samples:
            if s["value"] <= threshold:
                continue
            if storms and storms[-1].end_ns == s["window_start_ns"]:
                prev = storms[-1]
                total = prev.ops + s["window_ops"]
                prev.rate = (prev.rate * prev.ops
                             + s["value"] * s["window_ops"]) / total
                prev.ops = total
                prev.end_ns = s["t_ns"]
            else:
                storms.append(SmoStorm(start_ns=s["window_start_ns"],
                                       end_ns=s["t_ns"], rate=s["value"],
                                       ops=s["window_ops"]))
        return storms

    def memory_growth(self) -> float:
        """Last / first memory sample (1.0 = flat)."""
        mems = self.samples(METRIC_MEMORY)
        if len(mems) < 2 or mems[0]["value"] <= 0:
            return 1.0
        return mems[-1]["value"] / mems[0]["value"]



class CostProfiler(ExecutionObserver):
    """Attributes virtual time to (op kind x cost phase x cost kind).

    The profiler snapshots the index's meter around every operation and
    folds each :meth:`~repro.core.cost.CostMeter.diff` into a cell keyed
    by the executing op kind.  Because every charge the meter sees lands
    in exactly one cell, the profile's per-phase totals reconcile with
    ``CostMeter.time_by_phase()`` to float precision.
    """

    def __init__(self) -> None:
        #: (op_kind, phase, cost_kind) -> units
        self.cells: Dict[Tuple[str, str, str], float] = {}
        self.weights: Dict[str, float] = {}
        self._meter = None
        self._snap: Dict[Tuple[str, str], float] = {}

    def on_phase(self, phase, index, workload) -> None:
        self._meter = index.meter
        self.weights = dict(index.meter.weights)
        if phase == "measure":
            self._snap = self._meter.snapshot()

    def on_op(self, event: OpEvent, latency: Optional[float]) -> None:
        delta = self._meter.diff(self._snap)
        if delta.counts:
            op_kind = event.op.op
            for (phase, kind), units in delta.counts.items():
                key = (op_kind, phase, kind)
                self.cells[key] = self.cells.get(key, 0.0) + units
            self._snap = self._meter.snapshot()

    # -- aggregation --------------------------------------------------------

    def _ns(self, kind: str, units: float) -> float:
        return self.weights.get(kind, 0.0) * units

    def total_ns(self) -> float:
        return sum(self._ns(kind, u)
                   for (_, _, kind), u in self.cells.items())

    def time_by_phase(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (_, phase, kind), u in self.cells.items():
            out[phase] = out.get(phase, 0.0) + self._ns(kind, u)
        return out

    def time_by_op(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (op, _, kind), u in self.cells.items():
            out[op] = out.get(op, 0.0) + self._ns(kind, u)
        return out

    def time_by_kind(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (_, _, kind), u in self.cells.items():
            out[kind] = out.get(kind, 0.0) + self._ns(kind, u)
        return out

    def rows(self) -> List[Tuple[str, str, str, float, float]]:
        """Flame-table rows (op, phase, kind, units, ns), hottest first."""
        out = [(op, phase, kind, u, self._ns(kind, u))
               for (op, phase, kind), u in self.cells.items()]
        out.sort(key=lambda r: -r[4])
        return out

    def render(self, top: int = 20) -> str:
        """The flame-table report: hottest cells, then per-phase totals."""
        total = self.total_ns()
        rows = []
        for op, phase, kind, units, ns in self.rows()[:top]:
            share = ns / total if total > 0 else 0.0
            rows.append([op, phase, kind, f"{units:.0f}", f"{ns:.0f}",
                         f"{share:.1%}"])
        out = [table(["Op", "Phase", "Cost kind", "Units", "Virtual ns", "Share"],
                     rows, title="Cost profile (hottest cells)")]
        by_phase = self.time_by_phase()
        phase_rows = [[p, f"{by_phase.get(p, 0.0):.0f}",
                       f"{(by_phase.get(p, 0.0) / total if total else 0):.1%}"]
                      for p in ALL_PHASES if by_phase.get(p)]
        out.append("")
        out.append(table(["Phase", "Virtual ns", "Share"], phase_rows,
                         title="Per-phase totals"))
        by_op = self.time_by_op()
        op_rows = [[o, f"{ns:.0f}",
                    f"{(ns / total if total else 0):.1%}"]
                   for o, ns in sorted(by_op.items(), key=lambda kv: -kv[1])]
        out.append("")
        out.append(table(["Op", "Virtual ns", "Share"], op_rows,
                         title="Per-op totals"))
        return "\n".join(out)



class EngineBusEmitter(ExecutionObserver):
    """Publishes one run's engine stream into a bus.

    Per-op events would dwarf everything else in the ring, so ops are
    coalesced into windows of ``window_ops`` (per-kind counts, ok
    counts, the window's virtual duration and rolling throughput);
    phases and SMOs are rare and publish individually.  Only reads the
    meter — never charges it.
    """

    def __init__(self, bus: EventBus, window_ops: int = 256) -> None:
        if window_ops < 1:
            raise ValueError("window_ops must be >= 1")
        self.bus = bus
        self.window_ops = window_ops
        self._meter = None
        self._source = ""
        self._win_start_ns = 0.0
        self._win_ops = 0
        self._win_ok = 0
        self._win_counts: Dict[str, int] = {}

    def _now(self) -> float:
        return self._meter.total_time() if self._meter is not None else 0.0

    def on_phase(self, phase: str, index, workload) -> None:
        self._meter = index.meter
        self._source = getattr(index, "name", type(index).__name__)
        if phase == "measure":
            self._win_start_ns = self._now()
        elif phase == "done" and self._win_ops:
            self._close_window()
        self.bus.publish(
            KIND_PHASE, source=self._source, t_ns=self._now(),
            phase=phase, workload=getattr(workload, "name", ""))

    def on_op(self, event: OpEvent, latency) -> None:
        kind = event.op.op
        self._win_counts[kind] = self._win_counts.get(kind, 0) + 1
        self._win_ops += 1
        if event.ok:
            self._win_ok += 1
        if self._win_ops >= self.window_ops:
            self._close_window()

    def on_smo(self, event: OpEvent) -> None:
        record = event.record
        self.bus.publish(
            KIND_SMO, source=self._source, t_ns=self._now(),
            op_seq=event.seq, op=event.op.op,
            nodes_created=getattr(record, "nodes_created", 0),
            keys_shifted=getattr(record, "keys_shifted", 0))

    def _close_window(self) -> None:
        now = self._now()
        dur = now - self._win_start_ns
        ops_per_vsec = (self._win_ops / (dur / 1e9)) if dur > 0 else 0.0
        self.bus.publish(
            KIND_OP_WINDOW, source=self._source, t_ns=now,
            window_start_ns=self._win_start_ns, ops=self._win_ops,
            ok=self._win_ok, op_counts=dict(self._win_counts),
            ops_per_vsec=ops_per_vsec)
        self._win_start_ns = now
        self._win_ops = 0
        self._win_ok = 0
        self._win_counts = {}



class SLOTracker(ExecutionObserver):
    """Windowed SLO evaluation of one run's op stream.

    Attach to a run (``observers=[tracker]`` or via ``repro run
    --events``); every ``window_ops`` operations it closes a window,
    computes per-op-kind latency percentiles, judges them against the
    targets, and raises :class:`Alert`\\ s:

    * ``burn_rate`` — a window consumed its error budget faster than
      granted (burn > 1 warns; burn ≥ ``burn_critical`` is critical).
    * ``smo_storm`` — the window's SMO rate exceeds
      ``max(storm_min_rate, storm_factor × median prior rate)`` (the
      PR-3 detector, streamed); ``storm_escalate`` consecutive hot
      windows escalate the storm to critical.

    With a ``bus``, every closed window publishes ``slo_window`` events
    and every alert publishes an ``alert`` event.
    """

    def __init__(
        self,
        targets: Iterable[SLOTarget] = (),
        window_ops: int = 256,
        bus: Optional[EventBus] = None,
        calibration_factor: float = 4.0,
        burn_critical: float = 4.0,
        storm_factor: float = 3.0,
        storm_min_rate: float = 0.05,
        storm_escalate: int = 3,
    ) -> None:
        if window_ops < 1:
            raise ValueError("window_ops must be >= 1")
        self.targets: Dict[str, SLOTarget] = {t.op_kind: t for t in targets}
        self.window_ops = window_ops
        self.bus = bus
        self.calibration_factor = calibration_factor
        self.burn_critical = burn_critical
        self.storm_factor = storm_factor
        self.storm_min_rate = storm_min_rate
        self.storm_escalate = storm_escalate
        #: Targets were inferred from the first window, not configured.
        self.auto_calibrated = not self.targets
        self._calibrated = bool(self.targets)

        self.windows: List[dict] = []
        self.alerts: List[Alert] = []
        self.violations: Dict[str, int] = {}
        self.judged_ops: Dict[str, int] = {}

        self._meter = None
        self._source = ""
        self._last_ns = 0.0
        self._win_start_ns = 0.0
        self._win_ops = 0
        self._win_smos = 0
        self._win_samples: Dict[str, List[float]] = {}
        self._smo_rates: List[float] = []
        self._hot_run = 0

    # -- observer hooks --------------------------------------------------------

    def on_phase(self, phase: str, index, workload) -> None:
        self._meter = index.meter
        self._source = getattr(index, "name", type(index).__name__)
        if phase == "measure":
            self._last_ns = self._meter.total_time()
            self._win_start_ns = self._last_ns
        elif phase == "done" and self._win_ops:
            self._close_window(self._meter.total_time())

    def on_op(self, event: OpEvent, latency) -> None:
        # Latency is the op's full virtual cost — the delta between
        # consecutive clock readings — regardless of engine sampling,
        # so SLO windows see every op, not the ~1% sampled subset.
        now = self._meter.total_time()
        kind = event.op.op
        samples = self._win_samples.get(kind)
        if samples is None:
            samples = self._win_samples[kind] = []
        samples.append(now - self._last_ns)
        self._last_ns = now
        self._win_ops += 1
        if self._win_ops >= self.window_ops:
            self._close_window(now)

    def on_smo(self, event: OpEvent) -> None:
        self._win_smos += 1

    # -- windows ---------------------------------------------------------------

    def _alert(self, kind: str, severity: str, t_ns: float, message: str,
               **details) -> None:
        alert = Alert(kind=kind, severity=severity, source=self._source,
                      t_ns=t_ns, message=message, details=details)
        self.alerts.append(alert)
        if self.bus is not None:
            self.bus.publish(KIND_ALERT, source=self._source, t_ns=t_ns,
                             alert=kind, severity=severity, message=message,
                             **details)

    def _close_window(self, now: float) -> None:
        window = {"t_ns": now, "window_start_ns": self._win_start_ns,
                  "ops": self._win_ops, "smos": self._win_smos,
                  "source": self._source, "ops_kinds": {}}
        calibrating = not self._calibrated
        for kind, samples in sorted(self._win_samples.items()):
            stats = LatencyStats.from_samples(samples)
            entry = {"count": stats.count, "p50": stats.p50,
                     "p99": stats.p99, "p999": stats.p999}
            if calibrating:
                self.targets[kind] = SLOTarget(
                    op_kind=kind,
                    threshold_ns=max(stats.p99, 1.0) * self.calibration_factor)
            target = self.targets.get(kind)
            if target is not None and not calibrating:
                violations = sum(1 for s in samples if s > target.threshold_ns)
                budget = (1.0 - target.objective) * len(samples)
                burn = (violations / budget if budget > 0
                        else (float("inf") if violations else 0.0))
                self.violations[kind] = self.violations.get(kind, 0) + violations
                self.judged_ops[kind] = self.judged_ops.get(kind, 0) + len(samples)
                entry.update(threshold_ns=target.threshold_ns,
                             violations=violations, burn_rate=burn)
                if burn > 1.0:
                    severity = (SEVERITY_CRITICAL if burn >= self.burn_critical
                                else SEVERITY_WARNING)
                    self._alert(
                        ALERT_BURN_RATE, severity, now,
                        f"{kind} burned {burn:.1f}x its error budget "
                        f"({violations}/{len(samples)} ops over "
                        f"{target.threshold_ns:.0f} ns)",
                        op=kind, burn_rate=burn, violations=violations,
                        window_ops=len(samples),
                        threshold_ns=target.threshold_ns)
            window["ops_kinds"][kind] = entry
            if self.bus is not None:
                self.bus.publish(KIND_SLO_WINDOW, source=self._source,
                                 t_ns=now, op=kind, **entry)
        if calibrating:
            self._calibrated = True

        # SMO-storm escalation: the PR-3 median-baseline rule, streamed
        # over the windows closed so far (>= 3 priors before judging, so
        # early windows can't self-trigger).
        rate = self._win_smos / self._win_ops if self._win_ops else 0.0
        if len(self._smo_rates) >= 3:
            baseline = median_high(self._smo_rates)
            threshold = max(self.storm_min_rate, self.storm_factor * baseline)
            if rate > threshold:
                self._hot_run += 1
                if self._hot_run == 1:
                    self._alert(
                        ALERT_SMO_STORM, SEVERITY_WARNING, now,
                        f"SMO storm: {rate:.0%} of ops triggered SMOs "
                        f"(baseline {baseline:.1%})",
                        rate=rate, baseline=baseline, threshold=threshold)
                elif self._hot_run == self.storm_escalate:
                    self._alert(
                        ALERT_SMO_STORM, SEVERITY_CRITICAL, now,
                        f"SMO storm sustained {self._hot_run} windows "
                        f"({rate:.0%} of ops)",
                        rate=rate, baseline=baseline,
                        hot_windows=self._hot_run)
            else:
                self._hot_run = 0
        self._smo_rates.append(rate)

        self.windows.append(window)
        self._win_start_ns = now
        self._win_ops = 0
        self._win_smos = 0
        self._win_samples = {}

    # -- reporting -------------------------------------------------------------

    def budget_used(self, op_kind: str) -> float:
        """Fraction of the cumulative error budget consumed (1.0 = spent)."""
        target = self.targets.get(op_kind)
        judged = self.judged_ops.get(op_kind, 0)
        if target is None or judged == 0:
            return 0.0
        budget = (1.0 - target.objective) * judged
        if budget <= 0:
            return float("inf") if self.violations.get(op_kind) else 0.0
        return self.violations.get(op_kind, 0) / budget

    def summary(self) -> dict:
        return {
            "source": self._source,
            "windows": len(self.windows),
            "auto_calibrated": self.auto_calibrated,
            "targets": {
                k: {"threshold_ns": t.threshold_ns, "objective": t.objective}
                for k, t in sorted(self.targets.items())
            },
            "op_kinds": {
                k: {"judged_ops": self.judged_ops.get(k, 0),
                    "violations": self.violations.get(k, 0),
                    "budget_used": self.budget_used(k)}
                for k in sorted(self.targets)
            },
            "alerts": [
                {"kind": a.kind, "severity": a.severity, "source": a.source,
                 "t_ns": a.t_ns, "message": a.message, "details": a.details}
                for a in self.alerts
            ],
        }



def parity_case(name: str) -> Tuple[Callable[[], Any], Workload]:
    """An SMO-dense factory for registry index ``name`` and a stream
    shaped by its capabilities (inserts, deletes, updates, scans where
    supported), ending in a run of lookups long enough for the engine
    to resolve in blocks once the tests shorten them to 64 ops."""
    spec = REGISTRY.get(name)
    if not spec.supports_insert:
        return spec.factory, mixed_workload(
            range(7, 800 * 7919, 7919), 0.0, n_ops=400, seed=6)
    workload = generate_stream(spec, seed=3, n_ops=600).to_workload()
    tail = [Operation(LOOKUP, key) for key, _ in workload.bulk_items[:96]]
    return stress_factory(name), Workload(
        workload.name, workload.bulk_items, workload.operations + tail)
