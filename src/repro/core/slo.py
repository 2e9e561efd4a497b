"""SLO tracking over the event bus: windows, budgets, burn rates, alerts.

The paper's verdicts hinge on *tail* behavior under churn — SMO storms
and p99/p999 excursions, not means.  This module turns the raw signals
into operator-grade state:

* :class:`SLOTracker` — an execution observer computing windowed
  p50/p99/p999 **virtual-clock** latency per op kind, checking each
  window against per-kind :class:`SLOTarget` thresholds, tracking the
  error budget (the ``1 - objective`` fraction of ops allowed over
  threshold) and its **burn rate** (violations consumed vs budget
  granted, per window: burn > 1 means the budget is being spent faster
  than it accrues), and escalating SMO storms by ``smo_storms``'s
  rule, :func:`~repro.core.telemetry.storm_threshold`.
* :class:`ControlTower` — a bus subscriber folding the whole event
  stream (engine windows, instance lifecycle, migration progress, SLO
  windows, alerts) into one live table per source: state, ops,
  throughput, p99, backfill progress, rejections, alerts.  ``repro
  top`` renders it; ``--once --json`` scripts it.

Like every observer in this codebase, the tracker only *reads* the
virtual clock — latencies are the deltas of consecutive per-op clock
readings its window fold was fed (``OpWindow.latencies``) — so
attaching it changes no result and no fingerprint.

Targets may be given explicitly or **auto-calibrated**: with no
targets, the first closed window sets each op kind's threshold to
``CALIBRATION_FACTOR`` × its observed p99 (the calibration window
itself is never judged).  That makes ``repro top`` useful on any
index/workload pair with zero configuration while staying honest —
alerts then mean "latency degraded versus this run's own start".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.events import (
    KIND_ADMISSION_REJECT,
    KIND_ALERT,
    KIND_BACKFILL_CHUNK,
    KIND_CACHE_HIT,
    KIND_CUTOVER,
    KIND_JOB,
    KIND_OP_WINDOW,
    KIND_PHASE,
    KIND_SLO_WINDOW,
    KIND_SMO,
    KIND_STATE,
    KIND_SWEEP_TASK,
    EventBus,
)
from repro.core.report import table
from repro.core.runner import ExecutionObserver, LatencyStats, OpWindow
from repro.core.telemetry import storm_threshold

__all__ = ["Alert", "ControlTower", "SLOTarget", "SLOTracker",
           "cluster_view", "render_cluster_view"]

SEVERITY_WARNING = "warning"
SEVERITY_CRITICAL = "critical"

ALERT_BURN_RATE = "burn_rate"
ALERT_SMO_STORM = "smo_storm"

#: An auto-calibrated threshold is this many times the first window's p99.
CALIBRATION_FACTOR = 4.0
#: A window burning its error budget at least this fast alerts critical.
BURN_CRITICAL = 4.0
#: Consecutive hot windows that escalate an SMO storm to critical.
STORM_ESCALATE = 3


@dataclass(frozen=True)
class SLOTarget:
    """One op kind's latency objective.

    ``objective`` is the fraction of ops that must complete under
    ``threshold_ns`` — e.g. 0.99 grants an error budget of 1% of ops
    per window.
    """

    op_kind: str
    threshold_ns: float
    objective: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.threshold_ns <= 0:
            raise ValueError("threshold_ns must be positive")


@dataclass
class Alert:
    """One fired alert; also published to the bus as an ``alert`` event."""

    kind: str  # ALERT_BURN_RATE | ALERT_SMO_STORM
    severity: str  # SEVERITY_WARNING | SEVERITY_CRITICAL
    source: str
    t_ns: float
    message: str
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.severity}] {self.source}: {self.message}"


class SLOTracker(ExecutionObserver):
    """Windowed SLO evaluation of one run's op stream.

    Attach to a run (``observers=[tracker]`` or via ``repro run
    --events``); for every window of the run (the engine's
    ``window_ops`` operations) it computes per-op-kind latency
    percentiles, judges them against the targets, and raises
    :class:`Alert`\\ s:

    * ``burn_rate`` — a window consumed its error budget faster than
      granted (burn > 1 warns; burn ≥ ``BURN_CRITICAL`` is critical).
    * ``smo_storm`` — the window's SMO rate exceeds
      :func:`~repro.core.telemetry.storm_threshold` of the rates of the
      windows before it (at least three); ``STORM_ESCALATE`` consecutive
      hot windows escalate the storm to critical.

    With a ``bus``, every closed window publishes ``slo_window`` events
    and every alert publishes an ``alert`` event.
    """

    window_latencies = True

    def __init__(
        self,
        targets: Iterable[SLOTarget] = (),
        bus: Optional[EventBus] = None,
    ) -> None:
        self.targets: Dict[str, SLOTarget] = {t.op_kind: t for t in targets}
        self.bus = bus
        #: Targets were inferred from the first window, not configured.
        self.auto_calibrated = not self.targets
        self._calibrated = bool(self.targets)

        self.windows: List[dict] = []
        self.alerts: List[Alert] = []
        self.violations: Dict[str, int] = {}
        self.judged_ops: Dict[str, int] = {}

        self._source = ""
        self._smo_rates: List[float] = []
        self._hot_run = 0

    # -- observer hooks --------------------------------------------------------

    def on_phase(self, phase: str, index, workload) -> None:
        self._source = getattr(index, "name", type(index).__name__)

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

    def on_window(self, window: OpWindow) -> None:
        # ``latencies``: every op's full virtual cost, not the ~1% sample.
        now = window.t_ns
        record = {"t_ns": now, "window_start_ns": window.start_ns,
                  "ops": window.ops, "smos": window.smos,
                  "source": self._source, "ops_kinds": {}}
        calibrating = not self._calibrated
        for kind, samples in sorted(window.latencies.items()):
            stats = LatencyStats.from_samples(samples)
            entry = {"count": stats.count, "p50": stats.p50,
                     "p99": stats.p99, "p999": stats.p999}
            if calibrating:
                self.targets[kind] = SLOTarget(
                    op_kind=kind,
                    threshold_ns=max(stats.p99, 1.0) * CALIBRATION_FACTOR)
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
                    severity = (SEVERITY_CRITICAL if burn >= BURN_CRITICAL
                                else SEVERITY_WARNING)
                    self._alert(
                        ALERT_BURN_RATE, severity, now,
                        f"{kind} burned {burn:.1f}x its error budget "
                        f"({violations}/{len(samples)} ops over "
                        f"{target.threshold_ns:.0f} ns)",
                        op=kind, burn_rate=burn, violations=violations,
                        window_ops=len(samples),
                        threshold_ns=target.threshold_ns)
            record["ops_kinds"][kind] = entry
            if self.bus is not None:
                self.bus.publish(KIND_SLO_WINDOW, source=self._source,
                                 t_ns=now, op=kind, **entry)
        if calibrating:
            self._calibrated = True

        # SMO-storm escalation: the storm rule streamed over the windows
        # closed so far (>= 3 priors before judging, so early windows
        # can't self-trigger).
        rate = window.smos / window.ops
        if len(self._smo_rates) >= 3:
            baseline, threshold = storm_threshold(self._smo_rates)
            if rate > threshold:
                self._hot_run += 1
                if self._hot_run == 1:
                    self._alert(
                        ALERT_SMO_STORM, SEVERITY_WARNING, now,
                        f"SMO storm: {rate:.0%} of ops triggered SMOs "
                        f"(baseline {baseline:.1%})",
                        rate=rate, baseline=baseline, threshold=threshold)
                elif self._hot_run == STORM_ESCALATE:
                    self._alert(
                        ALERT_SMO_STORM, SEVERITY_CRITICAL, now,
                        f"SMO storm sustained {self._hot_run} windows "
                        f"({rate:.0%} of ops)",
                        rate=rate, baseline=baseline,
                        hot_windows=self._hot_run)
            else:
                self._hot_run = 0
        self._smo_rates.append(rate)

        self.windows.append(record)

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


# ---------------------------------------------------------------------------
# Cluster view: many per-shard trackers folded into one summary
# ---------------------------------------------------------------------------

def cluster_view(trackers: Dict[str, "SLOTracker"],
                 op_kind: str = "lookup") -> dict:
    """Aggregate per-shard SLO trackers into one cluster summary.

    ``trackers`` maps shard name to its :class:`SLOTracker` (live or
    already closed).  The view reports, per shard, the latest window's
    ``op_kind`` p99, cumulative error-budget burn, and alert counts —
    plus the cluster's worst shard by p99, which is what a routing tier
    pages on (the cluster is only as healthy as its hottest shard).
    """
    shards: Dict[str, dict] = {}
    worst: Optional[tuple] = None
    total_alerts = 0
    for name in sorted(trackers):
        tracker = trackers[name]
        p99 = None
        for window in reversed(tracker.windows):
            entry = window["ops_kinds"].get(op_kind)
            if entry is not None:
                p99 = entry["p99"]
                break
        severities = [a.severity for a in tracker.alerts]
        worst_severity = (SEVERITY_CRITICAL if SEVERITY_CRITICAL in severities
                          else (severities[0] if severities else ""))
        total_alerts += len(severities)
        shards[name] = {
            "p99_ns": p99,
            "windows": len(tracker.windows),
            "budget_used": tracker.budget_used(op_kind),
            "alerts": len(severities),
            "worst_severity": worst_severity,
        }
        if p99 is not None and (worst is None or p99 > worst[1]):
            worst = (name, p99)
    return {
        "op_kind": op_kind,
        "shards": shards,
        "worst_shard": worst[0] if worst else None,
        "worst_p99_ns": worst[1] if worst else None,
        "total_alerts": total_alerts,
    }


def render_cluster_view(view: dict, title: str = "shard cluster") -> str:
    """ASCII table for a :func:`cluster_view` summary."""
    rows = []
    for name, row in view["shards"].items():
        alerts = (f"{row['alerts']} ({row['worst_severity']})"
                  if row["alerts"] else "-")
        rows.append([
            name,
            row["windows"],
            f"{row['p99_ns']:.0f}" if row["p99_ns"] is not None else "-",
            f"{row['budget_used']:.2f}",
            alerts,
        ])
    out = table(["Shard", "Windows", "p99 ns", "Budget burn", "Alerts"],
                rows, title=title)
    worst = view["worst_shard"]
    if worst is not None:
        out += (f"\nworst shard: {worst} "
                f"(p99 {view['worst_p99_ns']:.0f} ns, "
                f"{view['op_kind']} windows)")
    return out


# ---------------------------------------------------------------------------
# Control tower: the live status surface behind `repro top`
# ---------------------------------------------------------------------------

def _new_row(source: str) -> dict:
    return {
        "source": source, "state": "-", "workload": "", "ops": 0,
        "ops_per_vsec": 0.0, "p99_ns": None, "smos": 0, "rejected": 0,
        "backfill_stage": "", "backfill_done": 0, "backfill_total": 0,
        "cutover_seq": None, "alerts": [], "worst_severity": "",
        "last_t_ns": 0.0, "lifecycle": False,
        "job": "", "job_eta_ns": None, "queue_depth": 0,
    }


class ControlTower:
    """Folds the event stream into one status row per source.

    Feed it live (``bus.subscribe(tower.consume)``) or post-hoc
    (:meth:`from_records` over a saved event log); either way
    :meth:`render` is the ``repro top`` table and :meth:`to_json` the
    scripting surface.
    """

    def __init__(self) -> None:
        self.rows: Dict[str, dict] = {}
        self.sweep = {"tasks": 0, "cache_hits": 0}
        self.consumed = 0

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "ControlTower":
        tower = cls()
        for rec in records:
            tower.consume(rec)
        return tower

    def _row(self, source: str) -> dict:
        row = self.rows.get(source)
        if row is None:
            row = self.rows[source] = _new_row(source)
        return row

    def consume(self, event: dict) -> None:
        kind = event.get("kind")
        source = event.get("source", "")
        self.consumed += 1
        if kind == KIND_SWEEP_TASK:
            self.sweep["tasks"] += 1
            return
        if kind == KIND_CACHE_HIT:
            self.sweep["cache_hits"] += 1
            return
        row = self._row(source)
        row["last_t_ns"] = max(row["last_t_ns"], event.get("t_ns", 0.0))
        if kind == KIND_STATE:
            row["state"] = event.get("to", row["state"])
            row["lifecycle"] = True
        elif kind == KIND_PHASE:
            row["workload"] = event.get("workload", "") or row["workload"]
            # Engine phases stand in for state until real lifecycle
            # events (instance state machine) claim the row.
            if not row["lifecycle"]:
                row["state"] = event.get("phase", row["state"])
        elif kind == KIND_OP_WINDOW:
            row["ops"] += event.get("ops", 0)
            row["ops_per_vsec"] = event.get("ops_per_vsec", 0.0)
        elif kind == KIND_SLO_WINDOW:
            if event.get("op") == "lookup" or row["p99_ns"] is None:
                row["p99_ns"] = event.get("p99")
        elif kind == KIND_SMO:
            row["smos"] += 1
        elif kind == KIND_ADMISSION_REJECT:
            row["rejected"] += 1
        elif kind == KIND_BACKFILL_CHUNK:
            row["backfill_stage"] = event.get("stage", "")
            row["backfill_done"] = event.get("done", 0)
            row["backfill_total"] = event.get("total", 0)
        elif kind == KIND_CUTOVER:
            row["cutover_seq"] = event.get("op_seq")
            row["state"] = "serving"
        elif kind == KIND_JOB:
            status = event.get("status", "")
            row["job"] = f"{event.get('job_kind', '?')} {status}"
            row["job_eta_ns"] = event.get("eta_ns")
            row["queue_depth"] = event.get("queue_depth", row["queue_depth"])
            if status in ("done", "failed", "aborted"):
                row["job_eta_ns"] = None
        elif kind == KIND_ALERT:
            row["alerts"].append(
                f"[{event.get('severity', '?')}] {event.get('message', '')}")
            if (event.get("severity") == SEVERITY_CRITICAL
                    or not row["worst_severity"]):
                row["worst_severity"] = event.get("severity", "")

    # -- output ----------------------------------------------------------------

    @staticmethod
    def _backfill_cell(row: dict) -> str:
        if not row["backfill_total"]:
            return "-"
        frac = row["backfill_done"] / row["backfill_total"]
        return f"{row['backfill_stage']} {frac:.0%}"

    def render(self, title: str = "repro top") -> str:
        rows = []
        for source in sorted(self.rows):
            row = self.rows[source]
            alerts = (f"{len(row['alerts'])} ({row['worst_severity']})"
                      if row["alerts"] else "-")
            rows.append([
                source, row["state"], row["ops"],
                f"{row['ops_per_vsec'] / 1e6:.2f}M" if row["ops_per_vsec"] else "-",
                f"{row['p99_ns']:.0f}" if row["p99_ns"] is not None else "-",
                self._backfill_cell(row), row["job"] or "-",
                row["smos"], row["rejected"],
                alerts,
            ])
        out = table(
            ["Instance", "State", "Ops", "Ops/vs", "p99 ns", "Backfill",
             "Job", "SMOs", "Rej", "Alerts"],
            rows, title=title)
        lines = [out]
        if self.sweep["tasks"] or self.sweep["cache_hits"]:
            lines.append(f"sweep: {self.sweep['tasks']} tasks, "
                         f"{self.sweep['cache_hits']} cache hits")
        alert_lines = []
        for source in sorted(self.rows):
            alert_lines.extend(f"  {a}" for a in self.rows[source]["alerts"])
        if alert_lines:
            lines.append("alerts:")
            lines.extend(alert_lines)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "instances": {s: dict(r) for s, r in sorted(self.rows.items())},
            "sweep": dict(self.sweep),
            "consumed": self.consumed,
        }
