"""Telemetry over the execution engine: traces, time-series, profiles.

The paper's most useful evidence is *time-resolved* — the Figure-3
per-phase insert breakdown, the SMO storms behind insert tail latency,
XIndex's background-merge stalls — but a :class:`~repro.core.runner.RunResult`
only reports end-of-run aggregates.  This module turns the engine's
observer hooks plus the deterministic virtual clock
(:class:`~repro.core.cost.CostMeter`) into three measurement layers:

* :class:`TraceRecorder` — per-operation spans and SMO instant-events on
  the virtual clock, exportable as Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``) or as a JSON-lines event log through
  the versioned-results machinery (:mod:`repro.core.results`).
* :class:`MetricsCollector` — windowed time-series of rolling
  throughput, rolling SMO rate (with storm detection) and periodic
  ``memory_usage()`` samples.
* :class:`CostProfiler` — virtual time attributed to
  (op kind x cost phase x cost kind) from the engine's op blocks,
  rendered as a flame-table; its per-phase totals reconcile exactly with
  ``CostMeter.time_by_phase()``.

A :class:`Telemetry` bundle groups any subset of the three so callers
can say ``execute(idx, wl, telemetry=Telemetry.full())``.  Everything is
deterministic: two runs of the same workload produce identical traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from statistics import median_high
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.cost import ALL_PHASES
from repro.core.report import table
from repro.core.runner import ExecutionObserver, OpBlock, OpWindow

#: Version stamped into trace/metric telemetry records (independent of
#: the RunResult schema; bump on incompatible event-layout changes).
TELEMETRY_SCHEMA_VERSION = 1

#: Event kinds in the JSONL event log.
EVENT_SPAN = "span"
EVENT_INSTANT = "instant"
EVENT_PHASE = "phase"
EVENT_KINDS = (EVENT_SPAN, EVENT_INSTANT, EVENT_PHASE)

#: Metric names emitted by :class:`MetricsCollector` windows.
METRIC_THROUGHPUT = "throughput_mops"
METRIC_SMO_RATE = "smo_rate"
METRIC_MEMORY = "memory_bytes"
METRIC_NAMES = (METRIC_THROUGHPUT, METRIC_SMO_RATE, METRIC_MEMORY)


# ---------------------------------------------------------------------------
# Trace recording
# ---------------------------------------------------------------------------

class TraceRecorder(ExecutionObserver):
    """Records per-operation spans and SMO instants on the virtual clock.

    Timestamps are the index meter's cumulative virtual nanoseconds at
    the moment each event ends; a span covers ``[ts_ns, ts_ns + dur_ns)``
    where ``dur_ns`` is the operation's full virtual cost (every op is
    timed, not just the engine's ~1% latency samples).

    ``events`` is a list of plain dicts ready for
    :func:`repro.core.results.save_jsonl`; :meth:`to_chrome` converts
    them to the Chrome trace-event format for Perfetto.  The recorder
    keeps the columns of the engine's blocks as they come (never an op's
    ``OpRecord``) and builds their span and SMO instant dicts when
    ``events`` is read.
    """

    def __init__(self, max_events: int = 1_000_000) -> None:
        self.dropped = 0
        self.max_events = max_events
        self.index_name = ""
        self.workload_name = ""
        self._events: List[dict] = []
        #: Recorded, in order, and not built yet: event dicts, and
        #: ``(seq, start_ns, ops, ok, clocks, scanned, keys_shifted,
        #: nodes_created, smos)`` of a block's spans and SMO instants
        #: (``OpBlock``'s columns, cut to the budget); and how many
        #: events they hold.
        self._pending: List[object] = []
        self._unbuilt = 0

    # -- observer hooks -----------------------------------------------------

    def on_phase(self, phase, index, workload) -> None:
        self.index_name = index.name
        self.workload_name = workload.name
        self._emit({
            "kind": EVENT_PHASE, "name": phase,
            "ts_ns": index.meter.total_time(),
        })

    def on_block(self, block: OpBlock) -> None:
        # In stream order each SMO's instant follows its op's span; the
        # budget keeps the first ``room`` of them.
        room = self.max_events - len(self._events) - self._unbuilt
        n, smos = len(block), block.smos
        for j, i in enumerate(smos):
            if i + 1 + j >= room:  # the spans before it fill the room
                n, smos = min(n, max(room - j, 0)), smos[:j]
                break
        else:
            n = min(n, max(room - len(smos), 0))
        self.dropped += len(block) + len(block.smos) - n - len(smos)
        if n:
            self._unbuilt += n + len(smos)
            self._pending.append((block.seq, block.start_ns,
                                  block.ops[:n], block.ok[:n],
                                  block.clocks[:n], block.scanned,
                                  block.keys_shifted, block.nodes_created,
                                  smos))

    def _emit(self, rec: dict) -> None:
        if len(self._events) + self._unbuilt >= self.max_events:
            self.dropped += 1
            return
        self._unbuilt += 1
        self._pending.append(rec)

    @property
    def events(self) -> List[dict]:
        """Every recorded event, in order: the recorder's own list, so
        clearing it frees the ``max_events`` budget (it cannot be
        assigned)."""
        out = self._events
        for part in self._pending:
            if isinstance(part, dict):
                out.append(part)
                continue
            (seq, start, ops, oks, clocks, scanned, shifted, created,
             smos) = part
            smos = set(smos)
            for i, (op, ok, now) in enumerate(zip(ops, oks, clocks)):
                rec = {
                    "kind": EVENT_SPAN,
                    "name": op.op,
                    "ts_ns": start,
                    "dur_ns": now - start,
                    "seq": seq + i,
                    "key": op.key,
                    "ok": ok,
                }
                if i in scanned:
                    rec["scanned"] = scanned[i]
                if i in shifted:
                    rec["keys_shifted"] = shifted[i]
                    rec["nodes_created"] = created[i]
                out.append(rec)
                if i in smos:
                    out.append({
                        "kind": EVENT_INSTANT,
                        "name": "smo",
                        "ts_ns": now,
                        "seq": seq + i,
                        "key": op.key,
                        "keys_shifted": shifted[i],
                        "nodes_created": created[i],
                    })
                start = now
        self._pending = []
        self._unbuilt = 0
        return out

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


def _us(ns: float) -> float:
    """Chrome trace timestamps are microseconds."""
    return ns / 1000.0


def events_to_chrome(events: Iterable[dict], title: str,
                     dropped: int = 0) -> dict:
    """Convert JSONL telemetry events to the Chrome trace-event format.

    Single-run events all land on pid 1 / tid 1; use
    :func:`chrome_trace_from_spans` for multi-thread lanes.
    """
    out: List[dict] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
         "args": {"name": title}},
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
         "args": {"name": "virtual-clock"}},
    ]
    for e in events:
        kind = e.get("kind")
        if kind == EVENT_SPAN:
            args = {k: e[k] for k in
                    ("seq", "key", "ok", "scanned", "keys_shifted",
                     "nodes_created") if k in e}
            out.append({
                "ph": "X", "name": e["name"], "cat": "op", "pid": 1,
                "tid": 1, "ts": _us(e["ts_ns"]), "dur": _us(e["dur_ns"]),
                "args": args,
            })
        elif kind == EVENT_INSTANT:
            args = {k: e[k] for k in
                    ("seq", "key", "keys_shifted", "nodes_created") if k in e}
            out.append({
                "ph": "i", "name": e["name"], "cat": "smo", "pid": 1,
                "tid": 1, "ts": _us(e["ts_ns"]), "s": "t", "args": args,
            })
        elif kind == EVENT_PHASE:
            out.append({
                "ph": "i", "name": f"phase:{e['name']}", "cat": "phase",
                "pid": 1, "tid": 1, "ts": _us(e["ts_ns"]), "s": "p",
                "args": {},
            })
    return {
        "traceEvents": out,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "virtual-ns",
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "dropped_events": dropped,
        },
    }


def chrome_trace_from_spans(
    spans: Sequence[Tuple[int, float, float, str]],
    title: str,
) -> dict:
    """Per-thread lanes from simulator spans ``(tid, start_ns, end_ns, op)``.

    Feed :meth:`repro.concurrency.simcore.MulticoreSimulator.replay` a
    ``span_sink`` list and pass it here to see lock waits and thread
    skew as Perfetto lanes.
    """
    tids = sorted({tid for tid, _, _, _ in spans})
    out: List[dict] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": tids[0] if tids else 0,
         "args": {"name": title}},
    ]
    for tid in tids:
        out.append({"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                    "args": {"name": f"vthread-{tid}"}})
    for tid, start, end, op in spans:
        out.append({
            "ph": "X", "name": op, "cat": "op", "pid": 1, "tid": tid,
            "ts": _us(start), "dur": _us(end - start), "args": {},
        })
    return {
        "traceEvents": out,
        "displayTimeUnit": "ns",
        "otherData": {"clock": "virtual-ns",
                      "schema_version": TELEMETRY_SCHEMA_VERSION},
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

#: A window is *hot* when its SMO rate exceeds both ``STORM_MIN_RATE``
#: and ``STORM_FACTOR`` x the baseline.
STORM_FACTOR = 3.0
STORM_MIN_RATE = 0.05


def storm_threshold(rates: Iterable[float]) -> Tuple[float, float]:
    """``(baseline, threshold)`` of the SMO-storm rule over window SMO
    rates: the baseline is their *median*, which, unlike the mean, stays
    calm even when storms dominate the total SMO count."""
    baseline = median_high(rates)
    return baseline, max(STORM_MIN_RATE, STORM_FACTOR * baseline)


@dataclass
class SmoStorm:
    """A burst of structural modifications (consecutive hot windows)."""

    start_ns: float
    end_ns: float
    rate: float  # SMOs per op across the storm's windows
    ops: int = 0


class MetricsCollector(ExecutionObserver):
    """Windowed time-series over a run.

    For every window of the run (the engine's ``window_ops``
    operations) the collector emits one sample per metric at the
    virtual timestamp the window closed: rolling throughput (Mops on
    the virtual clock), rolling SMO rate (SMOs per op) and the index's
    analytic ``memory_usage()`` total.
    ``series`` holds the samples as dicts ready for ``save_jsonl``.

    **Thread-safety: none — single-engine-thread only.**  ``series``
    is unlocked state, exactly like the base
    :class:`~repro.core.cost.CostMeter` (see its docstring); a collector
    observes one engine loop.  The multi-threaded serving tier does not
    attach one: :class:`~repro.core.server.IndexServer` keeps each
    instance's meter and its own per-instance counters under the
    instance's lock instead (``tests/test_server.py`` hammers that path
    from two threads).
    """

    def __init__(self) -> None:
        self.series: List[dict] = []
        self._index = None

    # -- observer hooks -----------------------------------------------------

    def on_phase(self, phase, index, workload) -> None:
        self._index = index

    def on_window(self, window: OpWindow) -> None:
        now, start = window.t_ns, window.start_ns
        dur = now - start
        mops = (window.ops / dur) * 1e3 if dur > 0 else 0.0
        mem = self._index.memory_usage().total
        for metric, value in (
            (METRIC_THROUGHPUT, mops),
            (METRIC_SMO_RATE, window.smos / window.ops),
            (METRIC_MEMORY, mem),
        ):
            self.series.append({
                "kind": "metric", "metric": metric, "t_ns": now,
                "window_start_ns": start, "value": value,
                "window_ops": window.ops,
            })

    # -- analysis -----------------------------------------------------------

    def samples(self, metric: str) -> List[dict]:
        return [s for s in self.series if s["metric"] == metric]

    def smo_storms(self) -> List[SmoStorm]:
        """Windows whose SMO rate spikes above the run's baseline
        (:func:`storm_threshold` over all of them); consecutive hot
        windows merge into one storm.  These are the bursts behind the
        paper's insert tail-latency observations (Figure 10).
        """
        samples = self.samples(METRIC_SMO_RATE)
        if not samples:
            return []
        _, threshold = storm_threshold(s["value"] for s in samples)
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


# ---------------------------------------------------------------------------
# Cost-attribution profiling
# ---------------------------------------------------------------------------

class CostProfiler(ExecutionObserver):
    """Attributes virtual time to (op kind x cost phase x cost kind).

    Every block of the engine's ops adds the units its ops charged into
    the cells of their op kinds (:attr:`~repro.core.runner.OpBlock.cell_sums`);
    a block that touches a cell the profile lacks creates it first, in
    the order its ops touched them
    (:meth:`~repro.core.runner.OpBlock.first_touch`).  Because every
    charge the meter sees lands in exactly one cell, the profile's
    per-phase totals reconcile with ``CostMeter.time_by_phase()`` to
    float precision.
    """

    def __init__(self) -> None:
        #: (op_kind, phase, cost_kind) -> units
        self.cells: Dict[Tuple[str, str, str], float] = {}
        self.weights: Dict[str, float] = {}

    def on_phase(self, phase, index, workload) -> None:
        self.weights = dict(index.meter.weights)

    def on_block(self, block: OpBlock) -> None:
        cells = self.cells
        sums = block.cell_sums
        if not cells.keys() >= sums.keys():
            for cell in block.first_touch(sums.keys() - cells.keys()):
                cells[cell] = 0.0
        for cell, units in sums.items():
            cells[cell] += units

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


# ---------------------------------------------------------------------------
# Bundle
# ---------------------------------------------------------------------------

@dataclass
class Telemetry:
    """Any subset of the three telemetry layers, attachable in one arg."""

    trace: Optional[TraceRecorder] = None
    metrics: Optional[MetricsCollector] = None
    profiler: Optional[CostProfiler] = None

    @classmethod
    def full(cls, max_events: int = 1_000_000) -> "Telemetry":
        return cls(trace=TraceRecorder(max_events=max_events),
                   metrics=MetricsCollector(),
                   profiler=CostProfiler())

    def observers(self) -> List[ExecutionObserver]:
        return [o for o in (self.trace, self.metrics, self.profiler)
                if o is not None]


# ---------------------------------------------------------------------------
# Schema validation (CI gates on these)
# ---------------------------------------------------------------------------

def validate_chrome_trace(obj: dict) -> int:
    """Validate a Chrome trace-event JSON object; returns the event count.

    Checks the subset of the format Perfetto needs: a ``traceEvents``
    list whose entries carry ``ph``/``name``, complete events ("X") with
    numeric ``ts``/``dur``, instants ("i") with a scope.  Raises
    ``ValueError`` on the first violation.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("traceEvents"), list):
        raise ValueError("trace must be an object with a traceEvents list")
    n = 0
    for i, e in enumerate(obj["traceEvents"]):
        if not isinstance(e, dict) or "ph" not in e or "name" not in e:
            raise ValueError(f"traceEvents[{i}]: missing ph/name")
        ph = e["ph"]
        if ph == "X":
            if not isinstance(e.get("ts"), (int, float)) or \
               not isinstance(e.get("dur"), (int, float)):
                raise ValueError(f"traceEvents[{i}]: X event needs numeric ts/dur")
            if e["dur"] < 0:
                raise ValueError(f"traceEvents[{i}]: negative duration")
        elif ph == "i":
            if not isinstance(e.get("ts"), (int, float)) or "s" not in e:
                raise ValueError(f"traceEvents[{i}]: i event needs ts and scope")
        elif ph != "M":
            raise ValueError(f"traceEvents[{i}]: unknown phase {ph!r}")
        n += 1
    return n


def validate_event_records(records: Iterable[dict]) -> int:
    """Validate JSONL trace-event records (post ``load_jsonl``)."""
    n = 0
    for i, r in enumerate(records):
        kind = r.get("kind")
        if kind not in EVENT_KINDS:
            raise ValueError(f"record {i}: unknown event kind {kind!r}")
        if not isinstance(r.get("ts_ns"), (int, float)):
            raise ValueError(f"record {i}: missing numeric ts_ns")
        if kind == EVENT_SPAN and not isinstance(r.get("dur_ns"), (int, float)):
            raise ValueError(f"record {i}: span without numeric dur_ns")
        n += 1
    return n


def validate_metric_records(records: Iterable[dict]) -> int:
    """Validate JSONL metric samples (post ``load_jsonl``)."""
    n = 0
    for i, r in enumerate(records):
        if r.get("kind") != "metric":
            raise ValueError(f"record {i}: not a metric record")
        if r.get("metric") not in METRIC_NAMES:
            raise ValueError(f"record {i}: unknown metric {r.get('metric')!r}")
        if not isinstance(r.get("t_ns"), (int, float)) or \
           not isinstance(r.get("value"), (int, float)):
            raise ValueError(f"record {i}: missing numeric t_ns/value")
        n += 1
    return n
