"""Instrumented execution engine: runs a workload on an index, measured.

Throughput and latency are reported on the **virtual cost-model clock**
(see :mod:`repro.core.cost`): Python wall-clock time measures the
interpreter, not the index design.  Wall seconds are still recorded for
sanity.  As in the paper, measurement starts *after* bulk loading, and
latencies are sampled from ~1% of operations.

Measurement is structured as an :class:`ExecutionEngine` applying each
operation with :func:`~repro.core.workloads.apply_op`, in one per-op
body whether the run is recorded or not.  Latency sampling, Table-3
insert statistics and scan accounting are part of that body;
everything else is an :class:`ExecutionObserver` that
downstream users (trace replay, diagnostics, future sharded/async
runners) attach without touching the loop::

    class OpCounter(ExecutionObserver):
        def __init__(self):
            self.n = 0
        def on_op(self, event, latency):
            self.n += 1

    counter = OpCounter()
    result = ExecutionEngine(observers=[counter]).run(index, workload)

:func:`execute` remains the one-call entry point.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterator, List,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.core.cost import CostMeter
from repro.core.instance import LOADING, IndexInstance
from repro.core.workloads import DELETE, INSERT, LOOKUP, UPDATE, Operation, Workload, apply_op
from repro.indexes.base import MemoryBreakdown, OpRecord, OrderedIndex

if TYPE_CHECKING:  # avoid the runtime cycle with repro.core.telemetry
    from repro.core.telemetry import Telemetry

#: Op kinds whose latency lands in ``write_latency``.
_WRITE_OPS = (INSERT, UPDATE, DELETE)

#: Lookups in a row the engine executes one by one before it reads the
#: rest of the run ahead in blocks: a mixed stream pays a counter per
#: op, never a buffer.
LOOKUP_STREAK = 32
#: Lookups per ``_lookup_batch`` call and how far the engine reads ahead
#: of the op it is executing; a run's first block is batched only when
#: at least half full.
LOOKUP_BLOCK = 2048
#: Ops an observed run records before it hands them over, at most.
RECORD_BLOCK = 1024


@dataclass
class LatencyStats:
    """Latency distribution summary (virtual nanoseconds)."""

    count: int = 0
    mean: float = 0.0
    p50: float = 0.0
    p99: float = 0.0
    p999: float = 0.0
    variance: float = 0.0
    max: float = 0.0

    @staticmethod
    def from_samples(samples: List[float]) -> "LatencyStats":
        if not samples:
            return LatencyStats()
        s = sorted(samples)
        n = len(s)

        def pct(p: float) -> float:
            # Nearest-rank percentile: rank = ceil(p * n), 1-based.
            rank = int(p * n)
            if rank < p * n:
                rank += 1
            return s[max(rank, 1) - 1]

        # One pass for both moments.  Sums are shifted by the minimum
        # (s[0]) so the squared accumulator stays small relative to the
        # data: var = E[(x-m)^2] - (E[x-m])^2 is exact in reals and
        # numerically safe after the shift (all terms >= 0).
        base = s[0]
        s1 = 0.0
        s2 = 0.0
        for x in s:
            d = x - base
            s1 += d
            s2 += d * d
        m1 = s1 / n
        mean = base + m1
        var = max(s2 / n - m1 * m1, 0.0)
        return LatencyStats(
            count=n, mean=mean, p50=pct(0.50), p99=pct(0.99),
            p999=pct(0.999), variance=var, max=s[-1],
        )


@dataclass
class InsertStats:
    """Table-3 per-insert statistics."""

    inserts: int = 0
    nodes_traversed: float = 0.0
    keys_shifted: float = 0.0
    nodes_created: float = 0.0
    smo_count: int = 0

    def record(self, rec) -> None:
        self.inserts += 1
        self.nodes_traversed += rec.nodes_traversed
        self.keys_shifted += rec.keys_shifted
        self.nodes_created += rec.nodes_created
        self.smo_count += 1 if rec.smo else 0

    def averages(self) -> Dict[str, float]:
        n = max(self.inserts, 1)
        return {
            "nodes_traversed": self.nodes_traversed / n,
            "keys_shifted": self.keys_shifted / n,
            "nodes_created": self.nodes_created / n,
            "smo_rate": self.smo_count / n,
        }


@dataclass
class RunResult:
    """Everything one benchmark run produces."""

    index_name: str
    workload_name: str
    n_ops: int
    virtual_ns: float
    wall_seconds: float
    #: Virtual time spent per phase across the measured ops.
    phase_ns: Dict[str, float]
    lookup_latency: LatencyStats
    write_latency: LatencyStats
    insert_stats: InsertStats
    memory: MemoryBreakdown
    #: Keys returned per scan op (scan workloads only).
    scanned_entries: int = 0

    @property
    def throughput_mops(self) -> float:
        """Million operations per virtual second."""
        if self.virtual_ns <= 0:
            return 0.0
        return self.n_ops / (self.virtual_ns / 1e9) / 1e6

    @property
    def scan_keys_per_second(self) -> float:
        """Keys accessed per virtual second (Figure 13's metric)."""
        if self.virtual_ns <= 0:
            return 0.0
        return self.scanned_entries / (self.virtual_ns / 1e9)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable summary (CLI ``--json``, external tooling)."""
        return {
            "index": self.index_name,
            "workload": self.workload_name,
            "n_ops": self.n_ops,
            "throughput_mops": self.throughput_mops,
            "virtual_ns": self.virtual_ns,
            "wall_seconds": self.wall_seconds,
            "phase_ns": dict(self.phase_ns),
            "lookup_latency": {
                "p50": self.lookup_latency.p50,
                "p99": self.lookup_latency.p99,
                "p999": self.lookup_latency.p999,
                "mean": self.lookup_latency.mean,
                "count": self.lookup_latency.count,
            },
            "write_latency": {
                "p50": self.write_latency.p50,
                "p99": self.write_latency.p99,
                "p999": self.write_latency.p999,
                "mean": self.write_latency.mean,
                "count": self.write_latency.count,
            },
            "insert_stats": self.insert_stats.averages()
            if self.insert_stats.inserts
            else None,
            "memory_bytes": {
                "inner": self.memory.inner,
                "leaf": self.memory.leaf,
                "metadata": self.memory.metadata,
                "total": self.memory.total,
            },
            "scanned_entries": self.scanned_entries,
        }


# ---------------------------------------------------------------------------
# Observer protocol
# ---------------------------------------------------------------------------

@dataclass
class OpEvent:
    """One executed operation, as seen by observers.

    ``record`` is the index's ``last_op`` — but only when *this*
    operation wrote it.  Indexes refresh ``last_op`` on
    lookup/insert/delete yet leave it stale on update/scan; the engine
    detects staleness (indexes always assign a fresh ``OpRecord``) and
    hands observers ``None`` instead, so structural work can never be
    misattributed to the wrong operation.
    """

    seq: int
    op: Operation
    record: Optional[OpRecord]
    #: Operation outcome: insert/update/delete success, lookup hit.
    ok: bool
    #: Entries returned (scan ops only).
    scanned: int = 0
    #: The operation's raw return value: the looked-up payload (or
    #: ``None``), the scanned ``(key, value)`` list, ``None`` for
    #: writes.  This is what lets a differential oracle compare an
    #: index against a reference model without re-running the op.
    result: object = None
    #: The index meter's ``total_time()`` right after the operation,
    #: where the engine has it: on the ops it sampled, and on every
    #: ``on_smo`` event of a run with block observers attached (the
    #: op's block clock); else ``None``.
    t_ns: Optional[float] = None


class ExecutionObserver:
    """Pluggable measurement hook; every method is an optional no-op.

    Subclass and override what you need; attach via
    ``ExecutionEngine(observers=[...])`` or ``engine.add_observer``.
    Only hooks an observer really implements are called (an inherited
    no-op costs nothing); duck-typed objects work too.  ``on_op`` is for
    observers that must see the index *at* each op (oracles,
    validators); recorders take ``on_block`` or ``on_window``, which
    cost the engine no clock read per op.
    """

    #: Declare ``True`` when ``on_window`` reads ``OpWindow.latencies``:
    #: the fold cutting this observer's windows then keeps every op's.
    window_latencies = False

    def on_phase(self, phase: str, index: OrderedIndex, workload: Workload) -> None:
        """Engine lifecycle: ``"bulk_load"``, ``"measure"``, ``"done"``."""

    def on_op(self, event: OpEvent, latency: Optional[float]) -> None:
        """Called once per operation.  ``latency`` is the op's virtual-ns
        cost when it was sampled, else ``None``."""

    def on_block(self, block: "OpBlock") -> None:
        """Called with each :class:`OpBlock` of consecutive operations,
        in order, every op of the run in exactly one: each op's
        outcome, record and clock, recorded once by the engine."""

    def on_smo(self, event: OpEvent) -> None:
        """Called after an insert/delete whose op record flagged a
        structural modification — after the ``on_block`` that ends
        with it."""

    def on_window(self, window: "OpWindow") -> None:
        """Called with every ``self.window_ops`` (a required attribute)
        operations added up, and with the shorter last window right
        before this observer's ``on_phase("done")``.  Observers of one
        size share one :class:`WindowFold`."""


class OpBlock:
    """Consecutive operations of one observed run, as the engine
    recorded them, with every op's clock and charges.

    ``rows[i]`` is op ``seq + i`` as ``(op, ok, scanned, record,
    latency)``: ``record`` as ``OpEvent.record``, ``latency`` the
    sampled cost or ``None``.  ``clocks[i]`` is the meter's
    ``total_time()`` right after that op, ``start_ns`` the reading
    before the first.  The engine ends a block at a window close of any
    of its folds, at an op that ran an SMO, after ``RECORD_BLOCK`` ops,
    and at the end of the stream — also when the run raises: the ops
    recorded before the raise go out as a last block.
    """

    __slots__ = ("seq", "start_ns", "rows", "clocks", "kinds", "_keys",
                 "_tables")

    def __init__(self, seq: int, start_ns: float, rows: List[tuple],
                 clocks: List[float], keys: Optional[List[tuple]],
                 tables: Any) -> None:
        self.seq = seq
        self.start_ns = start_ns
        self.rows = rows
        self.clocks = clocks
        #: Each op's kind, ``rows[i][0].op``.
        self.kinds = [row[0].op for row in rows]
        #: The meter's counter keys in table order and an ``(n + 1) x
        #: len(keys)`` array of their values, the table before the
        #: block's first op on top; or, on a meter whose table is not
        #: append-only, ``None`` and the ``n + 1`` tables themselves.
        self._keys = keys
        self._tables = tables

    def __len__(self) -> int:
        return len(self.rows)

    def unit_sums(self) -> Dict[Tuple[str, str, str], float]:
        """The units this block's ops charged, summed per ``(op kind,
        phase, cost kind)``, keyed in first-touch order: by the op that
        first charged a cell, then by the counter's place in the table
        (exact sums: units are integers, ``docs/cost_model.md``)."""
        kinds = self.kinds
        if self._keys is None:
            out: Dict[Tuple[str, str, str], float] = {}
            tables = self._tables
            for kind, seen, table in zip(kinds, tables, tables[1:]):
                for key, v in table.items():
                    d = v - seen.get(key, 0.0)
                    if d:
                        cell = (kind, *key)
                        out[cell] = out.get(cell, 0.0) + d
            return out
        units = np.diff(self._tables, axis=0)
        n = len(kinds)
        touched_at = np.where(units != 0, np.arange(n)[:, None], n)
        codes = {kind: code for code, kind in enumerate(dict.fromkeys(kinds))}
        ids = np.fromiter(map(codes.__getitem__, kinds), np.intp, n)
        found = []
        for kind, code in codes.items():
            mine = ids == code
            first = touched_at[mine].min(axis=0).tolist()
            sums = units[mine].sum(axis=0).tolist()
            found += [(row, col, kind, sums[col])
                      for col, row in enumerate(first) if row < n]
        found.sort()
        keys = self._keys
        return {(kind, *keys[col]): total for _, col, kind, total in found}


@dataclass
class OpWindow:
    """Consecutive operations of one stream, added up.  An SMO counts
    *after* the op that ran it: the SMO of a window's last op belongs
    to the next window — to none, if the stream ends there."""

    #: The virtual clock when the window opened and when it closed.
    start_ns: float
    t_ns: float = 0.0
    ops: int = 0
    #: Ops whose outcome was true (write applied, lookup hit).
    ok: int = 0
    smos: int = 0
    #: Ops per key the producer counted them under (the op kind).
    counts: Dict[object, int] = field(default_factory=dict)
    #: The latencies the engine sampled, in op order.
    sampled: List[float] = field(default_factory=list)
    #: Every op's latency by key, in op order (a ``timed`` fold only).
    latencies: Dict[object, List[float]] = field(
        default_factory=lambda: defaultdict(list))


class WindowFold:
    """Counts ops into :class:`OpWindow`\\ s of ``window_ops`` and hands
    each one, closed, to every sink.

    The one place a stream is cut into windows: the engine feeds one
    per distinct ``window_ops`` among its ``on_window`` observers by
    :meth:`add_block` and ``on_smo``; the shard router and the migration
    runner feed folds of their own op by op (:meth:`add`).  ``timed``
    says every op arrives with a clock reading, whose deltas are the
    latencies.  A close is stamped with the reading its op carried,
    else with one read of the meter the fold was opened on — once,
    however many sinks.
    """

    def __init__(self, window_ops: int, timed: bool = False) -> None:
        self.window_ops = window_ops
        self.timed = timed
        self.sinks: List[Callable[[OpWindow], None]] = []
        self._meter = None
        self._last_ns = 0.0
        self.window = OpWindow(0.0)

    def open(self, meter, *sinks: Callable[[OpWindow], None]) -> None:
        """Start the first window on ``meter``'s clock, as it reads now."""
        self._meter = meter
        self.sinks.extend(sinks)
        self._last_ns = meter.total_time()
        self.window = OpWindow(self._last_ns)

    def add(self, key, ok: bool, t_ns: Optional[float] = None,
            sampled: Optional[float] = None) -> None:
        """Count one op under ``key``; close the window if that fills it."""
        window = self.window
        counts = window.counts
        counts[key] = counts.get(key, 0) + 1
        window.ops += 1
        if ok:
            window.ok += 1
        if sampled is not None:
            window.sampled.append(sampled)
        if self.timed:
            window.latencies[key].append(t_ns - self._last_ns)
            self._last_ns = t_ns
        if window.ops >= self.window_ops:
            self.flush(t_ns)

    def add_block(self, block: OpBlock) -> None:
        """:meth:`add` for every op of ``block``, keyed by op kind: all
        but the last in bulk, the last by :meth:`add`.  The block must
        not run past this fold's next close (the engine ends its blocks
        at every fold's), so only its last op can close the window."""
        n = len(block) - 1
        head, kinds = block.rows[:n], block.kinds
        window = self.window
        counts = window.counts
        for key, k in Counter(kinds[:n]).items():
            counts[key] = counts.get(key, 0) + k
        window.ops += n
        window.ok += sum([row[1] for row in head])
        window.sampled += [row[4] for row in head if row[4] is not None]
        if self.timed:
            last = self._last_ns
            latencies = window.latencies
            for key, t_ns in zip(kinds[:n], block.clocks):
                latencies[key].append(t_ns - last)
                last = t_ns
            self._last_ns = last
        _, ok, _, _, sampled = block.rows[n]
        self.add(kinds[n], ok, block.clocks[n], sampled)

    def on_smo(self, event: Optional[OpEvent] = None) -> None:
        self.window.smos += 1

    def cut(self, now: Optional[float] = None) -> Optional[OpWindow]:
        """Close the open window at ``now`` (the meter's clock when
        ``None``) and start the next there; ``None`` if it held no op."""
        window = self.window
        if not window.ops:
            return None
        window.t_ns = self._meter.total_time() if now is None else now
        self.window = OpWindow(window.t_ns)
        return window

    def flush(self, now: Optional[float] = None) -> None:
        """:meth:`cut`, and hand what it closed to every sink."""
        window = self.cut(now)
        if window is not None:
            for sink in self.sinks:
                sink(window)


@dataclass
class _Tally:
    """What one run's operations add up to beside the meter."""

    #: Sampled latencies, virtual ns.
    lookup_samples: List[float] = field(default_factory=list)
    write_samples: List[float] = field(default_factory=list)
    #: Over *successful* inserts: a failed one (duplicate key) did no
    #: structural work and would dilute ``keys_shifted`` / ``smo_rate``.
    insert_stats: InsertStats = field(default_factory=InsertStats)
    #: Entries returned by scan ops.
    scanned_entries: int = 0


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def _implemented(observers: Sequence[object], hook: str) -> List[Callable]:
    """The bound ``hook`` methods of the observers that implement it:
    anything but :class:`ExecutionObserver`'s inherited no-op, so
    duck-typed observers count and a missing hook is simply skipped."""
    noop = getattr(ExecutionObserver, hook)
    bound = (getattr(obs, hook, None) for obs in observers)
    return [m for m in bound
            if m is not None and getattr(m, "__func__", None) is not noop]


class ExecutionEngine:
    """Drives a workload through an index, one ``apply_op`` per operation.

    ``sample_every`` controls latency sampling (~1% of ops by default,
    matching the paper).  Sampling snapshots the cost meter around the
    op, so sampled and unsampled ops execute identically.  Observers
    passed at construction (or via :meth:`add_observer`) persist across
    runs; the stock tallies are created fresh per run.

    A long run of lookups nobody watches op by op is resolved in
    blocks instead (:meth:`_lookup_run`): with no attached observer
    implementing ``on_op``, ``on_block`` or ``on_window``, lookups past
    the first ``LOOKUP_STREAK`` of a run go through the index's
    vectorized ``_lookup_batch``, charged as totals between the sampled
    ops — same meter table, latency samples, op counts and ``last_op``
    as the loop.  With ``on_block`` or ``on_window`` observers attached
    the same per-op body (:meth:`_stepper`) records every op.  Which path
    runs follows from who is attached and how long the run already is;
    there is no option for it (``docs/performance.md``, "Lookup runs").
    """

    def __init__(
        self,
        sample_every: int = 101,
        observers: Sequence[ExecutionObserver] = (),
        telemetry: Optional["Telemetry"] = None,
        bus=None,
    ) -> None:
        self.sample_every = sample_every
        self.observers: List[ExecutionObserver] = list(observers)
        if telemetry is not None:
            self.observers.extend(telemetry.observers())
        # ``bus`` is an EventBus (repro.core.events), duck-typed to
        # keep this module import-cycle-free like ``telemetry``; other
        # window sizes attach ``bus.engine_observer(window_ops=N)``.
        if bus is not None:
            self.observers.append(bus.engine_observer())

    def add_observer(self, observer: ExecutionObserver) -> ExecutionObserver:
        """Attach ``observer`` to every later run.  The hook lists are
        resolved at :meth:`run` entry, so an observer added while a run
        is in flight joins the next run, not the current one."""
        self.observers.append(observer)
        return observer

    # -- the measured loop ------------------------------------------------------

    def _window_folds(self, meter) -> Dict[int, WindowFold]:
        """``id(observer) -> fold`` for the attached ``on_window``
        observers: one fold, opened on ``meter``, per distinct
        ``window_ops``, timed iff one of its consumers declares
        ``window_latencies``."""
        by_size: Dict[int, WindowFold] = {}
        fold_of: Dict[int, WindowFold] = {}
        for sink in _implemented(self.observers, "on_window"):
            obs = sink.__self__
            fold = by_size.get(obs.window_ops)
            if fold is None:
                fold = by_size[obs.window_ops] = WindowFold(obs.window_ops)
                fold.open(meter)
            fold.timed |= getattr(obs, "window_latencies", False)
            fold.sinks.append(sink)
            fold_of[id(obs)] = fold
        return fold_of

    def _stepper(
        self,
        index: OrderedIndex,
        instance: IndexInstance,
        tally: _Tally,
        on_op: List[Callable],
        on_smo: List[Callable],
        on_block: List[Callable],
        window_sizes: Sequence[int],
        start_ns: float,
    ) -> Tuple[Callable[[Operation, int], None], Callable[[], None]]:
        """The per-op body of every run, ``step(op, seq)``, for ops taken
        in order, and ``flush()``, which hands over what is recorded and
        not yet handed over (the stream's end, or a raise).

        ``step`` applies the op, reads the clock around it when it is
        sampled, and feeds ``tally`` and the instance's counters in line.
        An :class:`OpEvent` is built only for someone to see — every op
        when ``on_op`` hooks are attached, else only an op that ran an
        SMO, for the ``on_smo`` hooks.  With ``on_block`` hooks the run is
        recorded: each op adds a row and the meter's counter values as a
        tuple, and no clock read.  At a block's end — the next window
        close of a fold of size in ``window_sizes``, an op that ran an
        SMO, ``RECORD_BLOCK`` ops, a ``flush`` — one numpy pass turns the
        tuples into every op's clock: ``cumsum`` along a row adds
        ``weight x units`` left to right in table order from the first
        counter, the very sum ``CostMeter.total_time()`` makes.  A meter
        whose ``total_time`` is not that sum (a cluster of parts) has it
        read and its table copied per op instead.  The block goes to the
        ``on_block`` hooks; the SMO, stamped with its op's clock, to the
        ``on_smo`` hooks after them.  Unrecorded, an SMO carries the
        sampled clock or ``None``, and ``flush`` has nothing to do.
        """
        every = self.sample_every
        meter = index.meter
        total_time = meter.total_time
        recording = bool(on_block)
        positional = type(meter).total_time is CostMeter.total_time
        table = meter._counts if positional else None
        values = table.values if positional else None
        snapshot = meter.snapshot
        lookup_samples, write_samples = tally.lookup_samples, tally.write_samples
        stats = tally.insert_stats
        counts = instance.op_counts
        rows: List[tuple] = []
        snaps: List[Any] = []
        add_row, add_snap = rows.append, snaps.append
        #: The table before the block's first op, and that op's seq.
        last = ((tuple(values()) if positional else snapshot())
                if recording else None)
        first = 0

        def next_cut(seq: int) -> int:
            """The seq of the op the block after ``seq`` ends at, at most."""
            return min([seq + RECORD_BLOCK]
                       + [(seq + 1) // w * w + w - 1 for w in window_sizes])

        def close() -> float:
            """Hand the recorded ops over as one block; its last clock."""
            nonlocal start_ns, last, first, cut
            n = len(rows)
            if positional:
                width = len(snaps[-1])
                keys = list(islice(table, width))
                tables = [last, *snaps]
                if len(last) < width:  # counters created in this block
                    pad = (0.0,) * width
                    tables = [t + pad[len(t):] for t in tables]
                tables = np.fromiter(chain.from_iterable(tables), float,
                                     (n + 1) * width).reshape(n + 1, width)
                weights = meter.weights
                w = np.array([weights.get(kind, 0.0) for _, kind in keys])
                clocks = (np.cumsum(tables[1:] * w, axis=1)[:, -1].tolist()
                          if width else [])
                # An op on a still-empty table reads the integer 0.
                empty = next((i for i, t in enumerate(snaps) if t), n)
                clocks[:empty] = [0] * empty
                last = snaps[-1]
            else:
                keys = None
                clocks = [clock for clock, _ in snaps]
                tables = [last, *(t for _, t in snaps)]
                last = tables[-1]
            block = OpBlock(first, start_ns, rows.copy(), clocks, keys, tables)
            rows.clear()
            snaps.clear()
            start_ns = clocks[-1]
            first += n
            cut = next_cut(first - 1)
            for hook in on_block:
                hook(block)
            return start_ns

        def step(op: Operation, seq: int) -> None:
            kind = op.op
            sampled = seq % every == 0
            if sampled:
                before = total_time()
            prev_record = index.last_op
            ok, scanned, result = apply_op(index, op)
            now = latency = None
            if sampled:
                now = total_time()
                latency = now - before
                if kind == LOOKUP:
                    lookup_samples.append(latency)
                elif kind in _WRITE_OPS:
                    write_samples.append(latency)
            # Indexes assign a *new* OpRecord whenever they record an op,
            # so identity against the pre-op object detects staleness
            # (update/scan paths that never wrote last_op).
            record = index.last_op
            if record is prev_record:
                record = None
            elif ok and kind == INSERT:
                stats.record(record)
            if scanned:
                tally.scanned_entries += scanned
            if recording:
                add_row((op, ok, scanned, record, latency))
                add_snap(tuple(values()) if positional
                         else (total_time(), snapshot()))
            if on_op:
                # Positional: keyword construction of the dataclass is
                # measurable engine self time.
                event = OpEvent(seq, op, record, ok, scanned, result, now)
                for hook in on_op:
                    hook(event, latency)
            counts[kind] = counts.get(kind, 0) + 1
            if (record is not None and record.smo
                    and (kind == INSERT or kind == DELETE)):
                event = OpEvent(seq, op, record, ok, scanned, result,
                                close() if recording else now)
                for hook in on_smo:
                    hook(event)
            elif recording and seq == cut:
                close()

        def flush() -> None:
            if rows:
                close()

        cut = next_cut(-1)
        return step, flush

    def _lookup_run(
        self,
        index: OrderedIndex,
        ops: Iterator[Operation],
        seq: int,
        step: Callable[[Operation, int], None],
        lookup_samples: List[float],
        instance: IndexInstance,
    ) -> int:
        """The rest of a lookup run already ``LOOKUP_STREAK`` ops long,
        plus the op that ends it; returns the next ``seq``.

        Pulls at most ``LOOKUP_BLOCK`` lookups ahead, resolves them with
        one ``_lookup_batch`` and charges the block's log as range
        totals cut at the sampled ops, each of those alone between two
        clock reads: the meter table is the loop's at every clock read,
        so the samples are too.  The samples and the instance's op
        counter, all that ``step`` feeds for a lookup nobody watches,
        are fed in bulk.  The run's first block must be at least half
        full: a write before it drops the batch tables of an index that
        keeps any (the segmented family), and only that many lookups in
        hand are sure to repay rebuilding them.  A block that is not
        batched, or that the index declines (``None``), takes ``step``
        per op.
        """
        every = self.sample_every
        meter = index.meter
        charge = meter.charge_phased
        batch = None
        while True:
            block: List[Operation] = []
            ender = None
            for op in ops:
                if op.op != LOOKUP:
                    ender = op
                    break
                block.append(op)
                if len(block) == LOOKUP_BLOCK:
                    break
            n = len(block)
            # Half a block or more, or what follows a resolved block.
            batch = (index._lookup_batch([op.key for op in block])
                     if 2 * n >= LOOKUP_BLOCK or batch is not None else None)
            if batch is None:
                for op in block:
                    step(op, seq)
                    seq += 1
            else:
                sampled = range(-seq % every, n, every)
                starts = sorted({0, *sampled, *(p + 1 for p in sampled)} - {n})
                for start, charges in zip(
                        starts, batch.log.range_charges(starts)):
                    timed = (seq + start) % every == 0
                    if timed:
                        before = meter.total_time()
                    for site in charges:
                        charge(*site)
                    if timed:
                        lookup_samples.append(meter.total_time() - before)
                index.last_op = batch.make_record(n - 1)
                counts = instance.op_counts
                counts[LOOKUP] = counts.get(LOOKUP, 0) + n
                seq += n
            if ender is not None:
                step(ender, seq)
                return seq + 1
            if n < LOOKUP_BLOCK:
                return seq

    def run(self, target, workload: Workload) -> RunResult:
        """Bulk load, run the operation stream, return measurements.

        ``target`` is an :class:`~repro.core.instance.IndexInstance` or
        a bare index (wrapped on entry).  Every run now routes through
        the instance lifecycle layer: the instance rides along as an
        observer feeding its telemetry status, and its state machine
        gates the bulk load (only a LOADING instance gets one).  A bare
        index takes exactly the path previous releases took — the
        wrapper observes and never charges, so results and fingerprints
        are bit-identical.
        """
        instance = IndexInstance.wrap(target)
        index: OrderedIndex = instance.index
        tally = _Tally()
        observers = [*self.observers, instance]

        for obs in observers:
            obs.on_phase("bulk_load", index, workload)
        if instance.state == LOADING:
            instance.bulk_load(workload.bulk_items)
        elif workload.bulk_items:
            raise RuntimeError(
                f"instance {instance.name!r} is {instance.state}; only a "
                "LOADING instance can bulk load a workload's items")
        index.meter.reset()
        for obs in observers:
            obs.on_phase("measure", index, workload)

        meter = index.meter
        start_ns = meter.total_time()
        fold_of = self._window_folds(meter)
        folds = list(dict.fromkeys(fold_of.values()))
        on_op = _implemented(self.observers, "on_op")
        # Folds are fed like any other ``on_block`` / ``on_smo`` observer.
        on_smo = _implemented([*self.observers, *folds, instance], "on_smo")
        on_block = [*_implemented(self.observers, "on_block"),
                    *(fold.add_block for fold in folds)]
        step, flush = self._stepper(
            index, instance, tally, on_op, on_smo, on_block,
            [fold.window_ops for fold in folds], start_ns)
        wall0 = time.perf_counter()
        # The run is recorded, someone watches op by op, or the target is
        # a wrapper with work of its own per op (a multiplexer pumps, a
        # sharded tier routes).
        if on_block or on_op or index.is_adapter:
            try:
                for i, op in enumerate(workload.operations):
                    step(op, i)
            finally:
                flush()
        else:
            # Count the lookups in a row, and hand a run that passes the
            # streak to ``_lookup_run``.
            ops = iter(workload.operations)
            seq = streak = 0
            for op in ops:
                step(op, seq)
                seq += 1
                if op.op != LOOKUP:
                    streak = 0
                    continue
                streak += 1
                if streak == LOOKUP_STREAK:
                    seq = self._lookup_run(index, ops, seq, step,
                                           tally.lookup_samples, instance)
                    streak = 0
        wall = time.perf_counter() - wall0

        # Each consumer gets its fold's last, shorter window right before
        # its own "done", so what it publishes stays in observer order.
        tails = {fold: fold.cut() for fold in folds}
        for obs in observers:
            tail = tails.get(fold_of.get(id(obs)))
            if tail is not None:
                obs.on_window(tail)
            obs.on_phase("done", index, workload)
        return RunResult(
            index_name=index.name,
            workload_name=workload.name,
            n_ops=workload.n_ops,
            virtual_ns=meter.total_time() - start_ns,
            wall_seconds=wall,
            phase_ns=meter.time_by_phase(),
            lookup_latency=LatencyStats.from_samples(tally.lookup_samples),
            write_latency=LatencyStats.from_samples(tally.write_samples),
            insert_stats=tally.insert_stats,
            memory=index.memory_usage(),
            scanned_entries=tally.scanned_entries,
        )


def execute(target, workload: Workload, **engine_options) -> RunResult:
    """Bulk load, run the operation stream, return measurements.

    One-call wrapper over :class:`ExecutionEngine`: ``engine_options``
    are forwarded verbatim to the engine constructor (``sample_every``,
    ``observers``, ``telemetry``, ``bus``), so there is
    exactly one place engine defaults live.  ``target`` is an
    index or an :class:`~repro.core.instance.IndexInstance`; with no
    options the :class:`RunResult` is byte-identical to previous
    releases (the fingerprint parity test in tests/test_instance.py
    pins this).
    """
    return ExecutionEngine(**engine_options).run(target, workload)

