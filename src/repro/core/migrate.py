"""Zero-downtime live migration between registry indexes.

The control plane over :class:`~repro.indexes.multiplex.MultiplexIndex`
(the data plane) and :class:`~repro.core.instance.IndexInstance` (the
lifecycle layer).  :func:`run_migration` answers the paper's question
*online*: having decided a different index now suits the workload, swap
to it under live traffic —

1. build source and destination instances from the registry; bulk load
   the source (``LOADING -> SERVING``); check both sides'
   ``supports_migration`` capability,
2. put the source in ``MIGRATING`` and route the client stream through
   a multiplexer: reads served by the source at unchanged cost, writes
   duplicated, the destination backfilled and then value-verified in
   chunks interleaved with traffic (work charged to the destination's
   meter — migration overhead is a measured, reported quantity),
3. every client op is also fed to a PR-5
   :class:`~repro.core.opstream.DifferentialObserver`, so the stream's
   *client-visible* semantics are oracle-checked across the cutover
   boundary itself,
4. on a fully verified destination the multiplexer cuts over atomically
   between two ops (``DRAINING -> RETIRED`` for the source, the
   destination starts ``SERVING``); on divergence the migration aborts,
   the source rolls back to ``SERVING`` untouched, and the applied
   client ops are replayed against a fresh destination and ddmin-shrunk
   with :func:`~repro.core.opstream.shrink_stream` into a minimal repro
   stream.

Admission is checked per op against the serving instance; with the
multiplexed design no state ever refuses a read, and the report's
``rejected_ops`` / ``cutover_stall_ops`` fields prove the "zero
downtime" claim as measured facts rather than assertions.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.instance import (
    DRAINING,
    MIGRATING,
    RETIRED,
    SERVING,
    AdmissionError,
    IndexInstance,
)
from repro.core.opstream import (
    DifferentialObserver,
    Mismatch,
    OpStream,
    shrink_stream,
)
from repro.core.registry import REGISTRY, IndexSpec
from repro.core.runner import OpEvent
from repro.core.workloads import (
    DELETE,
    INSERT,
    LOOKUP,
    SCAN,
    UPDATE,
    Operation,
    Workload,
)
from repro.indexes.multiplex import DONE, FAILED, MultiplexIndex

__all__ = ["MigrationReport", "apply_op", "resolve_index_name",
           "run_migration"]


def resolve_index_name(name: str) -> str:
    """Registry name for ``name``, tolerating loose spellings.

    ``btree`` -> ``B+tree``, ``alex`` -> ``ALEX``, ``fitingtree`` ->
    ``FITing-Tree``: comparison is case-insensitive over alphanumerics
    only, so the CLI accepts what people actually type.
    """
    if name in REGISTRY:
        return name

    def fold(s: str) -> str:
        return re.sub(r"[^a-z0-9]", "", s.lower())

    folded = {fold(spec.name): spec.name for spec in REGISTRY}
    try:
        return folded[fold(name)]
    except KeyError:
        raise KeyError(
            f"unknown index {name!r}; registered: "
            f"{sorted(s.name for s in REGISTRY)}") from None


@dataclass
class MigrationReport:
    """Everything one migration run produced, measured."""

    src: str
    dst: str
    n_ops: int
    #: Cutover happened: the destination is serving.
    completed: bool = False
    #: Divergence detected; the source rolled back to SERVING.
    aborted: bool = False
    reads: int = 0
    writes: int = 0
    scans: int = 0
    #: Ops refused by the serving instance's admission policy — the
    #: zero-downtime claim is this staying 0.
    rejected_ops: int = 0
    #: Ops deferred around the cutover swap — 0 by construction.
    cutover_stall_ops: int = 0
    #: Client-op sequence number after which the destination served.
    cutover_seq: Optional[int] = None
    #: Ops served by the source after a divergence abort (rollback proof).
    post_abort_ops: int = 0
    backfill_keys: int = 0
    backfill_chunks: int = 0
    verify_keys: int = 0
    reverify_keys: int = 0
    dual_writes: int = 0
    #: Fraction of destination keys value-compared before cutover
    #: (1.0 on every completed migration, by construction).
    verified_fraction: float = 0.0
    divergences: List[str] = field(default_factory=list)
    #: Client-stream mismatches against the differential-oracle model
    #: (must be empty: migration may never change visible semantics).
    oracle_mismatches: List[Mismatch] = field(default_factory=list)
    #: Virtual ns of client-visible work (the serving index's meter).
    client_ns: float = 0.0
    #: Virtual ns of migration work (backfill/verify/dual writes),
    #: charged to the destination's meter while it was the shadow.
    overhead_ns: float = 0.0
    wall_seconds: float = 0.0
    src_state: str = ""
    dst_state: str = ""
    #: ddmin-shrunk repro for the divergence, if one replayed on a
    #: fresh destination (lying-secondary bugs do).
    repro: Optional[OpStream] = None
    repro_path: str = ""

    @property
    def divergence_count(self) -> int:
        return len(self.divergences)

    @property
    def zero_downtime(self) -> bool:
        return self.rejected_ops == 0 and self.cutover_stall_ops == 0

    @property
    def backfill_keys_per_vsec(self) -> float:
        """Backfill throughput on the overhead meter's virtual clock."""
        if self.overhead_ns <= 0:
            return 0.0
        return self.backfill_keys / (self.overhead_ns / 1e9)

    @property
    def ok(self) -> bool:
        return (self.completed and self.zero_downtime
                and not self.divergences and not self.oracle_mismatches)

    def to_dict(self) -> Dict[str, object]:
        return {
            "src": self.src,
            "dst": self.dst,
            "n_ops": self.n_ops,
            "completed": self.completed,
            "aborted": self.aborted,
            "ok": self.ok,
            "zero_downtime": self.zero_downtime,
            "reads": self.reads,
            "writes": self.writes,
            "scans": self.scans,
            "rejected_ops": self.rejected_ops,
            "cutover_stall_ops": self.cutover_stall_ops,
            "cutover_seq": self.cutover_seq,
            "post_abort_ops": self.post_abort_ops,
            "backfill_keys": self.backfill_keys,
            "backfill_chunks": self.backfill_chunks,
            "backfill_keys_per_vsec": self.backfill_keys_per_vsec,
            "verify_keys": self.verify_keys,
            "reverify_keys": self.reverify_keys,
            "verified_fraction": self.verified_fraction,
            "dual_writes": self.dual_writes,
            "divergence_count": self.divergence_count,
            "divergences": list(self.divergences),
            "oracle_mismatches": [str(m) for m in self.oracle_mismatches],
            "client_ns": self.client_ns,
            "overhead_ns": self.overhead_ns,
            "wall_seconds": self.wall_seconds,
            "src_state": self.src_state,
            "dst_state": self.dst_state,
            "repro_ops": len(self.repro.ops) if self.repro else None,
            "repro_path": self.repro_path or None,
        }

    def describe(self) -> str:
        if self.completed:
            head = (f"{self.src} -> {self.dst}: migrated after op "
                    f"#{self.cutover_seq} of {self.n_ops}")
        elif self.aborted:
            head = (f"{self.src} -> {self.dst}: ABORTED "
                    f"({self.divergence_count} divergences), "
                    f"source rolled back to serving")
        else:
            head = f"{self.src} -> {self.dst}: incomplete"
        lines = [
            head,
            f"  backfill: {self.backfill_keys} keys in "
            f"{self.backfill_chunks} chunks "
            f"({self.backfill_keys_per_vsec / 1e6:.2f} Mkeys/vsec)",
            f"  verified: {self.verify_keys} swept + {self.reverify_keys} "
            f"re-checked ({self.verified_fraction:.0%} of keys), "
            f"{self.dual_writes} dual writes",
            f"  downtime: {self.rejected_ops} rejected, "
            f"{self.cutover_stall_ops} stalled",
            f"  overhead: {self.overhead_ns / 1e6:.2f} virtual ms "
            f"(client {self.client_ns / 1e6:.2f} ms)",
        ]
        for d in self.divergences[:5]:
            lines.append(f"  divergence: {d}")
        for m in self.oracle_mismatches[:5]:
            lines.append(f"  oracle: {m}")
        if self.repro is not None:
            lines.append(
                f"  repro: {len(self.repro.ops)} ops / "
                f"{len(self.repro.bulk_keys)} bulk keys"
                + (f" -> {self.repro_path}" if self.repro_path else ""))
        return "\n".join(lines)


def _check_spec(spec: IndexSpec, role: str) -> None:
    if not spec.supports_migration:
        raise ValueError(
            f"{spec.name} cannot be a migration {role}: needs inserts "
            "(shadow writes) and range scans (backfill snapshot cursor)")


def apply_op(index: Any, op: Operation) -> Tuple[bool, int, object]:
    """Engine-handler semantics for one op against any index-like.

    ``index`` is anything honoring the ``OrderedIndex`` op surface — a
    bare index, a :class:`MultiplexIndex`, a sharded tier.  Returns
    ``(ok, scanned, result)`` exactly as the execution engine's
    dispatch table would, so journal replays and migrations compare
    bit-for-bit against engine runs.  Shared by the migration control
    plane and the :mod:`repro.core.server` foreground path.
    """
    kind = op.op
    if kind == LOOKUP:
        value = index.lookup(op.key)
        return value is not None, 0, value
    if kind == INSERT:
        return bool(index.insert(op.key, op.value)), 0, None
    if kind == UPDATE:
        return bool(index.update(op.key, op.value)), 0, None
    if kind == DELETE:
        return bool(index.delete(op.key)), 0, None
    if kind == SCAN:
        rows = index.range_scan(op.key, op.count)
        return True, len(rows), rows
    raise ValueError(f"unknown op {kind!r}")


#: Backward-compatible alias (pre-PR-10 private name).
_apply = apply_op


def run_migration(
    src: str,
    dst: str,
    workload: Workload,
    chunk: int = 128,
    pump_per_op: int = 1,
    src_factory: Optional[Callable[[], Any]] = None,
    dst_factory: Optional[Callable[[], Any]] = None,
    shrink: bool = True,
    oracle_limit: int = 50,
    seed: int = 0,
    bus=None,
    bus_window: int = 256,
) -> MigrationReport:
    """Migrate ``src`` -> ``dst`` under ``workload``'s live stream.

    ``src``/``dst`` are registry names (loose spellings accepted).
    Factories can be overridden for tests (small-node configs, fault
    injection).  Returns a :class:`MigrationReport`; never raises for
    divergence — a failed migration *is* a result (abort + rollback +
    shrunk repro), matching the fuzzer's findings-not-errors stance.

    ``bus`` (an :class:`~repro.core.events.EventBus`, duck-typed)
    receives the migration's full event stream: instance state changes,
    backfill/verify chunks and admission rejections (via the attached
    instances), plus ``op_window`` throughput windows every
    ``bus_window`` applied ops and one ``cutover`` event.  Both
    instances get a live ``status_probe`` into the multiplexer, so
    ``IndexInstance.status()`` reports the in-flight backfill cursor
    and dirty-set size.  All of it reads the meters without charging —
    the report is identical with or without a bus.
    """
    src = resolve_index_name(src)
    dst = resolve_index_name(dst)
    src_spec, dst_spec = REGISTRY.get(src), REGISTRY.get(dst)
    _check_spec(src_spec, "source")
    _check_spec(dst_spec, "destination")
    make_src = src_factory or src_spec.factory
    make_dst = dst_factory or dst_spec.factory

    report = MigrationReport(src=src, dst=dst, n_ops=workload.n_ops)
    wall0 = time.perf_counter()

    source = IndexInstance(make_src(), name=f"{src}@0", spec=src_spec)
    target = IndexInstance(make_dst(), name=f"{dst}@1", spec=dst_spec)
    if bus is not None:
        source.attach_bus(bus)
        target.attach_bus(bus)
    source.bulk_load(workload.bulk_items)

    mux = MultiplexIndex(source.index, target.index, chunk=chunk,
                         pump_per_op=pump_per_op, auto_cutover=True)
    mux.progress_sink = lambda stage, done, total: target.note_backfill(
        done, total, stage=stage)
    # Live status: either instance's status() now snapshots the pump.
    source.status_probe = mux.status
    target.status_probe = mux.status
    source.advance(MIGRATING, f"multiplexing to {target.name}")

    differ = DifferentialObserver(limit=oracle_limit)
    differ.on_phase("measure", None, workload)

    serving = source
    applied: List[Operation] = []
    abort_seq: Optional[int] = None
    win_meter = None
    win_start = 0.0
    win_ops = 0
    for seq, op in enumerate(workload.operations):
        try:
            serving.admit(op.op)
        except AdmissionError:
            report.rejected_ops += 1
            continue
        client_meter = mux.meter
        shadow = mux.secondary
        client0 = client_meter.total_time()
        shadow0 = shadow.meter.total_time() if shadow is not None else 0.0
        ok, scanned, result = apply_op(mux, op)
        client1 = client_meter.total_time()
        report.client_ns += client1 - client0
        if shadow is not None:
            report.overhead_ns += shadow.meter.total_time() - shadow0
        if op.op == LOOKUP:
            report.reads += 1
        elif op.op == SCAN:
            report.scans += 1
        else:
            report.writes += 1
        applied.append(op)
        if bus is not None:
            # Throughput windows on the *client* meter.  The meter
            # swaps identity at cutover; restart the window there so a
            # duration never spans two clocks.
            if win_meter is not client_meter:
                win_meter = client_meter
                win_start = client0
                win_ops = 0
            win_ops += 1
            if win_ops >= bus_window:
                dur = client1 - win_start
                bus.publish(
                    "op_window", source=serving.name, t_ns=client1,
                    window_start_ns=win_start, ops=win_ops,
                    ops_per_vsec=(win_ops / (dur / 1e9)) if dur > 0 else 0.0)
                win_start = client1
                win_ops = 0
        event = OpEvent(seq, op, None, ok, scanned, result, client1)
        differ.on_op(event, None)
        if abort_seq is not None:
            report.post_abort_ops += 1
            continue
        if mux.phase == FAILED:
            # Divergence: drop the shadow, roll the source back to
            # plain service, and keep driving the stream through it to
            # prove rollback left it serving.
            abort_seq = seq
            mux.abort()
            source.advance(SERVING, "migration aborted: divergence")
            target.advance(RETIRED, "diverged from primary")
        elif mux.phase == DONE and report.cutover_seq is None:
            report.cutover_seq = seq
            serving = target
            if bus is not None:
                bus.publish("cutover", source=target.name,
                            t_ns=mux.meter.total_time(), op_seq=seq,
                            src=source.name, dst=target.name)
            target.advance(SERVING, f"cutover at op #{seq}")
            source.advance(DRAINING, "replaced by target")
            source.advance(RETIRED, "drained")

    # Traffic ended before the pump finished: drain the remaining
    # backfill/verify chunks (still overhead-metered) and cut over.
    while abort_seq is None and mux.phase not in (DONE, FAILED):
        shadow = mux.secondary
        shadow0 = shadow.meter.total_time() if shadow is not None else 0.0
        mux.pump()
        if shadow is not None:
            report.overhead_ns += shadow.meter.total_time() - shadow0
    if abort_seq is None:
        if mux.phase == DONE:
            if report.cutover_seq is None:
                report.cutover_seq = len(applied)
                if bus is not None:
                    bus.publish("cutover", source=target.name,
                                t_ns=mux.meter.total_time(),
                                op_seq=len(applied), src=source.name,
                                dst=target.name)
                target.advance(SERVING, "cutover after stream end")
                source.advance(DRAINING, "replaced by target")
                source.advance(RETIRED, "drained")
        elif mux.phase == FAILED:
            abort_seq = len(applied)
            mux.abort()
            source.advance(SERVING, "migration aborted: divergence")
            target.advance(RETIRED, "diverged from primary")

    report.completed = mux.phase == DONE
    report.aborted = abort_seq is not None
    report.backfill_keys = mux.backfill_keys
    report.backfill_chunks = mux.backfill_chunks
    report.verify_keys = mux.verify_keys
    report.reverify_keys = mux.reverify_keys
    report.dual_writes = mux.dual_writes
    report.cutover_stall_ops = mux.cutover_stall_ops
    report.divergences = [d.describe() for d in mux.divergences]
    report.oracle_mismatches = list(differ.mismatches)
    total = max(len(mux.primary), 1)
    report.verified_fraction = (1.0 if report.completed
                                else min(1.0, mux.verify_keys / total))
    report.src_state = source.state
    report.dst_state = target.state

    if report.aborted and shrink:
        # Replay the applied prefix on a *fresh* destination alone: a
        # buggy destination reproduces and ddmin shrinks it; an
        # environmental divergence leaves the stream unshrunk (honest).
        stream = OpStream(
            index_name=dst, seed=seed,
            bulk_keys=[k for k, _ in workload.bulk_items],
            ops=applied[:abort_seq + 1],
            name=f"migrate-{src}-to-{dst}-divergence")
        report.repro = shrink_stream(make_dst, stream)

    report.wall_seconds = time.perf_counter() - wall0
    return report
