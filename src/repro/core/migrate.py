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
4. on a fully verified destination the driver cuts the multiplexer over
   atomically between two ops (``DRAINING -> RETIRED`` for the source, the
   destination starts ``SERVING``); on divergence the migration aborts,
   the source rolls back to ``SERVING`` untouched, and the applied
   client ops are replayed against a fresh destination and ddmin-shrunk
   with :func:`~repro.core.opstream.shrink_stream` into a minimal repro
   stream.

:class:`MigrationDriver` is the one owner of "drive a multiplexer to
cutover or rollback"; :func:`run_migration`, the shard router and the
index server's rebuild jobs are its three callers.

Admission is checked per op against the serving instance; with the
multiplexed design no state ever refuses a read, and the report's
``rejected_ops`` / ``cutover_stall_ops`` fields prove the "zero
downtime" claim as measured facts rather than assertions.
"""

from __future__ import annotations

import re
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

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
from repro.core.runner import OpEvent, WindowFold
from repro.core.workloads import LOOKUP, SCAN, Operation, Workload, apply_op
from repro.indexes.multiplex import (
    BACKFILL,
    DONE,
    FAILED,
    READY,
    VERIFY,
    MultiplexIndex,
)

__all__ = ["CUT_OVER", "ROLLED_BACK", "MigrationDriver", "MigrationReport",
           "resolve_index_name", "run_migration"]

#: Client-stream mismatches against the oracle kept per migration report.
ORACLE_LIMIT = 50


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


#: How a driven migration ended (:attr:`MigrationDriver.outcome`).
CUT_OVER = "cut_over"
ROLLED_BACK = "rolled_back"


class MigrationDriver:
    """Drives one :class:`MultiplexIndex` from attach to outcome.

    :func:`run_migration`, the shard router and the server's rebuild
    jobs all migrate through this class; they differ only in *when*
    they call :meth:`step` and in what their two hooks do.  The driver

    1. meters each step: what it put on the secondary's meter is added
       to :attr:`overhead_ns`, never to client-visible latency;
    2. runs the O(n) ``build_secondary`` outside ``lock`` (it touches
       only migration-private state), every other step inside it;
    3. is the one caller of ``mux.cutover()``: it cuts a READY
       secondary over as a step of its own, or in :meth:`settle` behind
       a client op, treating a cutover whose final dirty re-check
       diverged like any other failure;
    4. calls ``mux.abort()`` exactly once, on FAILED or :meth:`abort`;
    5. fires ``on_cutover()`` or ``on_rollback(why)`` exactly once,
       under the lock; :attr:`outcome` is then set and calls are no-ops.

    ``lock`` is a zero-argument callable returning a context manager.
    """

    def __init__(self, mux: MultiplexIndex, on_cutover: Callable[[], None],
                 on_rollback: Callable[[str], None],
                 lock: Callable[[], Any] = nullcontext) -> None:
        self.mux = mux
        self.on_cutover = on_cutover
        self.on_rollback = on_rollback
        self.lock = lock
        self.overhead_ns = 0.0
        #: Build and pump steps taken.
        self.chunks = 0
        #: ``None`` in flight, then ``CUT_OVER`` or ``ROLLED_BACK``.
        self.outcome: Optional[str] = None

    def metered(self, work: Callable[..., Any], *args: Any) -> Any:
        """``work(*args)``, with what it put on the secondary's meter
        charged to :attr:`overhead_ns`."""
        secondary = self.mux.secondary
        if secondary is None:
            return work(*args)
        before = secondary.meter.snapshot()
        out = work(*args)
        self.overhead_ns += secondary.meter.diff(before).total_time()
        return out

    def step(self) -> int:
        """One step — the build, a pump chunk, or the cutover — then
        the outcome it reached; returns the keys it moved."""
        mux = self.mux
        if self.outcome is not None:
            return 0
        if mux.build_pending:
            # Only the driver pumps, so nothing else moves the phase or
            # touches the staging list and the secondary; client writes
            # meanwhile land in the delta log, under the caller's lock.
            self.metered(mux.build_secondary)
            self.chunks += 1
            return 0
        moved = 0
        with self.lock():
            if mux.phase in (BACKFILL, VERIFY):
                moved = self.metered(mux.pump)
                self.chunks += 1
                self._conclude()
            else:
                self._settle()
        return moved

    def advance(self, budget: float = float("inf")) -> None:
        """Step until ``budget`` keys have moved or the outcome is
        reached.  A chunk costs at least one key and the build none; a
        secondary that is past verification is settled on any budget."""
        while self.outcome is None and (
                budget > 0 or self.mux.phase not in (BACKFILL, VERIFY)):
            free = self.mux.build_pending
            moved = self.step()
            if not free:
                budget -= max(moved, 1)

    def settle(self) -> None:
        """Settle the phase the multiplexer reached by itself (it pumps
        per client op when ``pump_per_op > 0``): cut a READY one over,
        then fire the outcome it ends in."""
        with self.lock():
            self._settle()

    def abort(self, why: str) -> None:
        """Roll back now, unless the outcome is already reached."""
        with self.lock():
            if self.outcome is None:
                self._roll_back(why)

    def _settle(self) -> None:
        if self.outcome is None and self.mux.phase == READY:
            self.metered(self.mux.cutover)  # re-checks late churn; may fail
        self._conclude()

    def _conclude(self) -> None:
        if self.outcome is not None:
            return
        if self.mux.phase == FAILED:
            self._roll_back(self.mux.divergences[0].describe())
        elif self.mux.phase == DONE:
            self.outcome = CUT_OVER
            self.on_cutover()

    def _roll_back(self, why: str) -> None:
        self.mux.abort()
        self.outcome = ROLLED_BACK
        self.on_rollback(why)


def run_migration(
    src: str,
    dst: str,
    workload: Workload,
    chunk: int = 128,
    pump_per_op: int = 1,
    src_factory: Optional[Callable[[], Any]] = None,
    dst_factory: Optional[Callable[[], Any]] = None,
    shrink: bool = True,
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
    instances), plus one ``cutover`` event and the engine's
    ``op_window`` events: every applied op in exactly one window of up
    to ``bus_window`` ops, under the instance that served it.  All of
    it reads the meters without charging — the report is identical with
    or without a bus.
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

    source = IndexInstance(make_src(), name=f"{src}@0")
    target = IndexInstance(make_dst(), name=f"{dst}@1")
    if bus is not None:
        source.attach_bus(bus)
        target.attach_bus(bus)
    source.bulk_load(workload.bulk_items)

    mux = MultiplexIndex(source.index, target.index, chunk=chunk,
                         pump_per_op=pump_per_op)
    target.watch(mux)
    source.advance(MIGRATING, f"multiplexing to {target.name}")

    differ = DifferentialObserver(limit=ORACLE_LIMIT)
    differ.on_phase("measure", None, workload)

    serving = source
    applied: List[Operation] = []
    #: Ops applied when the outcome was reached: in flight, ``seq`` of
    #: the op it followed; after the stream, the stream's length.
    at = 0

    def cut_over() -> None:
        nonlocal serving
        report.completed = True
        report.cutover_seq = at
        serving = target
        if bus is not None:
            bus.publish("cutover", source=target.name,
                        t_ns=mux.meter.total_time(), op_seq=at,
                        src=source.name, dst=target.name)
        target.advance(SERVING, f"cutover at op #{at}")
        source.advance(DRAINING, "replaced by target")
        source.advance(RETIRED, "drained")

    def roll_back(why: str) -> None:
        # Divergence: the shadow is dropped and the source rolls back
        # to plain service; the stream keeps driving through it to
        # prove rollback left it serving.
        report.aborted = True
        source.advance(SERVING, "migration aborted: divergence")
        target.advance(RETIRED, "diverged from primary")

    driver = MigrationDriver(mux, on_cutover=cut_over, on_rollback=roll_back)
    fold = fold_meter = None
    if bus is not None:
        emitter = bus.engine_observer(window_ops=bus_window)
        fold = WindowFold(bus_window)
        fold.sinks.append(emitter.on_window)
    for seq, op in enumerate(workload.operations):
        try:
            serving.admit(op.op)
        except AdmissionError:
            report.rejected_ops += 1
            continue
        client_meter = mux.meter
        if fold is not None and fold_meter is not client_meter:
            # Windows run on the *client* meter, which swaps identity at
            # cutover: close there, so no duration spans two clocks and
            # every op counts under the instance that served it.
            fold.flush()
            fold_meter = client_meter
            emitter.source = serving.name
            fold.open(client_meter)
        client0 = client_meter.total_time()
        # The op's dual write and the chunks the multiplexer pumps
        # behind it are overhead; its primary work is client time.
        ok, scanned, result = driver.metered(apply_op, mux, op)
        client1 = client_meter.total_time()
        report.client_ns += client1 - client0
        if op.op == LOOKUP:
            report.reads += 1
        elif op.op == SCAN:
            report.scans += 1
        else:
            report.writes += 1
        if report.aborted:
            report.post_abort_ops += 1
        else:
            applied.append(op)
        if fold is not None:
            fold.add(op.op, ok, client1)
        differ.on_op(OpEvent(seq, op, None, ok, scanned, result, client1), None)
        at = seq
        driver.settle()

    if fold is not None:
        fold.flush()
    # Traffic ended before the pump finished: drain the remaining
    # backfill/verify chunks (still overhead-metered) and cut over.
    at = len(applied)
    driver.advance()
    report.overhead_ns = driver.overhead_ns

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
            ops=applied,
            name=f"migrate-{src}-to-{dst}-divergence")
        report.repro = shrink_stream(make_dst, stream)

    report.wall_seconds = time.perf_counter() - wall0
    return report
