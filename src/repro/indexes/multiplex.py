"""Live-migration multiplexer: two indexes behind one ``OrderedIndex``.

A :class:`MultiplexIndex` is the data-plane half of zero-downtime index
migration (the control plane lives in :mod:`repro.core.migrate`).  It
presents the full ``OrderedIndex`` contract — including the
``lookup_many``/``insert_many``/``scan_many`` batch paths — while:

* serving every **read** from the *primary* (the index being replaced),
  so client-visible lookup latency never changes,
* **backfilling** the (empty) secondary by *stage -> build -> catch-up*:
  each client op pumps up to ``pump_per_op`` steps.  A staging step
  scans one chunk from a snapshot cursor that walks the primary in key
  order via ``range_scan`` and appends the rows to a private list; once
  the cursor is exhausted one ``secondary.bulk_load(staged)`` builds the
  secondary the way the index was designed to be built (sorted
  key-by-key inserts are the adversarial pattern for gapped/learned
  layouts).  Client writes that land meanwhile go to the primary only;
  those behind the cursor are appended to an ordered *delta log* (keys
  ahead of it are staged later with their new value) and replayed on
  the built secondary before verification starts.  Pump work is charged
  to the *secondary's* cost meter, never the client-visible primary
  meter — migration overhead is measured, not hidden, and reads stay
  exactly as cheap as before,
* **verifying** after backfill completes: a second cursor sweep
  value-compares every primary key against the secondary while writes
  are now duplicated to both sides (a dual write that disagrees on
  success is divergence); keys dual-written during the sweep (the
  *dirty set*) are re-compared, then sizes must match.  Only a fully
  verified secondary reaches ``ready`` — the sweep, not the build, is
  the proof that the secondary is right,
* **cutting over** atomically between two client operations, when the
  control plane's :class:`~repro.core.migrate.MigrationDriver` (its one
  caller) says so: the primary reference, meter, and capability flags
  swap in one step with no operation deferred or rejected
  (``cutover_stall_ops == 0`` by construction).  On divergence the migration moves to ``failed``; an
  :meth:`abort` detaches the secondary and the primary keeps serving.

Divergence handling — comparing against the differential-oracle model
and shrinking a repro stream with ``shrink_stream`` — is the
controller's job; the multiplexer only *detects* and records
:class:`Divergence` facts, so this module stays import-light (it must
not depend on :mod:`repro.core.opstream`, which imports the runner).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

from repro.indexes.base import (
    KEY_BYTES,
    PAYLOAD_BYTES,
    Key,
    MemoryBreakdown,
    OpRecord,
    OrderedIndex,
    Value,
    lend,
)

__all__ = [
    "BACKFILL", "VERIFY", "READY", "DONE", "FAILED", "DETACHED",
    "Divergence", "MultiplexIndex",
]

#: Migration phases of the multiplexer's pump state machine.
BACKFILL = "backfill"
VERIFY = "verify"
READY = "ready"
DONE = "done"        # cut over; the old secondary is now the primary
FAILED = "failed"    # divergence detected; awaiting abort/rollback
DETACHED = "detached"  # aborted; secondary dropped, primary serving

#: :class:`Divergence` facts kept per migration.  The first one already
#: fails it; the bound only caps what a misbehaving secondary can make
#: the multiplexer hold.
DIVERGENCE_LIMIT = 20


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between primary and secondary."""

    #: Client-op sequence number at detection time.
    seq: int
    #: Where it surfaced: "write" (dual-write parity), "backfill"
    #: (the secondary refused a delta-log write), "verify" (sweep or
    #: dirty-set re-check), "size" (cardinality mismatch).
    stage: str
    op: str
    key: Key
    expected: str
    got: str

    def describe(self) -> str:
        return (f"[{self.stage}] seq={self.seq} {self.op} key={self.key}: "
                f"expected {self.expected}, got {self.got}")


class MultiplexIndex(OrderedIndex):
    """Primary + shadow secondary multiplexed behind one index.

    The secondary must be empty at attach: it is built by one
    ``bulk_load`` of the staged snapshot, which would discard (or
    refuse) anything already in it."""

    name = "Multiplex"
    is_learned = False
    is_adapter = True

    def __init__(
        self,
        primary: OrderedIndex,
        secondary: OrderedIndex,
        chunk: int = 128,
        pump_per_op: int = 1,
    ) -> None:
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        if not primary.supports_range:
            raise ValueError(
                f"{primary.name} cannot be migrated from: the backfill "
                "snapshot cursor needs range_scan support")
        if len(secondary):
            raise ValueError(
                f"{secondary.name} secondary must be empty at attach "
                f"(holds {len(secondary)} keys): it is built by bulk_load")
        super().__init__(meter=primary.meter)
        self.primary = primary
        self.secondary: Optional[OrderedIndex] = secondary
        self.retired: Optional[OrderedIndex] = None
        self.chunk = chunk
        self.pump_per_op = pump_per_op
        self.phase = BACKFILL
        # Capabilities: reads follow the primary; writes need both sides.
        self.supports_delete = primary.supports_delete and secondary.supports_delete
        self.supports_range = primary.supports_range
        self.supports_duplicates = False
        #: Next key the backfill snapshot cursor will stage from.
        self._cursor: Key = 0
        #: Rows scanned so far, in key order; one ``bulk_load`` turns
        #: them into the secondary and drops the list.
        self._staged: List[Tuple[Key, Value]] = []
        #: Cursor still has primary keys to stage.
        self._staging = True
        self._built = False
        #: Ordered ``(op, key, value)`` client writes the staged snapshot
        #: misses (their key was behind the cursor); replayed on the
        #: secondary right after the build.
        self._delta: List[Tuple[str, Key, Value]] = []
        #: Next key the verification sweep will compare.
        self._vcursor: Key = 0
        #: Keys dual-written while verification was in flight; re-compared
        #: before cutover so churn cannot slip past the sweep.
        self._dirty: Set[Key] = set()
        self.divergences: List[Divergence] = []
        #: Progress callback ``(stage, done, total)`` per pumped chunk.
        self.progress_sink: Optional[Callable[[str, int, int], None]] = None
        # Counters surfaced in the migration report.
        self.backfill_keys = 0
        self.backfill_chunks = 0
        self.verify_keys = 0
        self.reverify_keys = 0
        self.dual_writes = 0
        self.cutover_seq: Optional[int] = None
        #: Client ops deferred or rejected because of cutover: always 0 —
        #: the swap happens inside a single pump, between client ops.
        self.cutover_stall_ops = 0
        self._seq = 0

    # -- helpers ---------------------------------------------------------------

    @property
    def migrating(self) -> bool:
        """Whether a secondary is still attached (not cut over/aborted)."""
        return self.phase in (BACKFILL, VERIFY, READY, FAILED)

    def _mirror(self, prev: OpRecord) -> None:
        """Adopt the primary's fresh ``last_op`` (identity-compared, so
        staleness semantics survive the wrapper: ops that leave the
        primary's record stale leave ours stale too)."""
        cur = self.primary.last_op
        if cur is not prev:
            self.last_op = cur

    @property
    def build_pending(self) -> bool:
        """Staging is complete and :meth:`build_secondary` has not run
        yet (still ``phase == BACKFILL``)."""
        return self.phase == BACKFILL and not self._staging and not self._built

    def _diverge(self, stage: str, op: str, key: Key,
                 expected: object, got: object) -> None:
        if len(self.divergences) < DIVERGENCE_LIMIT:
            self.divergences.append(Divergence(
                seq=self._seq, stage=stage, op=op, key=key,
                expected=repr(expected), got=repr(got)))
        self.phase = FAILED

    def _progress(self, stage: str, done: int) -> None:
        if self.progress_sink is not None:
            self.progress_sink(stage, done, len(self.primary))

    # -- the pump: interleaved backfill / verify -------------------------------

    def pump(self) -> int:
        """Advance the migration by one step; returns keys processed.

        Called automatically (``pump_per_op`` times) after every client
        operation, so migration progress interleaves with live traffic
        instead of stopping the world.  While ``phase == BACKFILL`` a
        step stages one chunk, or — once staging is done — builds the
        secondary (unless the caller already did) and catches it up."""
        if self.phase == BACKFILL:
            if self._staging:
                return self._stage_chunk()
            self.build_secondary()
            return self._catch_up()
        if self.phase == VERIFY:
            return self._verify_chunk()
        return 0

    def _pump(self) -> None:
        for _ in range(self.pump_per_op):
            if not self.migrating or self.phase == FAILED:
                return
            self.pump()

    def _stage_chunk(self) -> int:
        with lend(self.primary, self.secondary.meter):
            rows = self.primary.range_scan(self._cursor, self.chunk)
        self._staged.extend(rows)
        self.backfill_keys += len(rows)
        self.backfill_chunks += 1
        if len(rows) < self.chunk:
            self._staging = False
        else:
            self._cursor = rows[-1][0] + 1
        self._progress("backfill", self.backfill_keys)
        return len(rows)

    def build_secondary(self) -> None:
        """Bulk-load the staged snapshot into the secondary (no-op unless
        :attr:`build_pending`).

        The one O(n) step of a migration.  It reads and writes only
        state private to the migration — the staging list and the
        secondary — so a threaded caller runs it with no lock held
        while client writes keep landing in the delta log; ``pump()``
        runs it inline for everyone else."""
        if not self.build_pending:
            return
        secondary = self.secondary
        assert secondary is not None
        secondary.bulk_load(self._staged)
        self._staged = []
        self._built = True

    def _catch_up(self) -> int:
        """Replay the delta log on the freshly built secondary, then
        start verifying.  Every logged write succeeded on the primary,
        so each must succeed on a faithful secondary."""
        for op, key, value in self._delta:
            if not self._apply_secondary(op, key, value):
                self._diverge("backfill", op, key, True, False)
                return 0
        replayed = len(self._delta)
        self.dual_writes += replayed
        self._delta = []
        self.phase = VERIFY
        self._vcursor = 0
        self._invalidate_batch_cache()
        return replayed

    def _apply_secondary(self, op: str, key: Key, value: Value) -> bool:
        secondary = self.secondary
        assert secondary is not None
        if op == "insert":
            return secondary.insert(key, value)
        if op == "update":
            return secondary.update(key, value)
        return secondary.delete(key)

    def _shadow(self, op: str, key: Key, value: Value = None) -> None:
        """Carry one write the primary accepted over to the secondary
        side: into the delta log while the secondary is still being
        built, as a parity-checked dual write afterwards."""
        if self.secondary is None or self.phase == FAILED:
            return
        if self.phase == BACKFILL:
            # Keys at or past the cursor are yet to be scanned: the
            # staged snapshot will already reflect this write.
            if not self._staging or key < self._cursor:
                self._delta.append((op, key, value))
            return
        self.dual_writes += 1
        if self._apply_secondary(op, key, value):
            # Both sides must agree on this key before cutover.
            self._dirty.add(key)
        else:
            self._diverge("write", op, key, True, False)

    def _verify_chunk(self) -> int:
        secondary = self.secondary
        assert secondary is not None
        with lend(self.primary, secondary.meter):
            rows = self.primary.range_scan(self._vcursor, self.chunk)
        # One batched read of the chunk (the secondary's vectorized path
        # when it has one); on a mismatch its meter has therefore paid
        # for the whole chunk, not just the keys up to the diverging one.
        found = secondary.lookup_many([key for key, _ in rows])
        for (key, value), got in zip(rows, found):
            self.verify_keys += 1
            if got != value:
                self._diverge("verify", "lookup", key, value, got)
                return 0
        self._progress("verify", self.verify_keys)
        if len(rows) < self.chunk:
            return self._finish_verification(len(rows))
        self._vcursor = rows[-1][0] + 1
        return len(rows)

    def _recheck_dirty(self) -> bool:
        """Re-compare every key dual-written since it was last verified;
        False (and FAILED) on the first that disagrees."""
        secondary = self.secondary
        assert secondary is not None
        for key in sorted(self._dirty):
            with lend(self.primary, secondary.meter):
                expected = self.primary.lookup(key)
            got = secondary.lookup(key)
            self.reverify_keys += 1
            if got != expected:
                self._diverge("verify", "reverify", key, expected, got)
                return False
        self._dirty.clear()
        return True

    def _finish_verification(self, scanned: int) -> int:
        """Sweep done: re-check churned keys, then cardinality, then
        declare ready; the migration driver cuts over."""
        secondary = self.secondary
        assert secondary is not None
        if not self._recheck_dirty():
            return 0
        if len(secondary) != len(self.primary):
            self._diverge("size", "verify", 0,
                          len(self.primary), len(secondary))
            return 0
        self.phase = READY
        self._progress("ready", self.verify_keys)
        return scanned

    def cutover(self) -> None:
        """Atomically promote the verified secondary to primary.

        The migration driver calls it between two client operations,
        so no client op is ever deferred: the swap
        rebinds the primary reference, the client-visible meter, and
        the capability flags in one step."""
        if self.phase != READY:
            raise RuntimeError(
                f"cutover requires a fully verified secondary "
                f"(phase={self.phase!r})")
        secondary = self.secondary
        assert secondary is not None
        # Keys written while READY (cutover pending) get one last
        # comparison, so the verified-before-swap guarantee covers
        # every key no matter how late the churn arrived.
        if not self._recheck_dirty():
            return
        self.retired = self.primary
        self.primary = secondary
        self.secondary = None
        self.meter = self.primary.meter
        self.supports_delete = self.primary.supports_delete
        self.supports_range = self.primary.supports_range
        self.phase = DONE
        self.cutover_seq = self._seq
        self._invalidate_batch_cache()

    def abort(self) -> None:
        """Drop the secondary; the primary keeps serving unchanged."""
        if self.phase in (DONE, DETACHED):
            raise RuntimeError(f"nothing to abort (phase={self.phase!r})")
        self.retired = self.secondary
        self.secondary = None
        self._staged = []
        self._delta = []
        self.phase = DETACHED
        self._invalidate_batch_cache()

    # -- OrderedIndex: reads ---------------------------------------------------

    def _load(self, items: Sequence[Tuple[Key, Value]], ks: Any) -> None:
        """Load the *primary*; the backfill pump will stage it for the
        secondary like any other pre-existing data."""
        self.primary.bulk_load(items)

    def lookup(self, key: Key) -> Optional[Value]:
        prev = self.primary.last_op
        value = self.primary.lookup(key)
        self._mirror(prev)
        self._seq += 1
        self._pump()
        return value

    def range_scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        prev = self.primary.last_op
        rows = self.primary.range_scan(start, count)
        self._mirror(prev)
        self._seq += 1
        self._pump()
        return rows

    # -- OrderedIndex: writes (delta-logged, then dual) ------------------------

    def insert(self, key: Key, value: Value) -> bool:
        prev = self.primary.last_op
        okp = self.primary.insert(key, value)
        self._mirror(prev)
        self._seq += 1
        if okp:
            self._shadow("insert", key, value)
        self._pump()
        return okp

    def update(self, key: Key, value: Value) -> bool:
        prev = self.primary.last_op
        okp = self.primary.update(key, value)
        self._mirror(prev)
        self._seq += 1
        if okp:
            self._shadow("update", key, value)
        self._pump()
        return okp

    def delete(self, key: Key) -> bool:
        prev = self.primary.last_op
        okp = self.primary.delete(key)
        self._mirror(prev)
        self._seq += 1
        if okp:
            self._shadow("delete", key)
        self._pump()
        return okp

    # -- batch paths -----------------------------------------------------------

    def _lookup_batch(self, keys: Sequence[Key]) -> Optional[Any]:
        """Delegate the vectorized fast path to the live primary.

        The binding is cached in ``_batch_cache`` and dropped by
        ``_invalidate_batch_cache`` — which catch-up, cutover and
        abort call — so a batch can never be served by an index
        that was swapped out mid-stream (see ``scan_many`` in the base
        class for the wrapper-mutation guard)."""
        if self._batch_cache is None:
            self._batch_cache = self.primary
        return self._batch_cache._lookup_batch(keys)

    def _invalidate_batch_cache(self) -> None:
        super()._invalidate_batch_cache()
        # Cascade to both sides: their own caches key vectorized tables
        # off structures the pump may just have mutated.
        self.primary._invalidate_batch_cache()
        if self.secondary is not None:
            self.secondary._invalidate_batch_cache()

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.primary)

    def memory_usage(self) -> MemoryBreakdown:
        """Honest accounting: while both sides are attached, migration
        really does hold two indexes in memory — plus the staged rows
        and the delta log until the build consumes them."""
        mem = self.primary.memory_usage()
        if self.secondary is not None:
            other = self.secondary.memory_usage()
            pending = len(self._staged) + len(self._delta)
            return MemoryBreakdown(
                inner=mem.inner + other.inner,
                leaf=mem.leaf + other.leaf,
                metadata=mem.metadata + other.metadata
                + pending * (KEY_BYTES + PAYLOAD_BYTES),
            )
        return mem

    def debug_validate(self) -> List[Any]:
        out = list(self.primary.debug_validate())
        if self.secondary is not None:
            out.extend(self.secondary.debug_validate())
        return out

    def status(self) -> dict:
        """Migration-progress snapshot (feeds instance telemetry)."""
        return {
            "phase": self.phase,
            "primary": self.primary.name,
            "secondary": (self.secondary.name
                          if self.secondary is not None else None),
            "cursor": self._cursor,
            "backfill_keys": self.backfill_keys,
            "backfill_chunks": self.backfill_chunks,
            "staged": len(self._staged),
            "delta": len(self._delta),
            "build_pending": self.build_pending,
            "verify_keys": self.verify_keys,
            "reverify_keys": self.reverify_keys,
            "dirty": len(self._dirty),
            "dual_writes": self.dual_writes,
            "divergences": len(self.divergences),
            "cutover_seq": self.cutover_seq,
            "cutover_stall_ops": self.cutover_stall_ops,
        }
