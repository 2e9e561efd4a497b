"""Zero-downtime live migration: the multiplexer and the controller.

Unit tests drive :class:`MultiplexIndex` pump-by-pump; integration
tests run :func:`run_migration` end to end, including the edge cases
from the issue: cutover racing a concurrent SMO, a lying secondary
(divergence -> abort -> shrunk repro), abort-and-rollback leaving the
primary serving, empty-index backfill, and writes racing the staging
cursor (stage -> build -> catch-up).
"""

import random

import pytest

from repro.core.instance import RETIRED, SERVING
from repro.core.migrate import (
    CUT_OVER,
    ROLLED_BACK,
    MigrationDriver,
    resolve_index_name,
    run_migration,
)
from repro.core.workloads import (
    INSERT,
    LOOKUP,
    Operation,
    Workload,
    churn_workload,
    mixed_workload,
    payload,
)
from repro.indexes.alex import ALEX
from repro.indexes.btree import BPlusTree
from repro.indexes.finedex import FINEdex
from repro.indexes.pgm import PGMIndex
from repro.indexes.multiplex import (
    BACKFILL,
    DETACHED,
    DONE,
    FAILED,
    READY,
    VERIFY,
    MultiplexIndex,
)

KEYS = sorted(random.Random(7).sample(range(1, 50_000_000), 2000))
ITEMS = [(k, payload(k)) for k in KEYS]


class DeafUpdateBTree(BPlusTree):
    """A lying secondary: applies the update, then denies the key."""

    def update(self, key, value):
        super().update(key, value)
        return False


def _mux(n=300, chunk=50, make_secondary=BPlusTree, **kw):
    p, s = BPlusTree(), make_secondary()
    p.bulk_load(ITEMS[:n])
    return MultiplexIndex(p, s, chunk=chunk, **kw), p, s


def _pump_until(mux, phase, limit=10_000):
    for _ in range(limit):
        if mux.phase == phase:
            return
        mux.pump()
    raise AssertionError(f"never reached {phase}; stuck at {mux.phase}")


# -- multiplexer unit tests ----------------------------------------------------

def test_pump_walks_backfill_verify_ready_done():
    mux, p, s = _mux(n=300, chunk=50)
    assert mux.phase == BACKFILL
    _pump_until(mux, VERIFY)
    assert mux.backfill_keys == 300
    assert mux.backfill_chunks == 7  # six full chunks + the short tail
    assert len(s) == 300
    _pump_until(mux, READY)
    assert mux.verify_keys == 300
    mux.cutover()
    assert mux.phase == DONE
    assert mux.primary is s and mux.secondary is None
    assert mux.lookup(KEYS[0]) == payload(KEYS[0])


def test_cutover_requires_verified_secondary():
    mux, _, _ = _mux()
    with pytest.raises(RuntimeError, match="fully verified"):
        mux.cutover()


def test_reads_cost_exactly_the_bare_primary():
    """The zero-downtime core: client lookups charge the primary meter
    exactly as if no migration were running; all pump work lands on the
    secondary's meter."""
    mux, p, s = _mux(n=200, chunk=20)
    bare = BPlusTree()
    bare.bulk_load(ITEMS[:200])
    for k in KEYS[:100]:
        assert mux.lookup(k) == bare.lookup(k)
    assert p.meter.total_time() == bare.meter.total_time()
    assert s.meter.total_time() > 0  # backfill really was charged somewhere


def test_dual_written_insert_survives_cutover():
    mux, _, s = _mux(n=100, chunk=30)
    new = max(KEYS) + 17
    assert mux.insert(new, payload(new))
    _pump_until(mux, READY)
    mux.cutover()
    assert mux.primary is s
    assert mux.lookup(new) == payload(new)
    assert mux.lookup(KEYS[0]) == payload(KEYS[0])


def test_key_written_during_staging_lands_exactly_once():
    """A write behind the cursor reaches the secondary through the
    delta log, one ahead of it through the staged snapshot — never
    both, whatever the destination does with a repeated insert (PGM
    blind-appends)."""
    behind, ahead = KEYS[10] + 1, max(KEYS) + 5
    assert behind not in KEYS
    for make_secondary in (BPlusTree, ALEX, PGMIndex):
        mux, _, s = _mux(n=400, chunk=50, make_secondary=make_secondary)
        mux.pump()  # cursor now past the first chunk
        assert KEYS[10] < mux.status()["cursor"] <= ahead
        for key in (behind, ahead):
            assert mux.insert(key, payload(key))
            assert mux.update(key, key)  # the latest value must win
        assert mux.status()["delta"] == 2  # only the writes behind
        assert len(s) == 0  # nothing is dual-written before the build
        _pump_until(mux, READY)
        assert not mux.divergences
        assert mux.dual_writes == 2  # the replayed delta log
        mux.cutover()
        assert mux.primary is s and len(mux) == 402
        keys = [k for k, _ in mux.items()]
        for key in (behind, ahead):
            assert keys.count(key) == 1
            assert mux.lookup(key) == key


def test_secondary_must_be_empty_at_attach():
    p, s = BPlusTree(), BPlusTree()
    p.bulk_load(ITEMS[:50])
    s.insert(KEYS[3], 1)
    with pytest.raises(ValueError, match="must be empty"):
        MultiplexIndex(p, s)


def test_backfill_divergence_on_conflicting_secondary_value():
    mux, _, s = _mux(n=100, chunk=30)
    _pump_until(mux, VERIFY)
    assert s.update(KEYS[3], payload(KEYS[3]) ^ 1)  # poisoned after the build
    _pump_until(mux, FAILED)
    assert mux.divergences[0].stage == "verify"
    assert mux.divergences[0].key == KEYS[3]


def test_batched_verify_stops_at_the_diverging_key_but_pays_for_the_chunk():
    """The sweep reads each chunk with one ``lookup_many``: the first
    mismatch is still the one reported and ``verify_keys`` still stops
    there, but — only on this FAILED path — the secondary's meter has
    paid for every key of the chunk, not just those up to the liar."""
    chunk, poisoned_at = 30, 4
    mux, _, s = _mux(n=100, chunk=chunk, pump_per_op=0)
    _pump_until(mux, VERIFY)
    poisoned = KEYS[poisoned_at]
    assert s.update(poisoned, payload(poisoned) ^ 1)
    assert s.update(KEYS[poisoned_at + 9], 0)  # a later liar: never reported
    before = s.meter.total_time()
    assert mux.pump() == 0
    assert mux.phase == FAILED
    assert mux.verify_keys == poisoned_at + 1
    assert len(mux.divergences) == 1
    d = mux.divergences[0]
    assert (d.stage, d.op, d.key) == ("verify", "lookup", poisoned)
    assert d.expected == repr(payload(poisoned))
    assert d.got == repr(payload(poisoned) ^ 1)
    # Same items, same structure as both sides: the step cost the
    # borrowed-meter scan of the chunk plus a lookup of *all* its keys.
    twin = BPlusTree()
    twin.bulk_load(ITEMS[:100])
    twin.meter.reset()
    twin.range_scan(0, chunk)
    twin.lookup_many(KEYS[:chunk])
    assert s.meter.total_time() - before == twin.meter.total_time()


def test_size_divergence_on_rogue_secondary_key():
    mux, _, s = _mux(n=100, chunk=40)
    _pump_until(mux, VERIFY)
    rogue = max(KEYS) + 99  # never in the primary, so only the
    s.insert(rogue, 1)      # cardinality check can catch it
    _pump_until(mux, FAILED)
    assert mux.divergences[0].stage == "size"


def test_failed_delta_replay_is_a_backfill_divergence():
    mux, _, _ = _mux(n=100, chunk=30, make_secondary=DeafUpdateBTree)
    mux.pump()
    assert mux.update(KEYS[0], 7)  # behind the cursor: delta-logged
    _pump_until(mux, FAILED)
    assert mux.divergences[0].stage == "backfill"
    assert mux.divergences[0].op == "update"
    assert mux.divergences[0].key == KEYS[0]


def test_lying_update_in_ready_window_diverges():
    p = BPlusTree()
    p.bulk_load(ITEMS[:100])
    mux = MultiplexIndex(p, DeafUpdateBTree(), chunk=50)
    _pump_until(mux, READY)
    mux.update(KEYS[0], 123)
    assert mux.phase == FAILED
    assert mux.divergences[0].stage == "write"


def test_dirty_keys_reverified_at_cutover():
    mux, _, s = _mux(n=200, chunk=50)
    _pump_until(mux, READY)
    mux.update(KEYS[5], 4242)  # churn lands in the READY window
    mux.cutover()
    assert mux.phase == DONE
    assert mux.reverify_keys >= 1
    assert mux.lookup(KEYS[5]) == 4242


def test_abort_detaches_secondary_and_primary_keeps_serving():
    mux, p, s = _mux(n=100, chunk=30, pump_per_op=0)
    mux.pump()
    assert mux.update(KEYS[0], payload(KEYS[0]))  # behind the cursor
    st = mux.status()
    assert st["phase"] == BACKFILL and st["staged"] == 30 and st["delta"] == 1
    mux.abort()  # mid-staging: the staged rows and the delta log go too
    assert mux.phase == DETACHED
    assert mux.secondary is None and mux.retired is s
    assert len(s) == 0
    st = mux.status()
    assert st["staged"] == 0 and st["delta"] == 0
    assert mux.pump() == 0  # nothing left to drive
    new = max(KEYS) + 3
    assert mux.insert(new, payload(new))  # single-sided, no crash
    assert mux.lookup(new) == payload(new)
    assert mux.lookup(KEYS[0]) == payload(KEYS[0])
    assert len(p) == 101


def test_memory_usage_sums_both_sides_while_attached():
    mux, p, s = _mux(n=200, chunk=50, pump_per_op=0)
    mux.pump()
    mux.update(KEYS[0], payload(KEYS[0]))  # delta-logged
    assert mux.memory_usage().total == (
        p.memory_usage().total + s.memory_usage().total + (50 + 1) * 16)
    _pump_until(mux, VERIFY)
    both = mux.memory_usage().total
    assert both == p.memory_usage().total + s.memory_usage().total
    _pump_until(mux, READY)
    mux.cutover()
    assert mux.memory_usage().total == s.memory_usage().total


def test_status_snapshot_tracks_the_pump():
    mux, _, _ = _mux(n=120, chunk=40)
    assert mux.status()["phase"] == BACKFILL
    _pump_until(mux, READY)
    mux.cutover()
    st = mux.status()
    assert st["phase"] == DONE
    assert st["backfill_keys"] == 120
    assert st["verify_keys"] == 120
    assert st["secondary"] is None


def test_the_multiplexer_never_cuts_itself_over():
    """Five pumps behind every op verify well inside the stream, with
    pumps of the same op still to go; only a driver cuts over."""
    mux, p, _ = _mux(n=100, chunk=30, pump_per_op=5)
    for key in KEYS[:50]:
        assert mux.lookup(key) == payload(key)
    assert mux.phase == READY and mux.primary is p
    assert mux.cutover_seq is None


def test_primary_without_range_scan_is_rejected():
    class NoRange(BPlusTree):
        supports_range = False

    with pytest.raises(ValueError, match="range_scan"):
        MultiplexIndex(NoRange(), BPlusTree())


# -- the scan_many stale-batch-cache regression (satellite) --------------------

def test_scan_many_gen_guard_drops_cache_bound_mid_batch():
    """A wrapper that mutates from inside ``range_scan`` (the mux pump
    does exactly this) can leave batch state bound mid-batch; the
    generation guard in ``scan_many`` must drop it at batch end."""

    class MutatingScanBTree(BPlusTree):
        def range_scan(self, start, count):
            rows = super().range_scan(start, count)
            self._mutation_gen += 1          # a mutation happened...
            self._batch_cache = object()     # ...with batch state bound
            return rows

    idx = MutatingScanBTree()
    idx.bulk_load(ITEMS[:50])
    idx.scan_many([KEYS[0], KEYS[10]], 5)
    assert idx._batch_cache is None  # stale binding was dropped


def test_batch_binding_cannot_survive_a_cutover_after_a_batch():
    """Warm the vectorized-lookup binding, drive scan_many until the
    pump has verified mid-batch, then let a driver cut over: the next
    lookup_many must be served by the *new* primary, never the retired
    one."""
    p, s = FINEdex(), BPlusTree()
    p.bulk_load(ITEMS[:400])
    mux = MultiplexIndex(p, s, chunk=64)
    warm = mux.lookup_many(KEYS[:32])  # binds _batch_cache to FINEdex
    assert warm == [payload(k) for k in KEYS[:32]]
    mux.scan_many([KEYS[0]] * 30, 4)  # each scan pumps one chunk
    assert mux.phase == READY
    driver = MigrationDriver(mux, on_cutover=lambda: None,
                             on_rollback=lambda why: None)
    driver.settle()
    assert driver.outcome == CUT_OVER and mux.phase == DONE
    assert mux.primary is s
    assert mux._batch_cache is not p  # the old binding is gone
    new = max(KEYS) + 1
    mux.insert(new, payload(new))  # lands only in the new primary
    got = mux.lookup_many([new] + KEYS[:31])
    assert got[0] == payload(new)
    assert got[1:] == [payload(k) for k in KEYS[:31]]


# -- the migration driver (one owner for cutover/rollback) ----------------------

class _Driven:
    """A ``pump_per_op=0`` multiplexer under a :class:`MigrationDriver`,
    with every hook call and ``mux.abort()`` call counted."""

    def __init__(self, make_secondary=BPlusTree, n=200, chunk=40):
        self.mux, self.primary, self.secondary = _mux(
            n=n, chunk=chunk, make_secondary=make_secondary, pump_per_op=0)
        self.cutovers, self.rollbacks, self.aborts = [], [], 0
        real_abort = self.mux.abort

        def counted_abort():
            self.aborts += 1
            real_abort()

        self.mux.abort = counted_abort
        self.clock0 = self.secondary.meter.total_time()
        self.driver = MigrationDriver(
            self.mux, on_cutover=lambda: self.cutovers.append(self.mux.phase),
            on_rollback=self.rollbacks.append)

    def poison(self, key, value):
        """Corrupt the secondary behind the driver's back (the charge is
        the test's, not the migration's)."""
        before = self.secondary.meter.total_time()
        assert self.secondary.update(key, value)
        self.clock0 += self.secondary.meter.total_time() - before

    def step_until(self, done, limit=10_000):
        for _ in range(limit):
            if done():
                return
            self.driver.step()
        raise AssertionError(f"stuck at {self.mux.phase}")

    def assert_rolled_back_once(self, stage):
        driver, mux = self.driver, self.mux
        assert driver.outcome == ROLLED_BACK
        assert self.aborts == 1 and len(self.rollbacks) == 1
        assert self.cutovers == []
        assert mux.phase == DETACHED and mux.primary is self.primary
        assert mux.divergences[0].stage == stage
        assert self.rollbacks[0] == mux.divergences[0].describe()
        # Everything the migration put on the secondary's meter — and
        # nothing else — is overhead.
        advance = self.secondary.meter.total_time() - self.clock0
        assert driver.overhead_ns == pytest.approx(advance, rel=1e-12)
        assert driver.overhead_ns > 0
        # The outcome is final: further calls neither step nor re-fire.
        chunks = driver.chunks
        driver.step()
        driver.settle()
        driver.abort("again")
        driver.advance()
        assert (self.aborts, len(self.rollbacks), driver.chunks) == (
            1, 1, chunks)


def test_driver_rolls_back_once_on_failure_while_staging():
    d = _Driven()
    d.driver.step()                       # one staging chunk
    assert d.mux.phase == BACKFILL and d.driver.chunks == 1
    d.mux._diverge("injected", "test", KEYS[0], True, False)
    d.driver.step()                       # sees FAILED: no pump, rollback
    d.assert_rolled_back_once("injected")


def test_driver_rolls_back_once_on_failure_in_catch_up():
    d = _Driven(make_secondary=DeafUpdateBTree)
    d.step_until(lambda: d.mux.build_pending)
    # A client update behind the cursor lands in the delta log; the
    # secondary will refuse it at catch-up.
    assert d.driver.metered(d.mux.update, KEYS[2], 99)
    d.driver.advance()
    d.assert_rolled_back_once("backfill")
    assert d.primary.lookup(KEYS[2]) == 99


def test_driver_rolls_back_once_on_failure_in_verify():
    d = _Driven()
    d.step_until(lambda: d.mux.phase == VERIFY)
    d.poison(KEYS[3], payload(KEYS[3]) ^ 1)
    d.driver.advance()
    d.assert_rolled_back_once("verify")


def test_driver_rolls_back_once_when_the_cutover_recheck_fails():
    d = _Driven()
    d.step_until(lambda: d.mux.phase == READY)
    assert d.driver.outcome is None       # READY is not an outcome
    fresh = KEYS[-1] + 11
    assert d.driver.metered(d.mux.insert, fresh, 5)   # dirty, cutover pending
    d.poison(fresh, 6)                    # late liar
    d.driver.step()                       # the cutover step: re-check fails
    d.assert_rolled_back_once("verify")
    assert d.mux.divergences[0].op == "reverify"


def test_driver_cuts_over_once_and_meters_the_whole_migration():
    d = _Driven()
    steps = 0
    while d.driver.outcome is None:
        was_building = d.mux.build_pending
        moved = d.driver.step()
        steps += 1
        assert not (was_building and moved)   # the build moves no keys
    assert d.driver.outcome == CUT_OVER
    assert d.cutovers == [DONE] and d.rollbacks == [] and d.aborts == 0
    assert d.mux.primary is d.secondary
    # stage chunks + build + catch-up + verify chunks, then the cutover
    # as its own step (it is not a chunk).
    assert steps == d.driver.chunks + 1
    advance = d.secondary.meter.total_time() - d.clock0
    assert d.driver.overhead_ns == pytest.approx(advance, rel=1e-12)


def test_settle_cuts_a_ready_multiplexer_over_through_metered():
    """``settle`` after a client op is where a self-pumping
    multiplexer's cutover happens; its final re-check is overhead."""
    d = _Driven()
    d.step_until(lambda: d.mux.phase == READY)
    chunks = d.driver.chunks
    fresh = KEYS[-1] + 11
    assert d.driver.metered(d.mux.insert, fresh, 5)   # dirty: re-checked
    d.driver.settle()
    assert d.driver.outcome == CUT_OVER and d.cutovers == [DONE]
    assert d.driver.chunks == chunks and d.mux.reverify_keys == 1
    advance = d.secondary.meter.total_time() - d.clock0
    assert d.driver.overhead_ns == pytest.approx(advance, rel=1e-12)


def test_driver_advance_spends_its_budget_in_keys_but_always_settles():
    d = _Driven(n=200, chunk=40)
    d.driver.advance(budget=80)           # two 40-key staging chunks
    assert d.mux.backfill_keys == 80 and d.driver.outcome is None
    d.step_until(lambda: d.mux.phase == READY)
    d.driver.advance(budget=0)            # a verified secondary costs nothing
    assert d.driver.outcome == CUT_OVER


def test_driver_abort_rolls_back_under_the_callers_lock():
    held = []

    class Lock:
        def __enter__(self):
            held.append(True)

        def __exit__(self, *exc):
            held.pop()

    mux, primary, _ = _mux(n=120, chunk=40, pump_per_op=0)
    seen = []
    driver = MigrationDriver(
        mux, on_cutover=lambda: seen.append(("cutover", list(held))),
        on_rollback=lambda why: seen.append((why, list(held))), lock=Lock)
    real_build = mux.build_secondary
    mux.build_secondary = lambda: (seen.append(("build", list(held))),
                                   real_build())
    while not mux.build_pending:
        driver.step()
    driver.step()                         # the build: no lock held
    driver.abort("operator said so")
    assert seen == [("build", []), ("operator said so", [True])]
    assert driver.outcome == ROLLED_BACK and mux.phase == DETACHED
    assert mux.primary is primary and held == []


# -- controller integration ----------------------------------------------------

def test_resolve_index_name_tolerates_loose_spellings():
    assert resolve_index_name("btree") == "B+tree"
    assert resolve_index_name("B+tree") == "B+tree"
    assert resolve_index_name("alex") == "ALEX"
    assert resolve_index_name("fitingtree") == "FITing-Tree"
    with pytest.raises(KeyError, match="unknown index"):
        resolve_index_name("splay")


def test_rmi_is_not_migratable():
    wl = churn_workload(KEYS[:100], n_ops=50, seed=1)
    with pytest.raises(ValueError, match="cannot be a migration"):
        run_migration("btree", "rmi", wl)


def test_happy_path_btree_to_alex_zero_downtime():
    wl = churn_workload(KEYS[:1200], write_frac=0.5, n_ops=900, seed=3)
    report = run_migration("btree", "alex", wl, chunk=64)
    assert report.completed and not report.aborted
    assert report.ok
    assert report.zero_downtime
    assert report.rejected_ops == 0 and report.cutover_stall_ops == 0
    assert report.verified_fraction == 1.0
    assert report.oracle_mismatches == []
    assert report.divergences == []
    assert report.cutover_seq is not None
    assert report.src_state == RETIRED and report.dst_state == SERVING
    assert report.reads > 0 and report.writes > 0
    assert report.overhead_ns > 0  # migration work was metered, not free
    assert report.backfill_keys_per_vsec > 0
    d = report.to_dict()
    assert d["ok"] is True and d["cutover_seq"] == report.cutover_seq
    assert "migrated after op" in report.describe()


def test_cutover_races_concurrent_smos():
    """Small nodes on both sides so structural modifications fire
    throughout backfill, verification, and right at the cutover
    boundary; the oracle proves client semantics never wobbled."""
    wl = mixed_workload(KEYS[:800], 0.8, n_ops=1000, seed=11)
    report = run_migration(
        "btree", "alex", wl, chunk=32,
        src_factory=lambda: BPlusTree(fanout=8),
        dst_factory=lambda: ALEX(target_leaf_keys=64, max_data_keys=256),
    )
    assert report.ok, report.describe()
    assert report.dual_writes > 0  # writes really did race the pump
    assert report.oracle_mismatches == []


def test_blind_insert_lsm_destination_backfills_cleanly():
    """PGM appends blindly on insert (returns True for keys it already
    holds), so a key must reach it exactly once — from the staged
    snapshot or from the delta log, never both — or the duplicate
    copies inflate the LSM's size past the primary's."""
    wl = churn_workload(KEYS[:1000], write_frac=0.6, n_ops=800, seed=13)
    report = run_migration("btree", "pgm", wl, chunk=64)
    assert report.ok, report.describe()
    assert report.divergences == []
    assert report.verified_fraction == 1.0


def test_short_stream_drains_pump_and_still_cuts_over():
    wl = churn_workload(KEYS[:1500], n_ops=5, seed=5)  # traffic ends early
    report = run_migration("btree", "alex", wl, chunk=64)
    assert report.completed
    assert report.cutover_seq == len(wl.operations)
    assert report.verified_fraction == 1.0


def test_empty_index_migration_completes():
    ops = [Operation(INSERT, k, payload(k)) for k in KEYS[:20]]
    ops += [Operation(LOOKUP, k) for k in KEYS[:20]]
    wl = Workload("empty-start", [], ops, write_fraction=0.5)
    report = run_migration("btree", "alex", wl)
    assert report.completed and report.ok
    assert report.backfill_keys == 0 or report.backfill_keys <= 20
    assert report.oracle_mismatches == []


def test_lying_secondary_aborts_rolls_back_and_shrinks_a_repro():
    class LyingLookupBTree(BPlusTree):
        """Returns corrupted payloads — caught by the verify sweep."""

        def lookup(self, key):
            value = super().lookup(key)
            return value ^ 1 if isinstance(value, int) else value

    wl = churn_workload(KEYS[:600], write_frac=0.3, n_ops=800, seed=9)
    report = run_migration(
        "btree", "btree", wl, chunk=32,
        dst_factory=lambda: LyingLookupBTree(fanout=8),
    )
    assert report.aborted and not report.completed
    assert not report.ok
    assert report.divergence_count >= 1
    # Caught at the first value comparison that touches the liar.
    assert report.divergences[0].startswith("[verify]")
    # Rollback proof: the source served the rest of the stream...
    assert report.src_state == SERVING and report.dst_state == RETIRED
    assert report.post_abort_ops > 0
    # ...and the client stream never saw a wrong answer.
    assert report.oracle_mismatches == []
    assert report.rejected_ops == 0
    # The applied prefix replayed on a fresh lying destination and
    # ddmin shrank it to a minimal repro.
    assert report.repro is not None
    assert 1 <= len(report.repro.ops) <= 5
    assert "ABORTED" in report.describe()


def test_lying_update_in_the_delta_log_aborts_and_shrinks_a_repro():
    ops = [Operation(LOOKUP, KEYS[1]),           # pumps the first chunk
           Operation("update", KEYS[0], 4242)]   # behind the cursor
    ops += [Operation(LOOKUP, k) for k in KEYS[:60]]
    wl = Workload("update-behind-cursor", ITEMS[:300], ops,
                  write_fraction=0.02)
    report = run_migration("btree", "btree", wl, chunk=32,
                           dst_factory=DeafUpdateBTree)
    assert report.aborted and not report.completed
    # Caught when the delta log is replayed on the built secondary,
    # before a single key was verified.
    assert report.divergences[0].startswith("[backfill]")
    assert report.verify_keys == 0
    assert report.src_state == SERVING and report.dst_state == RETIRED
    assert report.post_abort_ops > 0
    assert report.oracle_mismatches == []
    assert report.rejected_ops == 0
    assert report.repro is not None
    assert 1 <= len(report.repro.ops) <= 2


def test_aborted_run_reports_partial_verification():
    class LyingLookupBTree(BPlusTree):
        def lookup(self, key):
            value = super().lookup(key)
            return value ^ 1 if isinstance(value, int) else value

    wl = churn_workload(KEYS[:600], write_frac=0.3, n_ops=400, seed=2)
    report = run_migration("btree", "btree", wl, chunk=32, shrink=False,
                           dst_factory=LyingLookupBTree)
    assert report.aborted
    assert report.repro is None  # shrink=False skips the replay
    assert 0.0 <= report.verified_fraction < 1.0


# -- churn workload (the migration driver) -------------------------------------

def test_churn_workload_is_deterministic():
    a = churn_workload(KEYS[:500], write_frac=0.4, n_ops=300, seed=6)
    b = churn_workload(KEYS[:500], write_frac=0.4, n_ops=300, seed=6)
    assert a.operations == b.operations
    assert a.bulk_items == b.bulk_items
    c = churn_workload(KEYS[:500], write_frac=0.4, n_ops=300, seed=7)
    assert c.operations != a.operations


def test_churn_workload_shape():
    wl = churn_workload(KEYS[:400], write_frac=0.5, n_ops=200, seed=0)
    kinds = {op.op for op in wl.operations}
    assert kinds == {LOOKUP, INSERT}
    n_ins = sum(1 for op in wl.operations if op.op == INSERT)
    assert 0 < n_ins < wl.n_ops
    loaded = {k for k, _ in wl.bulk_items}
    for op in wl.operations:
        if op.op == INSERT:
            assert op.key not in loaded
    with pytest.raises(ValueError):
        churn_workload(KEYS[:10], write_frac=1.5)


# -- live status during an in-flight migration (observability satellite) -------

def _wired_instances(n=200, chunk=50):
    """A source instance serving through a multiplexer, the way a
    server or shard slot does, and a target following its progress."""
    from repro.core.instance import IndexInstance

    source = IndexInstance(BPlusTree(), name="src@0")
    source.bulk_load(ITEMS[:n])
    target = IndexInstance(BPlusTree(), name="dst@1")
    mux = MultiplexIndex(source.index, target.index, chunk=chunk)
    target.watch(mux)
    source.index = mux
    return source, target, mux


def test_instance_status_snapshots_the_backfill_cursor():
    source, target, mux = _wired_instances(n=200, chunk=50)
    mux.pump_per_op = 0  # driven by hand below
    mux.pump()  # one chunk staged
    mux.update(KEYS[0], 1)   # behind the cursor: delta-logged
    mux.update(KEYS[60], 1)  # ahead of it: staged with the next chunk
    st = source.status()
    assert st["migration"]["phase"] == BACKFILL
    assert st["migration"]["backfill_keys"] == 50
    assert st["migration"]["cursor"] == KEYS[49] + 1  # exclusive resume bound
    assert st["migration"]["staged"] == 50
    assert st["migration"]["delta"] == 1
    assert st["migration"]["build_pending"] is False
    assert st["migration"]["secondary"] == "B+tree"
    assert target.status()["backfill_fraction"] == 0.25
    assert target.status()["progress"]["stage"] == "backfill"
    mux.pump()
    assert source.status()["migration"]["backfill_keys"] == 100
    assert target.status()["backfill_fraction"] == 0.5
    while not mux.build_pending:
        mux.pump()
    st = source.status()["migration"]
    assert st["phase"] == BACKFILL and st["staged"] == 200
    mux.pump()  # build + catch-up
    st = source.status()["migration"]
    assert st["phase"] == VERIFY
    assert st["staged"] == 0 and st["delta"] == 0
    assert target.index.lookup(KEYS[0]) == 1 and target.index.lookup(KEYS[60]) == 1


def test_instance_status_reports_dirty_set_in_ready_window():
    source, target, mux = _wired_instances(n=200, chunk=50)
    _pump_until(mux, READY)
    assert source.status()["migration"]["dirty"] == 0
    mux.update(KEYS[0], 4242)
    mux.update(KEYS[1], 4343)
    st = source.status()["migration"]
    assert st["phase"] == READY
    assert st["dirty"] == 2
    assert st["dual_writes"] == 2
    mux.cutover()
    assert "migration" not in source.status()  # nothing left in flight
    st = mux.status()
    assert st["phase"] == DONE and st["dirty"] == 0
    assert st["reverify_keys"] >= 2


def test_instance_status_counts_rejections_while_draining():
    from repro.core.instance import DRAINING, MIGRATING, AdmissionError

    source, target, mux = _wired_instances(n=100, chunk=50)
    source.advance(MIGRATING).advance(DRAINING)
    for _ in range(3):
        with pytest.raises(AdmissionError):
            source.admit(INSERT)
    with pytest.raises(AdmissionError):
        source.admit("delete")
    st = source.status()
    assert st["state"] == DRAINING
    assert st["rejected"] == {INSERT: 3, "delete": 1}
    source.admit(LOOKUP)  # reads drain through untouched
    assert source.status()["rejected"] == {INSERT: 3, "delete": 1}
