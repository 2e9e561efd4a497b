"""PGM-Index (Ferragina & Vinciguerra, VLDB 2020), fully dynamic.

A *static* PGM is a hierarchy of optimal ε-approximate PLA levels over
a packed sorted array: a lookup walks the levels top-down, each model
narrowing the next level's search to a ±ε window ("error-driven" in the
paper's taxonomy, ε = 64 from Table 1).

The *dynamic* PGM uses the LSM-style logarithmic method ("tree-merge"):
sorted runs of geometrically growing capacity, each indexed by its own
static PGM.  An insert merges full runs; deletes insert tombstones.
This is why the paper observes that

* PGM's insert throughput is the best of all indexes on write-only
  workloads (bulk merges amortize beautifully) while its lookups are
  the worst (every run may need probing),
* PGM is the most *space-efficient* learned index (packed arrays, no
  gaps — Figure 8), and
* PGM shrugs off distribution shift (different distributions simply
  live in different runs — Figure 12).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.cost import (
    ALLOC_NODE,
    CACHE_PROBE,
    KEY_COMPARE,
    KEY_SHIFT,
    MODEL_EVAL,
    NODE_HOP,
    PHASE_COLLISION,
    PHASE_SEARCH,
    PHASE_SMO,
    PHASE_TRAVERSE,
    SCAN_ENTRY,
    TRAIN_KEY,
)
from repro.core.hardness import Segment, optimal_pla
from repro.indexes import batching
from repro.core.validate import (
    Violation,
    residual_violations,
    segment_partition_violations,
    sorted_violations,
)
from repro.indexes.base import (
    KEY_BYTES,
    PAYLOAD_BYTES,
    Key,
    MemoryBreakdown,
    OpRecord,
    OrderedIndex,
    Value,
)
from repro.indexes.linear_model import binary_steps

_TOMBSTONE = object()
_SEGMENT_BYTES = 8 + 8 + 8  # first_key + slope + intercept (as in C++ PGM)


def _charge_walks(meter, models: int, probes: int, lines: int) -> None:
    """Charge the summed cost of :meth:`_StaticPGM.locate` walks to
    ``PHASE_TRAVERSE``, each kind once, in the order a walk meets them."""
    if models:
        charge = meter.charge_phased
        charge(PHASE_TRAVERSE, MODEL_EVAL, models)
        charge(PHASE_TRAVERSE, NODE_HOP, models)
        charge(PHASE_TRAVERSE, KEY_COMPARE, probes)
        if lines:
            charge(PHASE_TRAVERSE, CACHE_PROBE, lines)


def _merge_columns(
    old_keys: List[Key], old_values: List[Value],
    new_keys: List[Key], new_values: List[Value],
) -> Tuple[List[Key], List[Value]]:
    """Merge two runs, each a pair of columns ascending by unique key,
    into fresh columns; on equal keys the *new* entry wins.

    Tombstones are RETAINED even when they meet their victim: a
    still-deeper run (not part of this merge) may hold another copy
    of the key, and dropping the tombstone here would resurrect it.
    Tombstones thus ride to the bottom, as in production LSM trees.

    The shorter run is spliced into the longer — one ``bisect`` per
    short key, the long run's stretch before it copied by slice — so a
    flush into a big run is a few hundred C moves and no tuple is built.
    """
    new_is_short = len(new_keys) <= len(old_keys)
    if new_is_short:
        long_keys, long_values, short = old_keys, old_values, zip(new_keys, new_values)
    else:
        long_keys, long_values, short = new_keys, new_values, zip(old_keys, old_values)
    keys: List[Key] = []
    values: List[Value] = []
    n = len(long_keys)
    at = 0  # long entries before this one are merged
    for k, v in short:
        cut = bisect_left(long_keys, k, at)
        keys += long_keys[at:cut]
        values += long_values[at:cut]
        at = cut
        if cut < n and long_keys[cut] == k:
            if not new_is_short:
                continue  # the long run's entry is the new one
            at += 1
        keys.append(k)
        values.append(v)
    keys += long_keys[at:]
    values += long_values[at:]
    return keys, values


class _StaticPGM:
    """One immutable run: packed arrays + recursive PLA levels."""

    __slots__ = ("keys", "values", "levels", "first_keys", "epsilon",
                 "np_cache")

    def __init__(
        self,
        keys: List[Key],
        values: List[Value],
        epsilon: int,
        meter,
    ) -> None:
        self.epsilon = epsilon
        #: Lazily-built numpy arrays for the batch fast path; ``False``
        #: marks a run whose keys/anchors do not fit int64.  Runs are
        #: immutable, so the cache never needs invalidation.
        self.np_cache = None
        self.keys = keys  # the run owns both columns
        self.values = values
        #: levels[0] = leaf segments over keys; levels[i+1] indexes the
        #: first_keys of levels[i]; the last level has one segment.
        self.levels: List[List[Segment]] = []
        #: first_keys[i] = the ``first_key`` column of levels[i], for
        #: every level another one indexes (all but the last).
        self.first_keys: List[List[Key]] = []
        meter.charge(TRAIN_KEY, len(keys))
        if keys:
            level = optimal_pla(keys, epsilon)
            self.levels.append(level)
            while len(level) > 1:
                first_keys = [seg.first_key for seg in level]
                self.first_keys.append(first_keys)
                level = optimal_pla(first_keys, epsilon)
                self.levels.append(level)
                meter.charge(TRAIN_KEY, len(first_keys))

    def __len__(self) -> int:
        return len(self.keys)

    def locate(self, key: Key) -> Tuple[int, int, int, int]:
        """Index of the first key >= ``key`` via the model hierarchy,
        and what the walk cost: ``(index, models, probes, lines)`` —
        one ``MODEL_EVAL`` + ``NODE_HOP`` per level walked, ``probes``
        ``KEY_COMPARE`` over the ±ε windows, ``lines`` ``CACHE_PROBE``
        by ``charge_binary_search``'s cold-line rule.  The caller
        charges (:func:`_charge_walks`), once for all the runs it asks."""
        keys = self.keys
        n = len(keys)
        if n == 0:
            return 0, 0, 0, 0
        reach = self.epsilon + 2
        levels = self.levels
        probes = lines = 0
        # Walk from the top level down, narrowing the segment choice.
        seg_idx = 0
        for depth in range(len(levels) - 1, 0, -1):
            level = levels[depth]
            lower = self.first_keys[depth - 1]
            seg = level[seg_idx] if seg_idx < len(level) else level[-1]
            pred = int(seg.model.predict(key))
            # [lo, hi) = [pred - eps - 1, pred + eps + 2) cut to the level.
            hi = min(pred + reach, len(lower)) if pred > -reach else 0
            lo = min(pred - reach + 1, hi) if pred >= reach else 0
            # The last segment whose first_key <= key in [lo, hi).
            end = bisect_right(lower, key, lo, hi)
            steps = binary_steps(hi - lo, end - lo)
            probes += steps
            if steps > 3:
                lines += steps - 3
            seg_idx = end - 1 if end else 0
        pred = int(levels[0][seg_idx].model.predict(key))
        hi = min(pred + reach, n) if pred > -reach else 0
        lo = min(pred - reach + 1, hi) if pred >= reach else 0
        # The ±ε window in the packed key array.
        end = bisect_left(keys, key, lo, hi)
        steps = binary_steps(hi - lo, end - lo)
        if steps > 3:
            lines += steps - 3
        return end, len(levels), probes + steps, lines

    def segment_count(self) -> int:
        return sum(len(level) for level in self.levels)

    def batch_cache(self):
        """Numpy mirrors of the packed keys and the PLA hierarchy, or
        ``False`` when they do not fit int64 (the batch path then bails
        for good on this run)."""
        if self.np_cache is None:
            keys_np = batching.int64_cache(self.keys)
            if keys_np is None:
                self.np_cache = False
                return False
            levels = []
            for depth, level in enumerate(self.levels):
                models = batching.model_arrays([s.model for s in level])
                lower_first = None
                if depth >= 1:
                    lower_first = batching.int64_cache(
                        self.first_keys[depth - 1])
                    if lower_first is None:
                        self.np_cache = False
                        return False
                if models is None:
                    self.np_cache = False
                    return False
                levels.append((models, lower_first))
            self.np_cache = (keys_np, levels)
        return self.np_cache


class PGMIndex(OrderedIndex):
    """Dynamic PGM-Index with the paper's ε = 64 configuration."""

    name = "PGM"
    is_learned = True
    supports_delete = True
    supports_range = True

    def __init__(
        self,
        epsilon: int = 64,
        buffer_size: int = 256,
        check_duplicates: bool = False,
        merge_policy: str = "logarithmic",
        tier_fanout: int = 4,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        if epsilon < 1:
            raise ValueError("epsilon must be >= 1")
        if merge_policy not in ("logarithmic", "tiered"):
            raise ValueError("merge_policy must be 'logarithmic' or 'tiered'")
        if tier_fanout < 2:
            raise ValueError("tier_fanout must be >= 2")
        self.epsilon = epsilon
        self.buffer_size = buffer_size
        #: Upstream PGM blindly appends (upsert semantics) — the lookup
        #: before insert would erase its LSM write advantage.  Enable only
        #: when strict duplicate rejection is required.
        self.check_duplicates = check_duplicates
        #: "logarithmic" (upstream: binary merging, one run per level) or
        #: "tiered" (size-tiered: up to ``tier_fanout`` similar-size runs
        #: coexist before merging — cheaper writes, costlier lookups).
        self.merge_policy = merge_policy
        self.tier_fanout = tier_fanout
        #: Unsorted write buffer (level 0 of the logarithmic method).
        self._buffer: dict = {}
        #: Sorted runs, newest first; logarithmic keeps one per level
        #: (None = empty level), tiered keeps a flat newest-first list.
        self._runs: List[Optional[_StaticPGM]] = []
        self.merge_count = 0

    # -- build --------------------------------------------------------------

    def _load(self, items: Sequence[Tuple[Key, Value]], ks: Any) -> None:
        self._buffer.clear()
        self._runs = [_StaticPGM(batching.key_list(items),
                                 [v for _, v in items],
                                 self.epsilon, self.meter)] if items else []
        self.meter.charge(ALLOC_NODE)

    # -- lookup ------------------------------------------------------------------

    def lookup(self, key: Key) -> Optional[Value]:
        if key in self._buffer:
            v = self._buffer[key]
            self.last_op = OpRecord(op="lookup", key=key, found=v is not _TOMBSTONE,
                                    nodes_traversed=1)
            return None if v is _TOMBSTONE else v
        self.meter.charge_phased(PHASE_SEARCH, KEY_COMPARE, 1)
        probed = models = probes = lines = 0
        found = False
        v = None
        # Newest run first: LSM shadowing semantics.
        for run in self._runs:
            if run is None or len(run) == 0:
                continue
            probed += 1
            i, m, p, c = run.locate(key)
            models += m
            probes += p
            lines += c
            if i < len(run.keys) and run.keys[i] == key:
                v = run.values[i]
                found = v is not _TOMBSTONE
                break
        _charge_walks(self.meter, models, probes, lines)
        self.last_op = OpRecord(op="lookup", key=key, found=found,
                                nodes_traversed=probed)
        return v if found else None

    def _lookup_batch(self, keys: Sequence[Key]):
        """Vectorized LSM lookup: newest-first run probing with the PLA
        level walk replayed by rank arithmetic per run.

        Each run's ``_search_segments`` condition ``first_key <= key``
        is ``mid < ub`` with ``ub = searchsorted(first_keys, key,
        'right')``, and the leaf window's ``keys[mid] < key`` is
        ``mid < r`` — so probe counts (hence the virtual clock) come out
        exactly equal to the scalar walk.  Ops that hit the buffer or an
        early run deactivate and stop charging, like the scalar early
        exit.
        """
        ks = batching.key_array(keys)
        if ks is None:
            return None
        np = batching._np
        B = len(ks)
        values: List[Optional[Value]] = [None] * B
        found = [False] * B

        def take(at: List[int], hits) -> None:
            for i, v in zip(at, hits):
                if v is not _TOMBSTONE:
                    found[i] = True
                    values[i] = v

        buffer_miss = np.ones(B, dtype=bool)
        if self._buffer:
            buf = self._buffer
            at = [i for i, key in enumerate(keys) if key in buf]
            buffer_miss[at] = False
            take(at, [buf[keys[i]] for i in at])
        active = buffer_miss.copy()
        walked = np.zeros(B, dtype=np.int64)  # levels: MODEL_EVAL, NODE_HOP
        kc = np.zeros(B, dtype=np.int64)
        cp = np.zeros(B, dtype=np.int64)
        probed = np.zeros(B, dtype=np.int64)
        for run in self._runs:
            if run is None or len(run) == 0:
                continue
            if not active.any():
                break
            cache = run.batch_cache()
            if cache is False:
                return None
            keys_np, levels = cache
            idxs = np.flatnonzero(active)
            ksub = ks[idxs]
            eps = run.epsilon
            n_run = len(run.keys)
            seg_idx = np.zeros(len(idxs), dtype=np.int64)
            run_kc = run_cp = 0
            for depth in range(len(levels) - 1, 0, -1):
                (slopes, intercepts, anchors), lower_first = levels[depth]
                sel = np.minimum(seg_idx, len(slopes) - 1)
                lo, hi = batching.window_bounds(
                    slopes[sel], intercepts[sel], anchors[sel], ksub,
                    eps, len(lower_first))
                ub = np.searchsorted(lower_first, ksub, side="right")
                steps = batching.simulate_binary(lo, hi, ub)
                run_kc = run_kc + steps
                run_cp = run_cp + batching.cache_probe_units(steps)
                seg_idx = np.maximum(np.clip(ub, lo, hi) - 1, 0)
            (slopes, intercepts, anchors), _ = levels[0]
            lo, hi = batching.window_bounds(
                slopes[seg_idx], intercepts[seg_idx], anchors[seg_idx],
                ksub, eps, n_run)
            r = np.searchsorted(keys_np, ksub, side="left")
            steps = batching.simulate_binary(lo, hi, r)
            probed[idxs] += 1
            walked[idxs] += len(levels)
            kc[idxs] += run_kc + steps
            cp[idxs] += run_cp + batching.cache_probe_units(steps)
            final = np.clip(r, lo, hi)
            hit = (final < n_run) & (
                keys_np[np.minimum(final, n_run - 1)] == ksub)
            at = idxs[hit]
            active[at] = False
            take(at.tolist(), map(run.values.__getitem__, final[hit].tolist()))
        # A key stops counting runs where it hits; a buffer hit walked one.
        nt = np.where(buffer_miss, probed, 1).tolist()
        log = batching.ChargeLog(B)
        traversed = probed > 0
        log.add(PHASE_SEARCH, KEY_COMPARE, np.ones(B, dtype=np.int64),
                reached=buffer_miss)
        log.add(PHASE_TRAVERSE, MODEL_EVAL, walked, reached=traversed)
        log.add(PHASE_TRAVERSE, NODE_HOP, walked, reached=traversed)
        log.add(PHASE_TRAVERSE, KEY_COMPARE, kc, reached=traversed)
        log.add(PHASE_TRAVERSE, CACHE_PROBE, cp, reached=cp > 0)

        def make_record(i: int) -> OpRecord:
            return OpRecord(op="lookup", key=keys[i], found=found[i],
                            nodes_traversed=nt[i])

        return batching.BatchLookup(values, log, make_record)

    # -- insert ------------------------------------------------------------------

    def insert(self, key: Key, value: Value) -> bool:
        if self.check_duplicates and self.lookup(key) is not None:
            self.last_op = OpRecord(op="insert", key=key, found=True)
            return False
        self._put(key, value)
        self._size += 1
        return True

    def _put(self, key: Key, value: Value) -> None:
        self._buffer[key] = value
        self.meter.charge_phased(PHASE_COLLISION, KEY_SHIFT, 1)
        smo = False
        if len(self._buffer) >= self.buffer_size:
            with self.meter.phase(PHASE_SMO):
                self._merge_down()
            smo = True
        self.last_op = OpRecord(op="insert", key=key, smo=smo, nodes_created=1 if smo else 0)

    def insert_many(self, pairs: Sequence[Tuple[Key, Value]]) -> List[bool]:
        """Batched blind inserts: the buffer is filled a chunk at a
        time, each chunk ending exactly where the scalar loop's
        ``len(_buffer) >= buffer_size`` check would flush.

        A key adds at most one buffer entry (a key repeated in the
        batch, or already buffered, adds none), so a chunk of
        ``buffer_size - len(_buffer)`` pairs can reach the flush point
        only with its last pair — the same merges run at the same ops
        as in the loop, and each chunk's ``KEY_SHIFT`` units are one
        integer charge.  With ``check_duplicates`` every insert is
        preceded by a lookup whose charges interleave, so that mode
        keeps the loop default.
        """
        if self.check_duplicates:
            return super().insert_many(pairs)
        pairs = list(pairs)
        n = len(pairs)
        buf = self._buffer
        smo = False  # whether the chunk's last op ran a merge
        pos = 0
        while pos < n:
            end = min(n, pos + max(1, self.buffer_size - len(buf)))
            buf.update(pairs[pos:end])
            self.meter.charge_phased(PHASE_COLLISION, KEY_SHIFT, end - pos)
            pos = end
            smo = len(buf) >= self.buffer_size
            if smo:
                with self.meter.phase(PHASE_SMO):
                    self._merge_down()
        self._size += n
        if n:
            self.last_op = OpRecord(op="insert", key=pairs[-1][0], smo=smo,
                                    nodes_created=1 if smo else 0)
        return [True] * n

    def _merge_down(self) -> None:
        """Flush the buffer according to the configured merge policy."""
        self.merge_count += 1
        keys = sorted(self._buffer)
        values = list(map(self._buffer.__getitem__, keys))
        self._buffer.clear()
        if self.merge_policy == "tiered":
            self._merge_down_tiered(keys, values)
            return
        level = 0
        while True:
            if level >= len(self._runs):
                self._runs.append(None)
            run = self._runs[level]
            capacity = self.buffer_size * (2 ** level)
            if run is None or len(run) == 0:
                if len(keys) <= capacity:
                    self._runs[level] = _StaticPGM(keys, values, self.epsilon,
                                                   self.meter)
                    self.meter.charge(ALLOC_NODE)
                    self.meter.charge(KEY_SHIFT, len(keys))
                    return
                level += 1
                continue
            # Merge and carry to the next level.
            keys, values = _merge_columns(run.keys, run.values, keys, values)
            self._runs[level] = None
            self.meter.charge(KEY_SHIFT, len(keys))
            level += 1

    def _merge_down_tiered(self, keys: List[Key], values: List[Value]) -> None:
        """Size-tiered compaction: up to ``tier_fanout`` similar-size
        runs coexist; overflowing a size bucket merges that bucket."""
        self._runs.insert(0, _StaticPGM(keys, values, self.epsilon, self.meter))
        self.meter.charge(ALLOC_NODE)
        self.meter.charge(KEY_SHIFT, len(keys))
        while True:
            buckets: dict = {}
            for idx, run in enumerate(self._runs):
                if run is None or len(run) == 0:
                    continue
                buckets.setdefault(max(len(run), 1).bit_length() // 2, []).append(idx)
            victims = next(
                (idxs for idxs in buckets.values() if len(idxs) >= self.tier_fanout),
                None,
            )
            if victims is None:
                return
            # K-way merge, newest run wins on key ties: fold the victims
            # oldest first so each newer run shadows the rest.
            victims.sort()
            oldest = self._runs[victims[-1]]
            keys, values = oldest.keys, oldest.values
            for idx in reversed(victims[:-1]):
                run = self._runs[idx]
                keys, values = _merge_columns(keys, values, run.keys, run.values)
            self.meter.charge(
                KEY_SHIFT, sum(len(self._runs[idx]) for idx in victims))
            # The merged run takes the oldest victim's position, keeping
            # newest-first shadowing intact for the survivors.
            new_run = _StaticPGM(keys, values, self.epsilon, self.meter)
            self.meter.charge(ALLOC_NODE)
            keep = [r for i, r in enumerate(self._runs) if i not in set(victims)]
            keep.insert(
                sum(1 for i in range(victims[-1]) if i not in set(victims)), new_run
            )
            self._runs = keep

    # -- update / delete -----------------------------------------------------------

    def update(self, key: Key, value: Value) -> bool:
        if self.lookup(key) is None:
            return False
        self._put(key, value)
        return True

    def delete(self, key: Key) -> bool:
        if self.lookup(key) is None:
            self.last_op = OpRecord(op="delete", key=key, found=False)
            return False
        self._put(key, _TOMBSTONE)
        self._size -= 1
        # The tombstone's flush, if it ran one, is this delete's SMO.
        put = self.last_op
        self.last_op = OpRecord(op="delete", key=key, found=True, smo=put.smo,
                                nodes_created=put.nodes_created)
        return True

    # -- scans -----------------------------------------------------------------

    def range_scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        """K-way merge across the buffer and every run."""
        out: List[Tuple[Key, Value]] = []
        cursors: List[Tuple[int, int]] = []  # (run_idx, position)
        runs = [r for r in self._runs if r is not None and len(r) > 0]
        positions: List[int] = []
        models = probes = lines = 0
        for run in runs:
            i, m, p, c = run.locate(start)
            positions.append(i)
            models += m
            probes += p
            lines += c
        _charge_walks(self.meter, models, probes, lines)
        buf = sorted((k, v) for k, v in self._buffer.items() if k >= start)
        bi = merged = 0
        seen = set()
        while len(out) < count:
            best_key = None
            best_src = -2  # -1 = buffer, else run index
            if bi < len(buf):
                best_key, best_src = buf[bi][0], -1
            for ri, run in enumerate(runs):
                p = positions[ri]
                if p < len(run.keys):
                    k = run.keys[p]
                    if best_key is None or k < best_key:
                        best_key, best_src = k, ri
            if best_key is None:
                break
            merged += 1
            if best_src == -1:
                k, v = buf[bi]
                bi += 1
            else:
                p = positions[best_src]
                k, v = runs[best_src].keys[p], runs[best_src].values[p]
                positions[best_src] = p + 1
            if k in seen:
                continue
            seen.add(k)
            if v is not _TOMBSTONE:
                out.append((k, v))
        if merged:
            self.meter.charge(SCAN_ENTRY, merged)
        return out

    # -- memory -----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        leaf = len(self._buffer) * (KEY_BYTES + PAYLOAD_BYTES) * 2  # hash slack
        inner = 0
        for run in self._runs:
            if run is None:
                continue
            leaf += len(run.keys) * (KEY_BYTES + PAYLOAD_BYTES)
            inner += run.segment_count() * _SEGMENT_BYTES
        return MemoryBreakdown(inner=inner, leaf=leaf)

    # -- introspection ------------------------------------------------------------

    def run_sizes(self) -> List[int]:
        return [len(r) if r is not None else 0 for r in self._runs]

    # -- validation ---------------------------------------------------------------

    def debug_validate(self) -> List[Violation]:
        """LSM/PLA invariants: every run's packed keys strictly sorted,
        each PLA level a contiguous partition of the level below with
        matching ``first_key`` anchors and a single top segment, every
        segment's residual within its ε bound, and (in strict-duplicate
        mode) live-key accounting across buffer-over-runs shadowing.
        ``node_id`` reports the run's position in ``_runs``.  Walks
        arrays directly; never charges the meter.
        """
        out: List[Violation] = []
        for ri, run in enumerate(self._runs):
            if run is None or len(run) == 0:
                continue
            out.extend(sorted_violations(
                run.keys, ri, "pgm.run-sorted"))
            if not run.levels:
                out.append(Violation(
                    ri, "pgm.levels", "non-empty run has no PLA levels"))
                continue
            if len(run.levels[-1]) != 1:
                out.append(Violation(
                    ri, "pgm.levels",
                    f"top level has {len(run.levels[-1])} segments, "
                    f"expected 1"))
            base: List[Key] = run.keys
            for depth, level in enumerate(run.levels):
                out.extend(segment_partition_violations(
                    level, len(base), ri, "pgm.levels"))
                for seg in level:
                    if (seg.first_index < len(base)
                            and seg.first_key != base[seg.first_index]):
                        out.append(Violation(
                            ri, "pgm.levels",
                            f"level {depth} segment anchors first_key "
                            f"{seg.first_key} but rank {seg.first_index} "
                            f"holds {base[seg.first_index]}"))
                        break
                    out.extend(residual_violations(
                        seg.model,
                        base[seg.first_index:seg.first_index + seg.length],
                        seg.first_index, run.epsilon, ri, "pgm.epsilon"))
                base = [seg.first_key for seg in level]
        if self.check_duplicates:
            # Newest-first shadowing: buffer wins, then shallower runs.
            live: dict = {}
            for k, v in self._buffer.items():
                live.setdefault(k, v)
            for run in self._runs:
                if run is None:
                    continue
                for k, v in zip(run.keys, run.values):
                    live.setdefault(k, v)
            count = sum(1 for v in live.values() if v is not _TOMBSTONE)
            if count != self._size:
                out.append(Violation(
                    0, "pgm.size",
                    f"{count} live keys after shadowing but len(index) "
                    f"== {self._size}"))
        return out
