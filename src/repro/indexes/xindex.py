"""XIndex (Tang et al., PPoPP 2020) — delta-merge learned index.

Two-layer structure: a root that routes to *groups*; each group owns a
sorted data array approximated by up to ``max_models_per_group`` linear
models (error bound 32, Table 1) and a per-group *delta* absorbing
inserts.  When a delta fills up, the group *compacts*: delta and data
are merged and the models retrained.

Upstream XIndex performs compaction on a background thread; the paper
pins that thread to the same core as the workers (same CPU budget for
every index) and shows the resulting context-switch/merge cost as
XIndex's signature tail-latency blow-up (Figures 10–11).  We reproduce
that execution model faithfully for a single CPU: the merge runs inline
and its full cost lands on the unlucky triggering operation — exactly
what a pinned background thread does to the foreground latency
distribution.  The concurrency adapter models the RCU handshake.

Deletes are not part of the paper's XIndex evaluation (Figure 7
excludes it); updates are in-place.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
from repro.core.validate import (
    Violation,
    range_violation,
    residual_violations,
    segment_partition_violations,
    sorted_violations,
)
from repro.indexes.base import (
    KEY_BYTES,
    PAYLOAD_BYTES,
    POINTER_BYTES,
    Key,
    MemoryBreakdown,
    OpRecord,
    OrderedIndex,
    Value,
)
from repro.indexes import batching
from repro.indexes.linear_model import LinearModel

_GROUP_HEADER_BYTES = 64
_MODEL_BYTES = 24


class _Group:
    __slots__ = ("node_id", "pivot", "keys", "values", "segments", "delta_keys", "delta_values")

    def __init__(self, node_id: int, pivot: Key) -> None:
        self.node_id = node_id
        self.pivot = pivot
        self.keys: List[Key] = []
        self.values: List[Value] = []
        self.segments: List[Segment] = []
        self.delta_keys: List[Key] = []
        self.delta_values: List[Value] = []


class XIndex(OrderedIndex):
    """XIndex with the paper's Table-1 configuration."""

    name = "XIndex"
    is_learned = True
    supports_delete = False
    supports_range = True

    def __init__(
        self,
        epsilon: int = 32,
        delta_size: int = 256,
        max_models_per_group: int = 4,
        target_group_keys: int = 1024,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self.epsilon = epsilon
        self.delta_size = delta_size
        self.max_models_per_group = max_models_per_group
        self.target_group_keys = target_group_keys
        self._groups: List[_Group] = [_Group(self._next_node_id(), 0)]
        self._root_model = LinearModel()
        self.compaction_count = 0
        #: Virtual time the last compaction cost — tail-latency benches
        #: read this to attribute merge spikes.
        self.last_compaction_cost = 0.0
        #: Batch-lookup tables; ``None`` = stale (see ``_batch_tables``).
        self._batch_cache: Any = None

    # -- build --------------------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        self.check_sorted(items)
        self._invalidate_batch_cache()
        self._groups = []
        for start in range(0, len(items), self.target_group_keys):
            chunk = items[start : start + self.target_group_keys]
            g = _Group(self._next_node_id(), chunk[0][0] if start else 0)
            g.keys = [k for k, _ in chunk]
            g.values = [v for _, v in chunk]
            self._retrain_group(g)
            self._groups.append(g)
            self.meter.charge(ALLOC_NODE)
        if not self._groups:
            self._groups = [_Group(self._next_node_id(), 0)]
        self._train_root()
        self._size = len(items)

    def _train_root(self) -> None:
        pivots = [g.pivot for g in self._groups]
        self._root_model = LinearModel.train(pivots)
        self.meter.charge(TRAIN_KEY, len(pivots))

    def _retrain_group(self, g: _Group) -> None:
        g.segments = optimal_pla(g.keys, self.epsilon) if g.keys else []
        self.meter.charge(TRAIN_KEY, len(g.keys))

    # -- routing ------------------------------------------------------------------

    def _find_group(self, key: Key) -> Tuple[int, _Group]:
        # Root structure access (upstream: a 2-level RMI) is a pointer
        # chase of its own before the group node is reached.
        self.meter.charge(NODE_HOP)
        self.meter.charge(MODEL_EVAL)
        n = len(self._groups)
        hint = self._root_model.predict_clamped(key, n)
        # Local search around the root model's prediction.
        i = hint
        probes = 1
        while i > 0 and self._groups[i].pivot > key:
            i -= 1
            probes += 1
        while i + 1 < n and self._groups[i + 1].pivot <= key:
            i += 1
            probes += 1
        self.meter.charge(KEY_COMPARE, probes)
        return i, self._groups[i]

    def _group_lower_bound(self, g: _Group, key: Key) -> int:
        """Model-guided lower bound in the group's main array."""
        if not g.keys:
            return 0
        # Pick the segment (≤ 4, so a short scan).
        seg = g.segments[0]
        scanned = 0
        for s in g.segments:
            scanned += 1
            if s.first_key <= key:
                seg = s
            else:
                break
        pred = int(seg.model.predict(key))
        keys = g.keys
        n = len(keys)
        hi = max(min(pred + self.epsilon + 2, n), 0)
        lo = min(max(pred - self.epsilon - 1, 0), hi)
        probes = 0
        while lo < hi:
            probes += 1
            mid = (lo + hi) // 2
            if keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        # Segment scan + window search compares, then the model; cold
        # lines by charge_binary_search's rule.
        charge = self.meter.charge
        charge(KEY_COMPARE, scanned + probes)
        charge(MODEL_EVAL)
        if probes > 3:
            charge(CACHE_PROBE, probes - 3)
        return lo

    # -- operations ---------------------------------------------------------------

    def lookup(self, key: Key) -> Optional[Value]:
        with self.meter.phase(PHASE_TRAVERSE):
            gi, g = self._find_group(key)
            self.meter.charge(NODE_HOP)
        with self.meter.phase(PHASE_SEARCH):
            i = self._group_lower_bound(g, key)
            if i < len(g.keys) and g.keys[i] == key:
                self.last_op = OpRecord(op="lookup", key=key, found=True,
                                        path=[g.node_id], nodes_traversed=2)
                return g.values[i]
            # Miss in main: probe the delta.
            self.meter.charge(NODE_HOP)
            j = bisect.bisect_left(g.delta_keys, key)
            self.meter.charge(KEY_COMPARE, max(1, len(g.delta_keys).bit_length()))
            if j < len(g.delta_keys) and g.delta_keys[j] == key:
                self.last_op = OpRecord(op="lookup", key=key, found=True,
                                        path=[g.node_id], nodes_traversed=2)
                return g.delta_values[j]
        self.last_op = OpRecord(op="lookup", key=key, found=False,
                                path=[g.node_id], nodes_traversed=2)
        return None

    def _batch_tables(self):
        """Index-wide arrays for the batch path: group pivots, the
        concatenated frozen/delta key arrays, per-(group, segment)
        model parameters, and a padded 2D table of segment first keys
        for the vectorized segment scan.  Rebuilt lazily after any
        mutation; ``False`` when unusable."""
        cache = self._batch_cache
        if cache is None:
            groups = self._groups
            if any(not g.keys for g in groups):
                # Only a pre-bulk-load index has keyless groups; their
                # lower bound short-circuits with no charges, so bail.
                cache = self._batch_cache = False
                return cache
            pivots = batching.int64_cache([g.pivot for g in groups])
            models = batching.model_arrays(
                [s.model for g in groups for s in g.segments])
            main = batching.ConcatTable.build([g.keys for g in groups])
            delta = batching.ConcatTable.build(
                [g.delta_keys for g in groups])
            fks = batching.int64_cache(
                [s.first_key for g in groups for s in g.segments])
            if (pivots is None or models is None or main is None
                    or delta is None or fks is None):
                cache = self._batch_cache = False
                return cache
            np = batching._np
            nm = np.asarray([len(g.segments) for g in groups],
                            dtype=np.int64)
            seg_off = np.zeros(len(groups) + 1, dtype=np.int64)
            np.cumsum(nm, out=seg_off[1:])
            fk2d = np.zeros((len(groups), int(nm.max())), dtype=np.int64)
            for gi, g in enumerate(groups):
                fk2d[gi, : len(g.segments)] = fks[seg_off[gi]:seg_off[gi + 1]]
            node_ids = [g.node_id for g in groups]
            cache = self._batch_cache = (
                pivots, models, main, delta, nm, seg_off, fk2d, node_ids)
        return cache

    def _lookup_batch(self, keys: Sequence[Key]):
        """Vectorized lookup: root-model routing with the hint walk
        replayed as ``1 + |i_final - hint|``, a masked 2D segment scan
        (groups hold at most ~4 models), rank-replayed ±ε window
        searches over the concatenated frozen arrays, and the same
        trick for the per-group deltas."""
        ks = batching.key_array(keys)
        if ks is None:
            return None
        cache = self._batch_tables()
        if cache is False:
            return None
        (pivots, (slopes, intercepts, anchors), main, delta, nm, seg_off,
         fk2d, node_ids) = cache
        np = batching._np
        B = len(ks)
        hint = batching.predict_clamped_vec(
            self._root_model, ks, len(node_ids))
        gi = np.maximum(np.searchsorted(pivots, ks, side="right") - 1, 0)
        t_kc = 1 + np.abs(gi - hint)
        live = (np.arange(fk2d.shape[1], dtype=np.int64)[None, :]
                < nm[gi][:, None])
        c = ((fk2d[gi] <= ks[:, None]) & live).sum(axis=1)
        scan_kc = np.minimum(c + 1, nm[gi])
        chosen = seg_off[gi] + np.maximum(c - 1, 0)
        lens = main.lens[gi]
        lo, hi = batching.window_bounds(
            slopes[chosen], intercepts[chosen], anchors[chosen], ks,
            self.epsilon, lens)
        r = main.rank_local(ks, gi)
        probes = batching.simulate_binary(lo, hi, r)
        cp = batching.cache_probe_units(probes)
        i = np.clip(r, lo, hi)
        in_main = (i < lens) & (
            main.cat[np.minimum(main.offsets[gi] + i, len(main.cat) - 1)]
            == ks)
        miss = ~in_main
        if len(delta.cat):
            rd = delta.rank_local(ks, gi)
            in_delta = miss & (rd < delta.lens[gi]) & (
                delta.cat[np.minimum(delta.offsets[gi] + rd,
                                     len(delta.cat) - 1)] == ks)
        else:
            rd = np.zeros(B, dtype=np.int64)
            in_delta = np.zeros(B, dtype=bool)
        s_kc = scan_kc + probes + np.where(miss, delta.bl[gi], 0)
        values: List[Optional[Value]] = [None] * B
        groups = self._groups
        for j in np.flatnonzero(in_main):
            values[j] = groups[int(gi[j])].values[int(i[j])]
        for j in np.flatnonzero(in_delta):
            values[j] = groups[int(gi[j])].delta_values[int(rd[j])]
        found = (in_main | in_delta).tolist()
        gi_list = gi.tolist()
        log = batching.ChargeLog(B)
        log.add(PHASE_TRAVERSE, NODE_HOP, 2)
        log.add(PHASE_TRAVERSE, MODEL_EVAL, 1)
        log.add(PHASE_TRAVERSE, KEY_COMPARE, t_kc)
        log.add(PHASE_SEARCH, KEY_COMPARE, s_kc)
        log.add(PHASE_SEARCH, MODEL_EVAL, 1)
        log.add(PHASE_SEARCH, CACHE_PROBE, cp, reached=cp > 0)
        log.add(PHASE_SEARCH, NODE_HOP, np.ones(B, dtype=np.int64),
                reached=miss)

        def make_record(i: int) -> OpRecord:
            return OpRecord(op="lookup", key=keys[i], found=found[i],
                            path=[node_ids[gi_list[i]]], nodes_traversed=2)

        return batching.BatchLookup(values, log, make_record)

    def insert(self, key: Key, value: Value) -> bool:
        with self.meter.phase(PHASE_TRAVERSE):
            gi, g = self._find_group(key)
            self.meter.charge(NODE_HOP)
        with self.meter.phase(PHASE_SEARCH):
            i = self._group_lower_bound(g, key)
            if i < len(g.keys) and g.keys[i] == key:
                self.last_op = OpRecord(op="insert", key=key, found=True,
                                        path=[g.node_id], nodes_traversed=2)
                return False
            j = bisect.bisect_left(g.delta_keys, key)
            if j < len(g.delta_keys) and g.delta_keys[j] == key:
                self.last_op = OpRecord(op="insert", key=key, found=True,
                                        path=[g.node_id], nodes_traversed=2)
                return False
        shifted = len(g.delta_keys) - j
        self._invalidate_batch_cache()
        with self.meter.phase(PHASE_COLLISION):
            g.delta_keys.insert(j, key)
            g.delta_values.insert(j, value)
            self.meter.charge(KEY_SHIFT, shifted)
        smo = False
        created = 0
        if len(g.delta_keys) >= self.delta_size:
            with self.meter.phase(PHASE_SMO):
                created = self._compact(gi, g)
            smo = True
        self._size += 1
        self.last_op = OpRecord(
            op="insert", key=key, path=[g.node_id], nodes_traversed=2,
            keys_shifted=shifted, smo=smo, nodes_created=created,
        )
        return True

    def _compact(self, gi: int, g: _Group) -> int:
        """Merge the delta into the main array; split the group if its
        PLA now needs more than ``max_models_per_group`` models."""
        self.compaction_count += 1
        before = self.meter.total_time()
        merged_k: List[Key] = []
        merged_v: List[Value] = []
        a, b = 0, 0
        while a < len(g.keys) and b < len(g.delta_keys):
            if g.keys[a] <= g.delta_keys[b]:
                merged_k.append(g.keys[a])
                merged_v.append(g.values[a])
                a += 1
            else:
                merged_k.append(g.delta_keys[b])
                merged_v.append(g.delta_values[b])
                b += 1
        merged_k.extend(g.keys[a:])
        merged_v.extend(g.values[a:])
        merged_k.extend(g.delta_keys[b:])
        merged_v.extend(g.delta_values[b:])
        self.meter.charge(KEY_SHIFT, len(merged_k))
        g.keys, g.values = merged_k, merged_v
        g.delta_keys, g.delta_values = [], []
        self._retrain_group(g)
        created = 0
        if len(g.segments) > self.max_models_per_group:
            # Error tolerance exceeded: split the group in half.
            mid = len(g.keys) // 2
            right = _Group(self._next_node_id(), g.keys[mid])
            right.keys = g.keys[mid:]
            right.values = g.values[mid:]
            del g.keys[mid:]
            del g.values[mid:]
            self._retrain_group(g)
            self._retrain_group(right)
            self._groups.insert(gi + 1, right)
            self._train_root()
            self.meter.charge(ALLOC_NODE)
            created = 1
        self.last_compaction_cost = self.meter.total_time() - before
        return created

    def update(self, key: Key, value: Value) -> bool:
        _, g = self._find_group(key)
        i = self._group_lower_bound(g, key)
        if i < len(g.keys) and g.keys[i] == key:
            g.values[i] = value
            self.meter.charge(KEY_SHIFT)
            return True
        j = bisect.bisect_left(g.delta_keys, key)
        if j < len(g.delta_keys) and g.delta_keys[j] == key:
            g.delta_values[j] = value
            self.meter.charge(KEY_SHIFT)
            return True
        return False

    # -- scans -----------------------------------------------------------------

    def range_scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        out: List[Tuple[Key, Value]] = []
        with self.meter.phase(PHASE_TRAVERSE):
            gi, g = self._find_group(start)
        first_group = True
        tally: Dict[str, int] = {}  # units per kind, in first-met order
        while gi < len(self._groups) and len(out) < count:
            g = self._groups[gi]
            rows = len(out)
            if first_group:
                i = self._group_lower_bound(g, start)
                j = bisect.bisect_left(g.delta_keys, start)
                first_group = False
            else:
                i = j = 0
            # Two-way merge of main and delta.
            while len(out) < count and (i < len(g.keys) or j < len(g.delta_keys)):
                take_main = j >= len(g.delta_keys) or (
                    i < len(g.keys) and g.keys[i] <= g.delta_keys[j]
                )
                if take_main:
                    out.append((g.keys[i], g.values[i]))
                    i += 1
                else:
                    out.append((g.delta_keys[j], g.delta_values[j]))
                    j += 1
            if len(out) > rows:
                tally[SCAN_ENTRY] = tally.get(SCAN_ENTRY, 0) + len(out) - rows
            gi += 1
            if gi < len(self._groups):
                tally[NODE_HOP] = tally.get(NODE_HOP, 0) + 1
        self._charge_tally(tally)
        return out

    # -- memory -----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        inner = len(self._groups) * (KEY_BYTES + POINTER_BYTES) + _MODEL_BYTES
        leaf = 0
        for g in self._groups:
            leaf += _GROUP_HEADER_BYTES
            leaf += len(g.keys) * (KEY_BYTES + PAYLOAD_BYTES)
            leaf += self.delta_size * (KEY_BYTES + PAYLOAD_BYTES)  # delta arena
            inner += len(g.segments) * _MODEL_BYTES
        return MemoryBreakdown(inner=inner, leaf=leaf)

    # -- introspection ------------------------------------------------------------

    def group_count(self) -> int:
        return len(self._groups)

    # -- validation ---------------------------------------------------------------

    def debug_validate(self) -> List[Violation]:
        """Two-layer invariants: strictly increasing group pivots with
        the first anchored at 0, every key (frozen and delta) inside
        its group's pivot range, sorted frozen and delta arrays with no
        key in both, the delta strictly below ``delta_size`` (a full
        delta must have compacted), PLA segments contiguously
        partitioning each frozen array within the ε bound.  Walks
        groups directly; never charges the meter.
        """
        out: List[Violation] = []
        groups = self._groups
        if not groups:
            return [Violation(0, "xindex.pivot-order",
                              "index has no groups at all")]
        if groups[0].pivot != 0:
            out.append(Violation(
                groups[0].node_id, "xindex.pivot-order",
                f"first pivot is {groups[0].pivot}, expected 0"))
        out.extend(sorted_violations(
            [g.pivot for g in groups], 0, "xindex.pivot-order",
            what="pivots"))
        total = 0
        for gi, g in enumerate(groups):
            hi = groups[gi + 1].pivot if gi + 1 < len(groups) else None
            for keys, what, rule in (
                    (g.keys, "keys", "xindex.keys-sorted"),
                    (g.delta_keys, "delta_keys", "xindex.delta-sorted")):
                out.extend(sorted_violations(
                    keys, g.node_id, rule, what=what))
                out.extend(range_violation(
                    keys, g.pivot, hi, g.node_id, "xindex.key-range"))
            if len(g.keys) != len(g.values):
                out.append(Violation(
                    g.node_id, "xindex.arrays",
                    f"{len(g.keys)} keys vs {len(g.values)} values"))
            if len(g.delta_keys) != len(g.delta_values):
                out.append(Violation(
                    g.node_id, "xindex.arrays",
                    f"{len(g.delta_keys)} delta keys vs "
                    f"{len(g.delta_values)} delta values"))
            if len(g.delta_keys) >= self.delta_size:
                out.append(Violation(
                    g.node_id, "xindex.delta-bound",
                    f"delta holds {len(g.delta_keys)} >= delta_size "
                    f"{self.delta_size} (missed compaction)"))
            dup = set(g.keys) & set(g.delta_keys)
            if dup:
                out.append(Violation(
                    g.node_id, "xindex.delta-shadow",
                    f"key(s) {sorted(dup)[:3]} present in both the "
                    f"frozen array and the delta"))
            out.extend(segment_partition_violations(
                g.segments, len(g.keys), g.node_id, "xindex.segments"))
            for seg in g.segments:
                out.extend(residual_violations(
                    seg.model,
                    g.keys[seg.first_index:seg.first_index + seg.length],
                    seg.first_index, self.epsilon, g.node_id,
                    "xindex.epsilon"))
            total += len(g.keys) + len(g.delta_keys)
        if total != self._size:
            out.append(Violation(
                0, "xindex.size",
                f"groups hold {total} keys but len(index) == "
                f"{self._size}"))
        return out
