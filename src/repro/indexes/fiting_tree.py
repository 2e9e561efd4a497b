"""FITing-Tree (Galakatos et al., SIGMOD 2019).

The paper *describes* FITing-Tree (error-driven segmentation + per-
segment insert buffers, Section 2) but excludes it from the evaluation
because no open-source implementation exists.  This reproduction builds
it from the paper's description so the comparison the authors could not
run becomes possible:

* leaves are ε-bounded linear segments over a sorted array (we use the
  same optimal PLA machinery as PGM; FITing-Tree's greedy shrinking-
  cone segmentation yields within-2x the same segments),
* each segment owns a fixed-size *insert buffer*; lookups check the
  segment (model ± ε) then the buffer,
* a full buffer triggers a merge-and-resegment of that leaf only
  ("delta-merge" granularity between XIndex's per-group and FINEdex's
  per-record),
* segments are routed by a B+-tree over their first keys, as in the
  original design.

Not part of the paper's figures; exercised by the test suite and
available to the CLI/benchmarks for what-if comparisons.
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
    charge_binary_search,
)
from repro.core.hardness import optimal_pla
from repro.core.validate import (
    Violation,
    range_violation,
    residual_violations,
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
from repro.indexes import batching
from repro.indexes.btree import BPlusTree
from repro.indexes.linear_model import LinearModel

_SEGMENT_HEADER_BYTES = 56


class _FitSegment:
    __slots__ = ("node_id", "first_key", "keys", "values", "model",
                 "buf_keys", "buf_values")

    def __init__(self, node_id: int, first_key: Key) -> None:
        self.node_id = node_id
        self.first_key = first_key
        self.keys: List[Key] = []
        self.values: List[Value] = []
        self.model = LinearModel()
        self.buf_keys: List[Key] = []
        self.buf_values: List[Value] = []


class FITingTree(OrderedIndex):
    """FITing-Tree with ε = 32 (matching the paper's error-driven peers)."""

    name = "FITing-Tree"
    is_learned = True
    supports_delete = False  # as scoped by the original paper's evaluation
    supports_range = True

    def __init__(self, epsilon: int = 32, buffer_size: int = 32, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.epsilon = epsilon
        self.buffer_size = buffer_size
        self._segments: List[_FitSegment] = [_FitSegment(self._next_node_id(), 0)]
        #: Inner routing structure: a B+-tree over segment first keys.
        self._router = BPlusTree(fanout=32, meter=self.meter)
        self._router.bulk_load([(0, 0)])
        self.merge_count = 0
        #: Batch-lookup tables; ``None`` = stale (see ``_batch_tables``).
        self._batch_cache: Any = None

    # -- build --------------------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        self._invalidate_batch_cache()
        self.check_sorted(items)
        self._segments = self._segment_items(list(items))
        self._segments[0].first_key = 0
        self._rebuild_router()
        self._size = len(items)

    def _segment_items(self, items: List[Tuple[Key, Value]]) -> List[_FitSegment]:
        if not items:
            return [_FitSegment(self._next_node_id(), 0)]
        keys = [k for k, _ in items]
        plas = optimal_pla(keys, self.epsilon)
        self.meter.charge(TRAIN_KEY, len(keys))
        out: List[_FitSegment] = []
        for pla in plas:
            seg = _FitSegment(self._next_node_id(), pla.first_key)
            lo, hi = pla.first_index, pla.first_index + pla.length
            seg.keys = keys[lo:hi]
            seg.values = [v for _, v in items[lo:hi]]
            seg.model = LinearModel(pla.model.slope, pla.model.intercept - lo,
                                    pla.model.anchor)
            out.append(seg)
            self.meter.charge(ALLOC_NODE)
        return out

    def _rebuild_router(self) -> None:
        self._router = BPlusTree(fanout=32, meter=self.meter)
        self._router.bulk_load(
            [(seg.first_key, i) for i, seg in enumerate(self._segments)]
        )

    # -- routing ------------------------------------------------------------------

    def _find_segment(self, key: Key) -> Tuple[int, _FitSegment]:
        # B+-tree routing: find the last segment pivot <= key.
        pivots = [s.first_key for s in self._segments]
        self.meter.charge(NODE_HOP, max(1, self._router.height - 1))
        i = bisect.bisect_right(pivots, key) - 1
        self.meter.charge(KEY_COMPARE, max(1, len(pivots).bit_length()))
        i = max(i, 0)
        return i, self._segments[i]

    def _segment_lower_bound(self, seg: _FitSegment, key: Key) -> int:
        n = len(seg.keys)
        if n == 0:
            return 0
        self.meter.charge(MODEL_EVAL)
        pred = int(seg.model.predict(key))
        hi = max(min(pred + self.epsilon + 2, n), 0)
        lo = min(max(pred - self.epsilon - 1, 0), hi)
        probes = 0
        while lo < hi:
            probes += 1
            mid = (lo + hi) // 2
            if seg.keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        charge_binary_search(self.meter, probes)
        return lo

    # -- operations ---------------------------------------------------------------

    def lookup(self, key: Key) -> Optional[Value]:
        with self.meter.phase(PHASE_TRAVERSE):
            _, seg = self._find_segment(key)
            self.meter.charge(NODE_HOP)
        with self.meter.phase(PHASE_SEARCH):
            i = self._segment_lower_bound(seg, key)
            if i < len(seg.keys) and seg.keys[i] == key:
                self.last_op = OpRecord(op="lookup", key=key, found=True,
                                        path=[seg.node_id], nodes_traversed=2)
                return seg.values[i]
            self.meter.charge(NODE_HOP)  # buffer is a separate allocation
            j = bisect.bisect_left(seg.buf_keys, key)
            self.meter.charge(KEY_COMPARE, max(1, len(seg.buf_keys).bit_length()))
            if j < len(seg.buf_keys) and seg.buf_keys[j] == key:
                self.last_op = OpRecord(op="lookup", key=key, found=True,
                                        path=[seg.node_id], nodes_traversed=2)
                return seg.buf_values[j]
        self.last_op = OpRecord(op="lookup", key=key, found=False,
                                path=[seg.node_id], nodes_traversed=2)
        return None

    def _batch_tables(self):
        """Index-wide arrays for the batch path: segment pivots, the
        concatenated trained/buffered key arrays, per-segment model
        parameters, and the router's constant per-op charges.  Rebuilt
        lazily after any mutation; ``False`` when unusable."""
        cache = self._batch_cache
        if cache is None:
            segs = self._segments
            if any(not seg.keys for seg in segs):
                # Only a pre-bulk-load index has empty segments; their
                # charge order differs (no window search), so bail.
                cache = self._batch_cache = False
                return cache
            pivots = batching.int64_cache([s.first_key for s in segs])
            models = batching.model_arrays([s.model for s in segs])
            main = batching.ConcatTable.build([s.keys for s in segs])
            buf = batching.ConcatTable.build([s.buf_keys for s in segs])
            if pivots is None or models is None or main is None or buf is None:
                cache = self._batch_cache = False
                return cache
            nh_const = max(1, self._router.height - 1) + 1
            kc_const = max(1, len(segs).bit_length())
            node_ids = [s.node_id for s in segs]
            cache = self._batch_cache = (
                pivots, models, main, buf, nh_const, kc_const, node_ids)
        return cache

    def _lookup_batch(self, keys: Sequence[Key]):
        """Vectorized lookup: route all keys with one ``searchsorted``
        over the segment pivots, replay every segment's ±ε window
        search by rank arithmetic over the concatenated key arrays, and
        probe the (concatenated) insert buffers the same way."""
        ks = batching.key_array(keys)
        if ks is None:
            return None
        cache = self._batch_tables()
        if cache is False:
            return None
        pivots, (slopes, intercepts, anchors), main, buf, nh_const, \
            kc_const, node_ids = cache
        np = batching._np
        B = len(ks)
        si = np.maximum(np.searchsorted(pivots, ks, side="right") - 1, 0)
        lens = main.lens[si]
        lo, hi = batching.window_bounds(
            slopes[si], intercepts[si], anchors[si], ks, self.epsilon, lens)
        r = main.rank_local(ks, si)
        probes = batching.simulate_binary(lo, hi, r)
        cp = batching.cache_probe_units(probes)
        i = np.clip(r, lo, hi)
        in_main = (i < lens) & (
            main.cat[np.minimum(main.offsets[si] + i, len(main.cat) - 1)]
            == ks)
        miss = ~in_main
        if len(buf.cat):
            rb = buf.rank_local(ks, si)
            in_buf = miss & (rb < buf.lens[si]) & (
                buf.cat[np.minimum(buf.offsets[si] + rb,
                                   len(buf.cat) - 1)] == ks)
        else:
            rb = np.zeros(B, dtype=np.int64)
            in_buf = np.zeros(B, dtype=bool)
        kc = probes + np.where(miss, buf.bl[si], 0)
        values: List[Optional[Value]] = [None] * B
        segs = self._segments
        for j in np.flatnonzero(in_main):
            values[j] = segs[int(si[j])].values[int(i[j])]
        for j in np.flatnonzero(in_buf):
            values[j] = segs[int(si[j])].buf_values[int(rb[j])]
        found = (in_main | in_buf).tolist()
        si_list = si.tolist()
        log = batching.ChargeLog(B)
        log.add(PHASE_TRAVERSE, NODE_HOP, nh_const)
        log.add(PHASE_TRAVERSE, KEY_COMPARE, kc_const)
        log.add(PHASE_SEARCH, MODEL_EVAL, 1)
        log.add(PHASE_SEARCH, KEY_COMPARE, kc)
        log.add(PHASE_SEARCH, CACHE_PROBE, cp, reached=cp > 0)
        log.add(PHASE_SEARCH, NODE_HOP, np.ones(B, dtype=np.int64),
                reached=miss)

        def make_record(i: int) -> OpRecord:
            return OpRecord(op="lookup", key=keys[i], found=found[i],
                            path=[node_ids[si_list[i]]], nodes_traversed=2)

        return batching.BatchLookup(values, log, make_record)

    def insert(self, key: Key, value: Value) -> bool:
        with self.meter.phase(PHASE_TRAVERSE):
            si, seg = self._find_segment(key)
            self.meter.charge(NODE_HOP)
        with self.meter.phase(PHASE_SEARCH):
            i = self._segment_lower_bound(seg, key)
            if i < len(seg.keys) and seg.keys[i] == key:
                self.last_op = OpRecord(op="insert", key=key, found=True,
                                        path=[seg.node_id], nodes_traversed=2)
                return False
            j = bisect.bisect_left(seg.buf_keys, key)
            if j < len(seg.buf_keys) and seg.buf_keys[j] == key:
                self.last_op = OpRecord(op="insert", key=key, found=True,
                                        path=[seg.node_id], nodes_traversed=2)
                return False
        shifted = len(seg.buf_keys) - j
        self._invalidate_batch_cache()
        with self.meter.phase(PHASE_COLLISION):
            seg.buf_keys.insert(j, key)
            seg.buf_values.insert(j, value)
            self.meter.charge(KEY_SHIFT, shifted)
        smo = False
        created = 0
        if len(seg.buf_keys) > self.buffer_size:
            with self.meter.phase(PHASE_SMO):
                created = self._merge_segment(si)
            smo = True
        self._size += 1
        self.last_op = OpRecord(
            op="insert", key=key, path=[seg.node_id], nodes_traversed=2,
            keys_shifted=shifted, smo=smo, nodes_created=created,
        )
        return True

    def _merge_segment(self, si: int) -> int:
        """Merge a full buffer into its segment and re-segment locally."""
        self.merge_count += 1
        seg = self._segments[si]
        merged: List[Tuple[Key, Value]] = []
        a = b = 0
        while a < len(seg.keys) and b < len(seg.buf_keys):
            if seg.keys[a] <= seg.buf_keys[b]:
                merged.append((seg.keys[a], seg.values[a]))
                a += 1
            else:
                merged.append((seg.buf_keys[b], seg.buf_values[b]))
                b += 1
        merged.extend(zip(seg.keys[a:], seg.values[a:]))
        merged.extend(zip(seg.buf_keys[b:], seg.buf_values[b:]))
        self.meter.charge(KEY_SHIFT, len(merged))
        new_segments = self._segment_items(merged)
        new_segments[0].first_key = seg.first_key
        self._segments[si : si + 1] = new_segments
        # Router update: re-bulk (routing keys changed).
        self.meter.charge(KEY_SHIFT, len(self._segments) - si)
        self._rebuild_router()
        return len(new_segments)

    def update(self, key: Key, value: Value) -> bool:
        _, seg = self._find_segment(key)
        i = self._segment_lower_bound(seg, key)
        if i < len(seg.keys) and seg.keys[i] == key:
            seg.values[i] = value
            self.meter.charge(KEY_SHIFT)
            return True
        j = bisect.bisect_left(seg.buf_keys, key)
        if j < len(seg.buf_keys) and seg.buf_keys[j] == key:
            seg.buf_values[j] = value
            self.meter.charge(KEY_SHIFT)
            return True
        return False

    # -- scans -----------------------------------------------------------------

    def range_scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        out: List[Tuple[Key, Value]] = []
        with self.meter.phase(PHASE_TRAVERSE):
            si, _ = self._find_segment(start)
        tally: Dict[str, int] = {}
        for s in range(si, len(self._segments)):
            seg = self._segments[s]
            i = self._segment_lower_bound(seg, start) if s == si else 0
            j = bisect.bisect_left(seg.buf_keys, start) if s == si else 0
            rows = len(out)
            while len(out) < count and (i < len(seg.keys) or j < len(seg.buf_keys)):
                take_main = j >= len(seg.buf_keys) or (
                    i < len(seg.keys) and seg.keys[i] <= seg.buf_keys[j]
                )
                if take_main:
                    out.append((seg.keys[i], seg.values[i]))
                    i += 1
                else:
                    out.append((seg.buf_keys[j], seg.buf_values[j]))
                    j += 1
            if len(out) > rows:
                tally[SCAN_ENTRY] = tally.get(SCAN_ENTRY, 0) + len(out) - rows
            if len(out) >= count:
                break
            if s + 1 < len(self._segments):
                tally[NODE_HOP] = tally.get(NODE_HOP, 0) + 1
        self._charge_tally(tally)
        return out

    # -- memory -----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        inner = self._router.memory_usage().total
        leaf = 0
        for seg in self._segments:
            leaf += _SEGMENT_HEADER_BYTES
            leaf += len(seg.keys) * (KEY_BYTES + PAYLOAD_BYTES)
            leaf += self.buffer_size * (KEY_BYTES + PAYLOAD_BYTES)  # buffer arena
        return MemoryBreakdown(inner=inner, leaf=leaf)

    def debug_validate(self) -> List[Violation]:
        """Segment/buffer invariants plus full validation of the inner
        routing B+-tree: strictly increasing pivots anchored at 0,
        trained and buffered arrays sorted and within the pivot range,
        buffers within ``buffer_size`` (an overflow must have merged),
        no key both trained and buffered, ε-bounded model residuals,
        and the router's leaves mirroring the segment pivot list
        exactly.  Router violations are re-reported under their
        ``btree.*`` rule names.  Never charges the meter.
        """
        out: List[Violation] = []
        segs = self._segments
        if not segs:
            return [Violation(0, "fiting.pivot-order",
                              "index has no segments at all")]
        if segs[0].first_key != 0:
            out.append(Violation(
                segs[0].node_id, "fiting.pivot-order",
                f"first pivot is {segs[0].first_key}, expected 0"))
        out.extend(sorted_violations(
            [s.first_key for s in segs], 0, "fiting.pivot-order",
            what="pivots"))
        total = 0
        for si, seg in enumerate(segs):
            hi = segs[si + 1].first_key if si + 1 < len(segs) else None
            out.extend(sorted_violations(
                seg.keys, seg.node_id, "fiting.keys-sorted"))
            out.extend(sorted_violations(
                seg.buf_keys, seg.node_id, "fiting.buffer-sorted",
                what="buf_keys"))
            for keys in (seg.keys, seg.buf_keys):
                out.extend(range_violation(
                    keys, seg.first_key, hi, seg.node_id,
                    "fiting.key-range"))
            if (len(seg.keys) != len(seg.values)
                    or len(seg.buf_keys) != len(seg.buf_values)):
                out.append(Violation(
                    seg.node_id, "fiting.arrays",
                    "key and value arrays have different lengths"))
            if len(seg.buf_keys) > self.buffer_size:
                out.append(Violation(
                    seg.node_id, "fiting.buffer-bound",
                    f"buffer holds {len(seg.buf_keys)} > buffer_size "
                    f"{self.buffer_size} (missed merge)"))
            dup = set(seg.keys) & set(seg.buf_keys)
            if dup:
                out.append(Violation(
                    seg.node_id, "fiting.buffer-shadow",
                    f"key(s) {sorted(dup)[:3]} both trained and "
                    f"buffered"))
            if seg.keys:
                out.extend(residual_violations(
                    seg.model, seg.keys, 0, self.epsilon, seg.node_id,
                    "fiting.epsilon"))
            total += len(seg.keys) + len(seg.buf_keys)
        if total != self._size:
            out.append(Violation(
                0, "fiting.size",
                f"segments hold {total} keys but len(index) == "
                f"{self._size}"))
        # The router is itself an OrderedIndex: validate it in full,
        # then check it stays in sync with the segment list.
        out.extend(self._router.debug_validate())
        router_keys: List[Key] = []
        leaf = self._router._root
        while hasattr(leaf, "children"):  # descend to the leftmost leaf
            leaf = leaf.children[0]
        while leaf is not None:
            router_keys.extend(leaf.keys)
            leaf = leaf.next
        if router_keys != [s.first_key for s in segs]:
            out.append(Violation(
                0, "fiting.router-sync",
                f"router holds {len(router_keys)} pivots but the index "
                f"has {len(segs)} segments (or pivots differ)"))
        return out

    def segment_count(self) -> int:
        return len(self._segments)
