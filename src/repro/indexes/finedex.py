"""FINEdex (Li et al., VLDB 2021) — fine-grained delta learned index.

Like XIndex, FINEdex is error-driven (ε = 32) and delta-merge based,
but its delta granularity is one *bin per record* instead of one delta
per group: an inserted key lands in the tiny sorted bin hanging off its
left neighbour in the trained array.  This minimises conflicts between
concurrent writers (each bin is an independent synchronisation unit —
modelled by the concurrency adapter) and allows *local* retraining:
when a bin overflows, only the owning model segment is flattened and
refitted, never the whole structure.

Structure here: a list of :class:`_FineSegment`, each owning a slice of
the key space with its model, packed arrays, and per-record bins; a
plain sorted pivot array routes to segments (upstream uses a small
learned root; the routing cost is metered equivalently).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.cost import (
    ALLOC_NODE,
    CACHE_PROBE,
    charge_binary_search,
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
from repro.core.hardness import optimal_pla
from repro.core.validate import (
    Violation,
    first_inversion,
    range_violation,
    residual_violations,
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

_SEGMENT_HEADER_BYTES = 48
_BIN_ENTRY_BYTES = KEY_BYTES + PAYLOAD_BYTES
_BIN_HEADER_BYTES = 16


class _FineSegment:
    __slots__ = ("node_id", "first_key", "keys", "values", "model", "bins", "bin_entries")

    def __init__(self, node_id: int, first_key: Key) -> None:
        self.node_id = node_id
        self.first_key = first_key
        self.keys: List[Key] = []
        self.values: List[Value] = []
        self.model = LinearModel()
        #: position -> sorted [(key, value)] of inserts landing after
        #: keys[position] (position -1 collects keys below keys[0]).
        self.bins: Dict[int, List[Tuple[Key, Value]]] = {}
        self.bin_entries = 0


class FINEdex(OrderedIndex):
    """FINEdex with the paper's ε = 32 configuration."""

    name = "FINEdex"
    is_learned = True
    supports_delete = False
    supports_range = True

    def __init__(self, epsilon: int = 32, bin_capacity: int = 16, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.epsilon = epsilon
        self.bin_capacity = bin_capacity
        self._segments: List[_FineSegment] = [_FineSegment(self._next_node_id(), 0)]
        self.retrain_count = 0
        #: Batch-lookup tables; ``None`` = stale (see ``_batch_tables``).
        self._batch_cache: Any = None

    # -- build --------------------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[Key, Value]]) -> None:
        self.check_sorted(items)
        self._invalidate_batch_cache()
        self._segments = self._build_segments(list(items))
        # The first segment is the catch-all for keys below every pivot.
        self._segments[0].first_key = 0
        self._size = len(items)

    def _build_segments(self, items: List[Tuple[Key, Value]]) -> List[_FineSegment]:
        if not items:
            return [_FineSegment(self._next_node_id(), 0)]
        keys = [k for k, _ in items]
        plas = optimal_pla(keys, self.epsilon)
        self.meter.charge(TRAIN_KEY, len(keys))
        segments: List[_FineSegment] = []
        for pla in plas:
            seg = _FineSegment(self._next_node_id(), pla.first_key)
            lo, hi = pla.first_index, pla.first_index + pla.length
            seg.keys = keys[lo:hi]
            seg.values = [v for _, v in items[lo:hi]]
            # Rebase the model to segment-local positions.
            seg.model = LinearModel(pla.model.slope, pla.model.intercept - lo, pla.model.anchor)
            segments.append(seg)
            self.meter.charge(ALLOC_NODE)
        return segments

    # -- routing ------------------------------------------------------------------

    def _find_segment(self, key: Key) -> Tuple[int, _FineSegment]:
        # Upstream FINEdex routes through its level-model root: one
        # pointer chase into the root structure plus the model walk.
        self.meter.charge(NODE_HOP)
        self.meter.charge(MODEL_EVAL)
        pivots = [s.first_key for s in self._segments]
        i = bisect.bisect_right(pivots, key) - 1
        self.meter.charge(KEY_COMPARE, max(1, len(pivots).bit_length()))
        i = max(i, 0)
        return i, self._segments[i]

    def _segment_lower_bound(self, seg: _FineSegment, key: Key) -> int:
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
            # Check the bin of the left neighbour.
            self.meter.charge(NODE_HOP)
            bin_ = seg.bins.get(i - 1)
            if bin_:
                j = bisect.bisect_left(bin_, (key,))
                self.meter.charge(KEY_COMPARE, max(1, len(bin_).bit_length()))
                if j < len(bin_) and bin_[j][0] == key:
                    self.last_op = OpRecord(op="lookup", key=key, found=True,
                                            path=[seg.node_id], nodes_traversed=2)
                    return bin_[j][1]
        self.last_op = OpRecord(op="lookup", key=key, found=False,
                                path=[seg.node_id], nodes_traversed=2)
        return None

    def _batch_tables(self):
        """Index-wide arrays for the batch path: segment pivots, the
        concatenated trained key array, and per-segment models.  Bins
        stay in their dicts — the batch path probes them with a scalar
        pass over the misses only.  Rebuilt lazily after any mutation;
        ``False`` when unusable."""
        cache = self._batch_cache
        if cache is None:
            segs = self._segments
            if any(not seg.keys for seg in segs):
                # Only a pre-bulk-load index has keyless segments;
                # their lower bound short-circuits with no charges.
                cache = self._batch_cache = False
                return cache
            pivots = batching.int64_cache([s.first_key for s in segs])
            models = batching.model_arrays([s.model for s in segs])
            main = batching.ConcatTable.build([s.keys for s in segs])
            if pivots is None or models is None or main is None:
                cache = self._batch_cache = False
                return cache
            kc_const = max(1, len(segs).bit_length())
            node_ids = [s.node_id for s in segs]
            cache = self._batch_cache = (
                pivots, models, main, kc_const, node_ids)
        return cache

    def _lookup_batch(self, keys: Sequence[Key]):
        """Vectorized lookup over the trained arrays; per-record bins
        (a dict per segment) are probed scalar, but only for the keys
        that missed the trained array."""
        ks = batching.key_array(keys)
        if ks is None:
            return None
        cache = self._batch_tables()
        if cache is False:
            return None
        pivots, (slopes, intercepts, anchors), main, kc_const, node_ids = \
            cache
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
        values: List[Optional[Value]] = [None] * B
        segs = self._segments
        for j in np.flatnonzero(in_main):
            values[j] = segs[int(si[j])].values[int(i[j])]
        # Scalar bin probe for the misses, mirroring the scalar path's
        # conditional charge (an absent or empty bin charges nothing).
        bin_kc = np.zeros(B, dtype=np.int64)
        found_bin = np.zeros(B, dtype=bool)
        for j in np.flatnonzero(miss):
            seg = segs[int(si[j])]
            bin_ = seg.bins.get(int(i[j]) - 1)
            if bin_:
                bin_kc[j] = max(1, len(bin_).bit_length())
                key = int(ks[j])
                jj = bisect.bisect_left(bin_, (key,))
                if jj < len(bin_) and bin_[jj][0] == key:
                    found_bin[j] = True
                    values[j] = bin_[jj][1]
        kc = probes + bin_kc
        found = (in_main | found_bin).tolist()
        si_list = si.tolist()
        log = batching.ChargeLog(B)
        log.add(PHASE_TRAVERSE, NODE_HOP, 2)
        log.add(PHASE_TRAVERSE, MODEL_EVAL, 1)
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
        # The per-record bin is its own heap allocation: a pointer chase.
        self.meter.charge(NODE_HOP)
        bin_ = seg.bins.setdefault(i - 1, [])
        j = bisect.bisect_left(bin_, (key,))
        if j < len(bin_) and bin_[j][0] == key:
            self.last_op = OpRecord(op="insert", key=key, found=True,
                                    path=[seg.node_id], nodes_traversed=2)
            return False
        self._invalidate_batch_cache()
        with self.meter.phase(PHASE_COLLISION):
            bin_.insert(j, (key, value))
            seg.bin_entries += 1
            self.meter.charge(KEY_SHIFT, len(bin_) - j)
        smo = False
        created = 0
        if len(bin_) > self.bin_capacity:
            with self.meter.phase(PHASE_SMO):
                created = self._retrain_segment(si)
            smo = True
        self._size += 1
        self.last_op = OpRecord(
            op="insert", key=key, path=[seg.node_id], nodes_traversed=2,
            keys_shifted=len(bin_) - j if not smo else 0, smo=smo,
            nodes_created=created,
        )
        return True

    def _retrain_segment(self, si: int) -> int:
        """Flatten one segment's bins and refit locally (may split)."""
        self.retrain_count += 1
        seg = self._segments[si]
        items = list(self._iter_segment(seg))
        self.meter.charge(KEY_SHIFT, len(items))
        new_segments = self._build_segments(items)
        # Preserve the routing pivot so keys between the old pivot and the
        # first retrained key keep resolving to the same place.
        new_segments[0].first_key = seg.first_key
        self._segments[si : si + 1] = new_segments
        return len(new_segments)

    @staticmethod
    def _iter_segment(seg: _FineSegment):
        for b in seg.bins.get(-1, []):
            yield b
        for i in range(len(seg.keys)):
            yield (seg.keys[i], seg.values[i])
            for b in seg.bins.get(i, []):
                yield b

    def update(self, key: Key, value: Value) -> bool:
        _, seg = self._find_segment(key)
        i = self._segment_lower_bound(seg, key)
        if i < len(seg.keys) and seg.keys[i] == key:
            seg.values[i] = value
            self.meter.charge(KEY_SHIFT)
            return True
        bin_ = seg.bins.get(i - 1)
        if bin_:
            j = bisect.bisect_left(bin_, (key,))
            if j < len(bin_) and bin_[j][0] == key:
                bin_[j] = (key, value)
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
            rows = len(out)
            full = False
            for k, v in self._iter_segment(self._segments[s]):
                if k < start:
                    continue
                out.append((k, v))
                if len(out) >= count:
                    full = True
                    break
            if len(out) > rows:
                tally[SCAN_ENTRY] = tally.get(SCAN_ENTRY, 0) + len(out) - rows
            if full:
                break
            if s + 1 < len(self._segments):
                tally[NODE_HOP] = tally.get(NODE_HOP, 0) + 1
        self._charge_tally(tally)
        return out

    # -- memory -----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        inner = len(self._segments) * (KEY_BYTES + POINTER_BYTES)
        leaf = 0
        for seg in self._segments:
            leaf += _SEGMENT_HEADER_BYTES
            leaf += len(seg.keys) * (KEY_BYTES + PAYLOAD_BYTES + POINTER_BYTES)
            for bin_ in seg.bins.values():
                leaf += _BIN_HEADER_BYTES + len(bin_) * _BIN_ENTRY_BYTES
        return MemoryBreakdown(inner=inner, leaf=leaf)

    # -- introspection ------------------------------------------------------------

    def segment_count(self) -> int:
        return len(self._segments)

    # -- validation ---------------------------------------------------------------

    def debug_validate(self) -> List[Violation]:
        """Segment-and-bin invariants: strictly increasing pivots with
        the first anchored at 0, trained arrays sorted and within their
        pivot range, every bin attached to a valid position with its
        contents strictly inside the open interval between the
        neighbouring trained keys, bin sizes within ``bin_capacity``
        (an overflow must have retrained), the ``bin_entries`` counter
        exact, model residuals within ε over the trained keys, and a
        globally sorted merged iteration.  Walks segments directly;
        never charges the meter.
        """
        out: List[Violation] = []
        segs = self._segments
        if not segs:
            return [Violation(0, "finedex.pivot-order",
                              "index has no segments at all")]
        if segs[0].first_key != 0:
            out.append(Violation(
                segs[0].node_id, "finedex.pivot-order",
                f"first pivot is {segs[0].first_key}, expected 0"))
        out.extend(sorted_violations(
            [s.first_key for s in segs], 0, "finedex.pivot-order",
            what="pivots"))
        total = 0
        for si, seg in enumerate(segs):
            hi = segs[si + 1].first_key if si + 1 < len(segs) else None
            out.extend(sorted_violations(
                seg.keys, seg.node_id, "finedex.keys-sorted"))
            out.extend(range_violation(
                seg.keys, seg.first_key, hi, seg.node_id,
                "finedex.key-range"))
            if len(seg.keys) != len(seg.values):
                out.append(Violation(
                    seg.node_id, "finedex.arrays",
                    f"{len(seg.keys)} keys vs {len(seg.values)} values"))
            if seg.keys:
                out.extend(residual_violations(
                    seg.model, seg.keys, 0, self.epsilon, seg.node_id,
                    "finedex.epsilon"))
            entries = 0
            for b, bin_ in seg.bins.items():
                entries += len(bin_)
                if not -1 <= b < max(len(seg.keys), 1):
                    out.append(Violation(
                        seg.node_id, "finedex.bin-position",
                        f"bin attached at position {b} of a segment "
                        f"with {len(seg.keys)} trained keys"))
                    continue
                if len(bin_) > self.bin_capacity:
                    out.append(Violation(
                        seg.node_id, "finedex.bin-capacity",
                        f"bin {b} holds {len(bin_)} > bin_capacity "
                        f"{self.bin_capacity} (missed retrain)"))
                bkeys = [k for k, _ in bin_]
                out.extend(sorted_violations(
                    bkeys, seg.node_id, "finedex.bin-sorted",
                    what=f"bins[{b}]"))
                blo = seg.keys[b] + 1 if b >= 0 else seg.first_key
                bhi = seg.keys[b + 1] if b + 1 < len(seg.keys) else hi
                out.extend(range_violation(
                    bkeys, blo, bhi, seg.node_id, "finedex.bin-range"))
            if entries != seg.bin_entries:
                out.append(Violation(
                    seg.node_id, "finedex.bin-count",
                    f"bin_entries counter {seg.bin_entries} but bins "
                    f"hold {entries}"))
            merged = [k for k, _ in self._iter_segment(seg)]
            i = first_inversion(merged, strict=True)
            if i >= 0:
                out.append(Violation(
                    seg.node_id, "finedex.order",
                    f"merged iteration inverts at position {i}: "
                    f"{merged[i]} >= {merged[i + 1]}"))
            total += len(seg.keys) + entries
        if total != self._size:
            out.append(Violation(
                0, "finedex.size",
                f"segments hold {total} keys but len(index) == "
                f"{self._size}"))
        return out
