"""FINEdex (Li et al., VLDB 2021) — fine-grained delta learned index.

Like XIndex, FINEdex is error-driven (ε = 32) and delta-merge based,
but its delta granularity is one *bin per record* instead of one delta
per group: an inserted key lands in the tiny sorted bin hanging off its
left neighbour in the trained array.  This minimises conflicts between
concurrent writers (each bin is an independent synchronisation unit —
modelled by the concurrency adapter) and allows *local* retraining:
when a bin overflows, only the owning model segment is flattened and
refitted, never the whole structure.

Everything the three delta-segment indexes share lives in
:mod:`repro.indexes.segmented`; this file is FINEdex's policy: a plain
sorted pivot array routes to segments (upstream uses a small learned
root; the routing cost is metered equivalently), per-record bins
replace the substrate's sorted side buffer, and the SMO flattens one
segment and refits it.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Tuple

from repro.core.cost import (
    KEY_COMPARE,
    KEY_SHIFT,
    MODEL_EVAL,
    NODE_HOP,
    PHASE_COLLISION,
    PHASE_TRAVERSE,
)
from repro.core.validate import (
    Violation,
    first_inversion,
    range_violation,
    sorted_violations,
)
from repro.indexes import batching
from repro.indexes.base import (
    KEY_BYTES,
    PAYLOAD_BYTES,
    POINTER_BYTES,
    Key,
    MemoryBreakdown,
    Value,
)
from repro.indexes.segmented import Row, SegmentedIndex, Unit

_SEGMENT_HEADER_BYTES = 48
_BIN_ENTRY_BYTES = KEY_BYTES + PAYLOAD_BYTES
_BIN_HEADER_BYTES = 16


class _FineSegment(Unit):
    """A unit whose inserts land in per-record bins; its sorted side
    buffer stays empty."""

    __slots__ = ("bins", "bin_entries")

    def __init__(self, node_id: int, pivot: Key) -> None:
        super().__init__(node_id, pivot)
        #: position -> sorted [(key, value)] of inserts landing after
        #: keys[position] (position -1 collects keys below keys[0]).
        self.bins: Dict[int, List[Row]] = {}
        self.bin_entries = 0


class FINEdex(SegmentedIndex):
    """FINEdex with the paper's ε = 32 configuration."""

    name = "FINEdex"
    RULE_PREFIX = "finedex"
    UNIT = _FineSegment

    def __init__(self, epsilon: int = 32, bin_capacity: int = 16, **kwargs: Any) -> None:
        super().__init__(epsilon, **kwargs)
        self.bin_capacity = bin_capacity
        self.retrain_count = 0

    # -- routing: root hop + root model, then the last pivot <= key --------------

    def _route(self, key: Key) -> int:
        # Upstream FINEdex routes through its level-model root: one
        # pointer chase into the root structure plus the model walk.
        self.meter.charge(NODE_HOP)
        self.meter.charge(MODEL_EVAL)
        return self._bisect_route(key)

    def _batch_route(self, log: batching.ChargeLog, t: Any, ks: Any,
                     ui: Any) -> None:
        log.add(PHASE_TRAVERSE, NODE_HOP, 2)
        log.add(PHASE_TRAVERSE, MODEL_EVAL, 1)
        log.add(PHASE_TRAVERSE, KEY_COMPARE,
                max(1, len(self._pivots).bit_length()))

    # -- per-record bins in place of the sorted side buffer ----------------------

    def _side_lookup(self, unit: _FineSegment, i: int,
                     key: Key) -> Tuple[bool, Optional[Value]]:
        # The bin of the left neighbour; an absent bin charges nothing.
        bin_ = unit.bins.get(i - 1)
        if bin_:
            j = bisect.bisect_left(bin_, (key,))
            self.meter.charge(KEY_COMPARE, max(1, len(bin_).bit_length()))
            if j < len(bin_) and bin_[j][0] == key:
                return True, bin_[j][1]
        return False, None

    def _batch_side(self, t: Any, ks: Any, ui: Any, i: Any, miss: Any,
                    values: List[Optional[Value]]) -> Tuple[Any, Any]:
        """Bins stay in their dicts: a scalar probe, but only for the
        keys that missed the trained array."""
        np = batching._np
        kc = np.zeros(len(ks), dtype=np.int64)
        hit = np.zeros(len(ks), dtype=bool)
        units = self._units
        for j in np.flatnonzero(miss):
            bin_ = units[int(ui[j])].bins.get(int(i[j]) - 1)
            if bin_:
                kc[j] = max(1, len(bin_).bit_length())
                key = int(ks[j])
                jj = bisect.bisect_left(bin_, (key,))
                if jj < len(bin_) and bin_[jj][0] == key:
                    hit[j] = True
                    values[j] = bin_[jj][1]
        return kc, hit

    def _absorb(self, unit: _FineSegment, i: int, key: Key,
                value: Value) -> Optional[Tuple[int, bool]]:
        # The per-record bin is its own heap allocation: a pointer chase
        # (pinned: charged outside any phase).
        self.meter.charge(NODE_HOP)
        bin_ = unit.bins.setdefault(i - 1, [])
        j = bisect.bisect_left(bin_, (key,))
        if j < len(bin_) and bin_[j][0] == key:
            return None
        self._invalidate_batch_cache()
        with self.meter.phase(PHASE_COLLISION):
            bin_.insert(j, (key, value))
            unit.bin_entries += 1
            # Pinned: counted after the insert, so the new entry is one
            # of the shifted; an op that retrains records no shift.
            shifted = len(bin_) - j
            self.meter.charge(KEY_SHIFT, shifted)
        overflowed = len(bin_) > self.bin_capacity
        return 0 if overflowed else shifted, overflowed

    def _side_update(self, unit: _FineSegment, i: int, key: Key,
                     value: Value) -> bool:
        bin_ = unit.bins.get(i - 1)
        if bin_:
            j = bisect.bisect_left(bin_, (key,))
            if j < len(bin_) and bin_[j][0] == key:
                bin_[j] = (key, value)
                return True
        return False

    def _scan_unit(self, unit: _FineSegment, start: Optional[Key],
                   out: List[Row], count: int) -> None:
        keys, values, bins = unit.keys, unit.values, unit.bins
        # Pinned: positioning a scan charges no last-mile search (an
        # uncharged bisect; see docs/cost_model.md).
        i = 0 if start is None else bisect.bisect_left(keys, start)
        # The left neighbour's bin straddles ``start``.
        out.extend(row for row in bins.get(i - 1, ())
                   if start is None or row[0] >= start)
        while i < len(keys) and len(out) < count:
            out.append((keys[i], values[i]))
            out.extend(bins.get(i, ()))
            i += 1
        if len(out) > count:  # the last bin overshot
            del out[count:]

    # -- SMO: flatten one segment's bins and refit locally (may split) -----------

    def _smo(self, ui: int, unit: _FineSegment) -> int:
        self.retrain_count += 1
        return self._resegment(ui, self._unit_rows(unit))

    # -- memory -----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        inner = len(self._units) * (KEY_BYTES + POINTER_BYTES)
        leaf = 0
        for seg in self._units:
            leaf += _SEGMENT_HEADER_BYTES
            leaf += len(seg.keys) * (KEY_BYTES + PAYLOAD_BYTES + POINTER_BYTES)
            for bin_ in seg.bins.values():
                leaf += _BIN_HEADER_BYTES + len(bin_) * _BIN_ENTRY_BYTES
        return MemoryBreakdown(inner=inner, leaf=leaf)

    def segment_count(self) -> int:
        return len(self._units)

    # -- validation ---------------------------------------------------------------

    def _validate_side(self, unit: _FineSegment, hi: Optional[Key],
                       out: List[Violation]) -> int:
        """Every bin attached to a valid position, its contents strictly
        inside the open interval between the neighbouring trained keys
        and within ``bin_capacity`` (an overflow must have retrained),
        the ``bin_entries`` counter exact, and a sorted merged walk."""
        keys = unit.keys
        entries = 0
        for b, bin_ in unit.bins.items():
            entries += len(bin_)
            if not -1 <= b < max(len(keys), 1):
                out.append(Violation(
                    unit.node_id, "finedex.bin-position",
                    f"bin attached at position {b} of a segment "
                    f"with {len(keys)} trained keys"))
                continue
            if len(bin_) > self.bin_capacity:
                out.append(Violation(
                    unit.node_id, "finedex.bin-capacity",
                    f"bin {b} holds {len(bin_)} > bin_capacity "
                    f"{self.bin_capacity} (missed retrain)"))
            bkeys = [k for k, _ in bin_]
            out.extend(sorted_violations(
                bkeys, unit.node_id, "finedex.bin-sorted",
                what=f"bins[{b}]"))
            blo = keys[b] + 1 if b >= 0 else unit.pivot
            bhi = keys[b + 1] if b + 1 < len(keys) else hi
            out.extend(range_violation(
                bkeys, blo, bhi, unit.node_id, "finedex.bin-range"))
        if entries != unit.bin_entries:
            out.append(Violation(
                unit.node_id, "finedex.bin-count",
                f"bin_entries counter {unit.bin_entries} but bins "
                f"hold {entries}"))
        if len(keys) == len(unit.values):  # else: reported as *.arrays
            merged = [k for k, _ in self._unit_rows(unit)]
            i = first_inversion(merged, strict=True)
            if i >= 0:
                out.append(Violation(
                    unit.node_id, "finedex.order",
                    f"merged iteration inverts at position {i}: "
                    f"{merged[i]} >= {merged[i + 1]}"))
        return entries
