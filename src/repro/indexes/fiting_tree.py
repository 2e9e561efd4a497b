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

Everything the three delta-segment indexes share lives in
:mod:`repro.indexes.segmented`; this file is FITing-Tree's policy:
B+-tree routing, a ``buffer_size`` bound, merge + re-segment.

Not part of the paper's figures; exercised by the test suite and
available to the CLI/benchmarks for what-if comparisons.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.core.cost import KEY_COMPARE, KEY_SHIFT, NODE_HOP, PHASE_TRAVERSE
from repro.core.validate import Violation
from repro.indexes import batching
from repro.indexes.base import KEY_BYTES, PAYLOAD_BYTES, Key, MemoryBreakdown
from repro.indexes.btree import BPlusTree
from repro.indexes.segmented import Row, SegmentedIndex, Unit

_SEGMENT_HEADER_BYTES = 56


class FITingTree(SegmentedIndex):
    """FITing-Tree with ε = 32 (matching the paper's error-driven peers)."""

    name = "FITing-Tree"
    RULE_PREFIX = "fiting"

    def __init__(self, epsilon: int = 32, buffer_size: int = 32, **kwargs: Any) -> None:
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        super().__init__(epsilon, **kwargs)
        self.buffer_size = buffer_size
        self.merge_count = 0
        self._rebuild_router()

    def _rebuild_router(self) -> None:
        #: Inner routing structure: a B+-tree over segment first keys.
        self._router = BPlusTree(fanout=32, meter=self.meter)
        self._router.bulk_load([(p, i) for i, p in enumerate(self._pivots)])

    def _load(self, items: Sequence[Row], ks: Any) -> None:
        super()._load(items, ks)
        self._rebuild_router()

    # -- routing: B+-tree height, then the last pivot <= key ---------------------

    def _route(self, key: Key) -> int:
        self.meter.charge(NODE_HOP, max(1, self._router.height - 1))
        return self._bisect_route(key)

    def _batch_route(self, log: batching.ChargeLog, t: Any, ks: Any,
                     ui: Any) -> None:
        log.add(PHASE_TRAVERSE, NODE_HOP,
                max(1, self._router.height - 1) + 1)
        log.add(PHASE_TRAVERSE, KEY_COMPARE,
                max(1, len(self._pivots).bit_length()))

    # -- SMO: merge a full buffer into its segment, re-segment locally -----------

    def _overflowed(self, unit: Unit) -> bool:
        return len(unit.side_keys) > self.buffer_size

    def _smo(self, ui: int, unit: Unit) -> int:
        self.merge_count += 1
        created = self._resegment(ui, self._unit_rows(unit))
        # Router update: re-bulk (routing keys changed).
        self.meter.charge(KEY_SHIFT, len(self._units) - ui)
        self._rebuild_router()
        return created

    # -- memory -----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        inner = self._router.memory_usage().total
        leaf = 0
        for seg in self._units:
            leaf += _SEGMENT_HEADER_BYTES
            leaf += len(seg.keys) * (KEY_BYTES + PAYLOAD_BYTES)
            leaf += self.buffer_size * (KEY_BYTES + PAYLOAD_BYTES)  # buffer arena
        return MemoryBreakdown(inner=inner, leaf=leaf)

    def segment_count(self) -> int:
        return len(self._units)

    # -- validation ---------------------------------------------------------------

    def debug_validate(self) -> List[Violation]:
        """The substrate's rules, then the router: itself an
        OrderedIndex, validated in full (violations keep their
        ``btree.*`` rule names), and its leaves mirror the segment
        pivots exactly."""
        out = super().debug_validate()
        out.extend(self._router.debug_validate())
        router_keys: List[Key] = []
        leaf = self._router._root
        while hasattr(leaf, "children"):  # descend to the leftmost leaf
            leaf = leaf.children[0]
        while leaf is not None:
            router_keys.extend(leaf.keys)
            leaf = leaf.next
        if router_keys != [u.pivot for u in self._units]:
            out.append(Violation(
                0, "fiting.router-sync",
                f"router holds {len(router_keys)} pivots but the index "
                f"has {len(self._units)} segments (or pivots differ)"))
        return out
