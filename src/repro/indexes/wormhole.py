"""Wormhole (Wu, Ni, Jiang — EuroSys 2019), simplified.

Wormhole keeps data in a doubly-linked list of sorted leaf nodes
(~128 keys each) and replaces the usual tree of interior nodes with a
*MetaTrieHT*: a hash table over leaf anchor prefixes searched by binary
search on the prefix *length*.  A point lookup therefore costs
``O(log L)`` hash probes (L = key length in bytes, so ≤ 3 probes for
8-byte keys) plus one in-leaf binary search — independent of N.

Faithfulness notes (recorded in DESIGN.md): leaf behaviour, anchors and
splits are implemented exactly; the MetaTrieHT is *modelled* — a sorted
anchor array provides correctness while the meter charges the hashed
prefix-search cost (``HASH`` per probe), and :meth:`memory_usage`
prices the hash table entries.  The paper's headline Wormhole results
(string-key specialisation wastes on integers; the single inner-layer
lock kills write scalability — modelled in the concurrency adapter)
survive this substitution.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.cost import (
    ALLOC_NODE,
    HASH,
    KEY_COMPARE,
    KEY_SHIFT,
    NODE_HOP,
    PHASE_COLLISION,
    PHASE_SEARCH,
    PHASE_SMO,
    PHASE_TRAVERSE,
    SCAN_ENTRY,
)
from repro.core.validate import (
    Violation,
    range_violation,
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

_LEAF_CAPACITY = 128
#: log2(KEY_BYTES): binary search on prefix length for 8-byte keys.
_META_PROBES = 3
_HT_ENTRY_BYTES = 24  # hashed prefix tag + leaf pointer + bitmap slice


class _WormLeaf:
    __slots__ = ("node_id", "anchor", "keys", "values", "next", "prev")

    def __init__(self, node_id: int, anchor: Key) -> None:
        self.node_id = node_id
        self.anchor = anchor
        self.keys: List[Key] = []
        self.values: List[Value] = []
        self.next: Optional["_WormLeaf"] = None
        self.prev: Optional["_WormLeaf"] = None


class Wormhole(OrderedIndex):
    """Wormhole-style ordered index over 64-bit integer keys."""

    name = "Wormhole"
    is_learned = False
    supports_delete = False  # upstream does not cover deletion (paper §4.4)
    supports_range = True

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        first = _WormLeaf(self._next_node_id(), 0)
        self._leaves: List[_WormLeaf] = [first]  # sorted by anchor

    # -- build --------------------------------------------------------------

    def _load(self, items: Sequence[Tuple[Key, Value]], ks: Any) -> None:
        fill = int(_LEAF_CAPACITY * 0.7)
        self._leaves = []
        prev: Optional[_WormLeaf] = None
        for start in range(0, len(items), fill):
            chunk = items[start : start + fill]
            leaf = _WormLeaf(self._next_node_id(), chunk[0][0] if self._leaves else 0)
            leaf.keys = [k for k, _ in chunk]
            leaf.values = [v for _, v in chunk]
            leaf.prev = prev
            if prev is not None:
                prev.next = leaf
            self._leaves.append(leaf)
            prev = leaf
            self.meter.charge(ALLOC_NODE)
        if not self._leaves:
            self._leaves = [_WormLeaf(self._next_node_id(), 0)]

    # -- meta search ------------------------------------------------------------

    def _meta_search(self, key: Key) -> _WormLeaf:
        """Find the leaf owning ``key``; costed as a MetaTrieHT search."""
        self.meter.charge(HASH, _META_PROBES)
        lo, hi = 0, len(self._leaves)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._leaves[mid].anchor <= key:
                lo = mid + 1
            else:
                hi = mid
        return self._leaves[max(0, lo - 1)]

    def _leaf_rank(self, leaf: _WormLeaf, key: Key) -> int:
        keys = leaf.keys
        lo = bisect_left(keys, key)
        probes = binary_steps(len(keys), lo)
        if probes:
            self.meter.charge(KEY_COMPARE, probes)
        return lo

    # -- operations ---------------------------------------------------------------

    def lookup(self, key: Key) -> Optional[Value]:
        with self.meter.phase(PHASE_TRAVERSE):
            leaf = self._meta_search(key)
            self.meter.charge(NODE_HOP)
        with self.meter.phase(PHASE_SEARCH):
            i = self._leaf_rank(leaf, key)
        found = i < len(leaf.keys) and leaf.keys[i] == key
        self.last_op = OpRecord(
            op="lookup", key=key, found=found, path=[leaf.node_id],
            nodes_traversed=1,
        )
        return leaf.values[i] if found else None

    def insert(self, key: Key, value: Value) -> bool:
        with self.meter.phase(PHASE_TRAVERSE):
            leaf = self._meta_search(key)
            self.meter.charge(NODE_HOP)
        with self.meter.phase(PHASE_SEARCH):
            i = self._leaf_rank(leaf, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            self.last_op = OpRecord(
                op="insert", key=key, found=True, path=[leaf.node_id],
                nodes_traversed=1,
            )
            return False
        shifted = len(leaf.keys) - i
        with self.meter.phase(PHASE_COLLISION):
            leaf.keys.insert(i, key)
            leaf.values.insert(i, value)
            self.meter.charge(KEY_SHIFT, shifted)
        created = 0
        smo = False
        if len(leaf.keys) > _LEAF_CAPACITY:
            with self.meter.phase(PHASE_SMO):
                created = self._split(leaf)
            smo = True
        self._size += 1
        self.last_op = OpRecord(
            op="insert", key=key, path=[leaf.node_id], nodes_traversed=1,
            keys_shifted=shifted, nodes_created=created, smo=smo,
        )
        return True

    def _split(self, leaf: _WormLeaf) -> int:
        mid = len(leaf.keys) // 2
        right = _WormLeaf(self._next_node_id(), leaf.keys[mid])
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        del leaf.keys[mid:]
        del leaf.values[mid:]
        right.next = leaf.next
        right.prev = leaf
        if leaf.next is not None:
            leaf.next.prev = right
        leaf.next = right
        self.meter.charge(ALLOC_NODE)
        self.meter.charge(KEY_SHIFT, len(right.keys))
        # New anchor goes into the meta structure: hash-table inserts for
        # each prefix length touched (modelled), plus the sorted register.
        self.meter.charge(HASH, _META_PROBES)
        pos = self._anchor_rank(right.anchor)
        self._leaves.insert(pos, right)
        return 1

    def _anchor_rank(self, anchor: Key) -> int:
        lo, hi = 0, len(self._leaves)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._leaves[mid].anchor < anchor:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def update(self, key: Key, value: Value) -> bool:
        leaf = self._meta_search(key)
        i = self._leaf_rank(leaf, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            leaf.values[i] = value
            self.meter.charge(KEY_SHIFT)
            return True
        return False

    # -- scans -----------------------------------------------------------------

    def range_scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        out: List[Tuple[Key, Value]] = []
        with self.meter.phase(PHASE_TRAVERSE):
            leaf: Optional[_WormLeaf] = self._meta_search(start)
            self.meter.charge(NODE_HOP)
        i = self._leaf_rank(leaf, start)
        tally: Dict[str, int] = {}
        while leaf is not None and len(out) < count:
            end = i + count - len(out)
            rows = leaf.keys[i:end]
            if rows:
                out.extend(zip(rows, leaf.values[i:end]))
                tally[SCAN_ENTRY] = tally.get(SCAN_ENTRY, 0) + len(rows)
            leaf = leaf.next
            i = 0
            if leaf is not None:
                tally[NODE_HOP] = tally.get(NODE_HOP, 0) + 1
        self._charge_tally(tally)
        return out

    # -- memory -----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        leaf_bytes = 0
        for leaf in self._leaves:
            leaf_bytes += 32 + _LEAF_CAPACITY * (KEY_BYTES + PAYLOAD_BYTES)
        # MetaTrieHT: each anchor contributes entries for the prefix
        # lengths that discriminate it (~KEY_BYTES/2 on average), stored
        # in a hash table kept under 80% load.
        n_anchor_entries = len(self._leaves) * (KEY_BYTES // 2)
        inner = int(n_anchor_entries / 0.8) * _HT_ENTRY_BYTES
        return MemoryBreakdown(inner=inner, leaf=leaf_bytes)

    @property
    def leaf_count(self) -> int:
        return len(self._leaves)

    # -- validation ---------------------------------------------------------------

    def debug_validate(self) -> List[Violation]:
        """Leaf-list invariants: strictly increasing anchors with the
        first anchored at 0, per-leaf keys sorted and within
        ``[anchor, next_anchor)``, leaf occupancy within
        ``_LEAF_CAPACITY`` (an overflow must have split), the doubly
        linked prev/next chain mirroring the anchor-sorted leaf list
        exactly, and size accounting.  Walks leaves directly; never
        charges the meter.
        """
        out: List[Violation] = []
        leaves = self._leaves
        if not leaves:
            return [Violation(0, "worm.anchor-order",
                              "index has no leaves at all")]
        if leaves[0].anchor != 0:
            out.append(Violation(
                leaves[0].node_id, "worm.anchor-order",
                f"first anchor is {leaves[0].anchor}, expected 0"))
        out.extend(sorted_violations(
            [leaf.anchor for leaf in leaves], 0, "worm.anchor-order",
            what="anchors"))
        total = 0
        for i, leaf in enumerate(leaves):
            hi = leaves[i + 1].anchor if i + 1 < len(leaves) else None
            out.extend(sorted_violations(
                leaf.keys, leaf.node_id, "worm.keys-sorted"))
            out.extend(range_violation(
                leaf.keys, leaf.anchor, hi, leaf.node_id,
                "worm.key-range"))
            if len(leaf.keys) != len(leaf.values):
                out.append(Violation(
                    leaf.node_id, "worm.arrays",
                    f"{len(leaf.keys)} keys vs {len(leaf.values)} "
                    f"values"))
            if len(leaf.keys) > _LEAF_CAPACITY:
                out.append(Violation(
                    leaf.node_id, "worm.capacity",
                    f"leaf holds {len(leaf.keys)} > capacity "
                    f"{_LEAF_CAPACITY} (missed split)"))
            before = leaves[i - 1] if i > 0 else None
            after = leaves[i + 1] if i + 1 < len(leaves) else None
            if leaf.prev is not before or leaf.next is not after:
                out.append(Violation(
                    leaf.node_id, "worm.leaf-chain",
                    "prev/next links disagree with the anchor-sorted "
                    "leaf list"))
            total += len(leaf.keys)
        if total != self._size:
            out.append(Violation(
                0, "worm.size",
                f"leaves hold {total} keys but len(index) == "
                f"{self._size}"))
        return out
