"""STX-style in-memory B+-tree.

The traditional baseline of the study.  Cache-conscious fanout (keys per
node sized to a few cache lines, like STX's default of 16–32 slots),
sorted slot arrays with binary search, leaf side-links for range scans
(the paper added side-links to B+TreeOLC for exactly this reason).

Deletes rebalance by borrowing from or merging with siblings, keeping
all nodes at least half full, so the memory report stays honest under
the deletion workloads of Figure 7.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.cost import (
    ALLOC_NODE,
    CACHE_PROBE,
    KEY_COMPARE,
    KEY_SHIFT,
    NODE_HOP,
    PHASE_COLLISION,
    PHASE_SEARCH,
    PHASE_SMO,
    PHASE_TRAVERSE,
    SCAN_ENTRY,
    SLOT_INIT,
)
from repro.core.validate import Violation, range_violation, sorted_violations
from repro.indexes import batching
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
from repro.indexes.linear_model import binary_search_lower, binary_steps

_NODE_HEADER_BYTES = 24
#: An inner node of ``c >= 1`` children holds ``c`` pointers and
#: ``c - 1`` separators: ``_INNER_BASE_BYTES + c * _CHILD_BYTES``.
_INNER_BASE_BYTES = _NODE_HEADER_BYTES - KEY_BYTES
_CHILD_BYTES = POINTER_BYTES + KEY_BYTES


class _Node:
    __slots__ = ("node_id", "keys")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.keys: List[Key] = []


class _Inner(_Node):
    """Inner node: keys[i] separates children[i] (< key) and children[i+1]."""

    __slots__ = ("children",)

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.children: List[_Node] = []


class _Leaf(_Node):
    __slots__ = ("values", "next")

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.values: List[Value] = []
        self.next: Optional["_Leaf"] = None


class _BatchLayout:
    """A tree's levels for batch lookups, root first: ``levels[d]`` its
    nodes in key order (the last, the leaves), and per inner level the
    separators of all its nodes in one int64 array, ``seps[d]``, with
    each node's start there, ``starts[d]`` (one more entry than nodes).

    Sibling subtrees partition the keys, so a level's separators ascend
    across its nodes: a key's rank in ``seps[d]`` less its node's start
    is its rank in the node, and node ``j``'s children start at
    ``starts[d][j] + j`` in the next level.  Only an SMO changes an
    inner node; the leaves' lists are read live.
    """

    __slots__ = ("levels", "seps", "starts")

    def __init__(self, root: _Node) -> None:
        np = batching._np
        level: List[Any] = [root]
        self.levels, self.seps, self.starts = [level], [], []
        while isinstance(level[0], _Inner):
            starts = np.zeros(len(level) + 1, dtype=np.int64)
            np.cumsum([len(nd.keys) for nd in level], out=starts[1:])
            self.starts.append(starts)
            self.seps.append(batching.int64_cache(
                list(chain.from_iterable(nd.keys for nd in level))))
            level = list(chain.from_iterable(nd.children for nd in level))
            self.levels.append(level)

    def __eq__(self, other: object) -> bool:
        np = batching._np
        return (isinstance(other, _BatchLayout)
                and [list(map(id, lv)) for lv in self.levels]
                == [list(map(id, lv)) for lv in other.levels]
                and all(map(np.array_equal, self.seps, other.seps))
                and all(map(np.array_equal, self.starts, other.starts)))


class BPlusTree(OrderedIndex):
    """A classic B+-tree over 64-bit integer keys."""

    name = "B+tree"
    is_learned = False
    supports_delete = True
    supports_range = True

    def __init__(self, fanout: int = 32, **kwargs: Any) -> None:
        if fanout < 4:
            raise ValueError("fanout must be >= 4")
        super().__init__(**kwargs)
        self.fanout = fanout
        self._min_fill = fanout // 2
        # STX leaves allocate full capacity arrays (plus the side link).
        self._leaf_node_bytes = (_NODE_HEADER_BYTES + POINTER_BYTES
                                 + fanout * (KEY_BYTES + PAYLOAD_BYTES))
        self._root: _Node = _Leaf(self._next_node_id())
        self._height = 1
        #: Running ``memory_usage()`` totals, adjusted wherever a node is
        #: allocated, split, merged or collapsed (``debug_validate``
        #: cross-checks them against a full walk).
        self._inner_bytes = 0
        self._leaf_bytes = self._leaf_node_bytes

    # -- build ----------------------------------------------------------------

    def _load(self, items: Sequence[Tuple[Key, Value]], ks: Any) -> None:
        fill = max(2, int(self.fanout * 0.8))
        leaves: List[_Leaf] = []
        for start in range(0, len(items), fill):
            leaf = _Leaf(self._next_node_id())
            chunk = items[start : start + fill]
            leaf.keys = [k for k, _ in chunk]
            leaf.values = [v for _, v in chunk]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
            self.meter.charge(ALLOC_NODE)
            self.meter.charge(SLOT_INIT, len(chunk))
        if not leaves:
            leaves = [_Leaf(self._next_node_id())]
        level: List[_Node] = list(leaves)
        # Track the minimum key of each node's subtree: inner separators
        # must be subtree minima, not the child's own first routing key.
        level_mins: List[Key] = [leaf.keys[0] if leaf.keys else 0 for leaf in leaves]
        self._height = 1
        self._leaf_bytes = len(leaves) * self._leaf_node_bytes
        self._inner_bytes = 0
        while len(level) > 1:
            parents: List[_Node] = []
            parent_mins: List[Key] = []
            starts = list(range(0, len(level), fill))
            if len(level) - starts[-1] == 1:
                # Never leave a single-child inner node at the tail: it
                # has no sibling to borrow from or merge with, so a
                # delete that empties its child could not rebalance.
                starts[-1] -= 1
            for start, end in zip(starts, starts[1:] + [len(level)]):
                inner = _Inner(self._next_node_id())
                inner.children = level[start:end]
                inner.keys = level_mins[start + 1 : end]
                parents.append(inner)
                parent_mins.append(level_mins[start])
                self.meter.charge(ALLOC_NODE)
                self._inner_bytes += (_INNER_BASE_BYTES
                                      + (end - start) * _CHILD_BYTES)
            level = parents
            level_mins = parent_mins
            self._height += 1
        self._root = level[0]

    # -- traversal ------------------------------------------------------------

    def _descend(self, key: Key, record_path: Optional[List[int]] = None,
                 inners: Optional[List[_Inner]] = None) -> _Leaf:
        """Walk root to leaf: one hop per node, one lower-bound search
        per inner node (equal keys go right).  Counts in locals and
        charges ``PHASE_TRAVERSE`` once per kind, in the order the walk
        first meets each."""
        node = self._root
        hops = 1
        compares = lines = 0
        while isinstance(node, _Inner):
            hops += 1
            if record_path is not None:
                record_path.append(node.node_id)
            if inners is not None:
                inners.append(node)
            keys = node.keys
            lo = bisect_left(keys, key)
            probes = binary_steps(len(keys), lo)
            compares += probes
            if probes > 3:  # charge_binary_search's cold-line rule
                lines += probes - 3
            if lo < len(keys) and keys[lo] == key:
                lo += 1
            node = node.children[lo]
        if record_path is not None:
            record_path.append(node.node_id)
        charge = self.meter.charge_phased
        charge(PHASE_TRAVERSE, NODE_HOP, hops)
        if hops > 1:
            charge(PHASE_TRAVERSE, KEY_COMPARE, compares)
            if lines:
                charge(PHASE_TRAVERSE, CACHE_PROBE, lines)
        return node  # type: ignore[return-value]

    def _search_leaf(self, leaf: _Leaf, key: Key) -> int:
        """Lower bound of ``key`` among the leaf's keys, charged to
        ``PHASE_SEARCH`` as ``charge_binary_search`` charges a search
        of that many probes."""
        keys = leaf.keys
        idx = bisect_left(keys, key)
        probes = binary_steps(len(keys), idx)
        charge = self.meter.charge_phased
        charge(PHASE_SEARCH, KEY_COMPARE, probes)
        if probes > 3:
            charge(PHASE_SEARCH, CACHE_PROBE, probes - 3)
        return idx

    def lookup(self, key: Key) -> Optional[Value]:
        path: List[int] = []
        leaf = self._descend(key, path)
        idx = self._search_leaf(leaf, key)
        found = idx < len(leaf.keys) and leaf.keys[idx] == key
        self.last_op = OpRecord(
            op="lookup", key=key, found=found, path=path, nodes_traversed=len(path)
        )
        return leaf.values[idx] if found else None

    def _lookup_batch(self, keys: Sequence[Key]):
        """Batched lookup: the whole batch walks the inner levels of
        the cached :class:`_BatchLayout` one level at a time, then takes
        its rank in its live leaf with C ``bisect``.

        ``binary_search_lower`` compares ``keys[mid] < key``, which is
        ``mid < r`` for the key's rank ``r = bisect_left(node.keys,
        key)`` — at an inner level the rank in the level's separators
        less its node's start — so one ``simulate_binary(0,
        len(node.keys), r)`` over every (level, key) pair replays the
        scalar probe counts exactly.  The layout is built by the first
        batch after a load or an SMO (splits, borrows and merges drop
        it through ``_invalidate_batch_cache``); a plain insert, update
        or delete changes a leaf's lists only, which the batch reads
        live.
        """
        ks = batching.key_array(keys)
        if ks is None:
            return None
        np = batching._np
        layout = self._batch_cache
        if layout is None:
            layout = self._batch_cache = _BatchLayout(self._root)
        B = len(ks)
        height = len(layout.levels)
        # Ascending needles search faster; their ranks land back in
        # batch order through ``order``.
        order = np.argsort(ks)
        ascending = ks[order]
        rank = np.empty(B, dtype=np.int64)
        node = np.zeros(B, dtype=np.int64)  # each key's node in its level
        positions = [node]
        sizes, ranks = [], []
        for seps, starts in zip(layout.seps, layout.starts):
            rank[order] = np.searchsorted(seps, ascending, side="left")
            first = starts[node]
            sizes.append(starts[node + 1] - first)
            ranks.append(rank - first)
            # Equal keys go right, as in ``_descend``: the child is the
            # key's rank past an equal separator, and node ``j``'s
            # children start at its separators' start plus ``j``.
            node = rank + (seps.take(rank, mode="clip") == ks) + node
            positions.append(node)
        at = list(map(layout.levels[-1].__getitem__, node.tolist()))
        slots = [leaf.keys for leaf in at]
        rs = list(map(bisect_left, slots, keys))
        found = [r < len(sl) and sl[r] == k
                 for sl, r, k in zip(slots, rs, keys)]
        values = [leaf.values[r] if f else None
                  for leaf, r, f in zip(at, rs, found)]
        sizes.append(np.fromiter(map(len, slots), dtype=np.int64, count=B))
        ranks.append(np.asarray(rs, dtype=np.int64))
        probes = batching.simulate_binary(
            np.zeros(height * B, dtype=np.int64), np.concatenate(sizes),
            np.concatenate(ranks)).reshape(height, B)
        lines = batching.cache_probe_units(probes)
        log = batching.ChargeLog(B)
        log.add(PHASE_TRAVERSE, NODE_HOP, height)
        if height > 1:
            log.add(PHASE_TRAVERSE, KEY_COMPARE, probes[:-1].sum(axis=0))
            inner_lines = lines[:-1].sum(axis=0)
            log.add(PHASE_TRAVERSE, CACHE_PROBE, inner_lines,
                    reached=inner_lines > 0)
        log.add(PHASE_SEARCH, KEY_COMPARE, probes[-1])
        log.add(PHASE_SEARCH, CACHE_PROBE, lines[-1], reached=lines[-1] > 0)

        def make_record(i: int) -> OpRecord:
            return OpRecord(
                op="lookup", key=keys[i], found=found[i],
                path=[level[p[i]].node_id
                      for level, p in zip(layout.levels, positions)],
                nodes_traversed=height)

        return batching.BatchLookup(values, log, make_record)

    # -- insert -----------------------------------------------------------------

    def insert(self, key: Key, value: Value) -> bool:
        path_nodes: List[_Inner] = []
        path_ids: List[int] = []
        leaf = self._descend(key, path_ids, path_nodes)
        idx = self._search_leaf(leaf, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            self.last_op = OpRecord(
                op="insert", key=key, found=True, path=path_ids,
                nodes_traversed=len(path_ids),
            )
            return False
        shifted = len(leaf.keys) - idx
        with self.meter.phase(PHASE_COLLISION):
            leaf.keys.insert(idx, key)
            leaf.values.insert(idx, value)
            self.meter.charge(KEY_SHIFT, shifted)
        created = 0
        smo = False
        if len(leaf.keys) > self.fanout:
            with self.meter.phase(PHASE_SMO):
                created = self._split(leaf, path_nodes)
            smo = True
        self._size += 1
        self.last_op = OpRecord(
            op="insert", key=key, found=False, path=path_ids,
            nodes_traversed=len(path_ids), keys_shifted=shifted,
            nodes_created=created, smo=smo,
        )
        return True

    def _split(self, node: _Node, path: List[_Inner]) -> int:
        """Split an over-full node, propagating upward.  Returns #allocs."""
        self._invalidate_batch_cache()
        created = 0
        while True:
            mid = len(node.keys) // 2
            if isinstance(node, _Leaf):
                right = _Leaf(self._next_node_id())
                right.keys = node.keys[mid:]
                right.values = node.values[mid:]
                del node.keys[mid:]
                del node.values[mid:]
                right.next = node.next
                node.next = right
                sep = right.keys[0]
                self._leaf_bytes += self._leaf_node_bytes
            else:
                inner: _Inner = node  # type: ignore[assignment]
                right = _Inner(self._next_node_id())
                sep = inner.keys[mid]
                right.keys = inner.keys[mid + 1 :]
                right.children = inner.children[mid + 1 :]
                del inner.keys[mid:]
                del inner.children[mid + 1 :]
                self._inner_bytes += _INNER_BASE_BYTES  # children only moved
            created += 1
            self.meter.charge(ALLOC_NODE)
            self.meter.charge(KEY_SHIFT, len(right.keys))
            if not path:
                new_root = _Inner(self._next_node_id())
                new_root.keys = [sep]
                new_root.children = [node, right]
                self._root = new_root
                self._height += 1
                created += 1
                self.meter.charge(ALLOC_NODE)
                self._inner_bytes += _INNER_BASE_BYTES + 2 * _CHILD_BYTES
                return created
            parent = path.pop()
            idx = binary_search_lower(parent.keys, sep, self.meter)
            parent.keys.insert(idx, sep)
            parent.children.insert(idx + 1, right)
            self._inner_bytes += _CHILD_BYTES
            self.meter.charge(KEY_SHIFT, len(parent.keys) - idx)
            if len(parent.children) <= self.fanout:
                return created
            node = parent

    def update(self, key: Key, value: Value) -> bool:
        leaf = self._descend(key)
        idx = self._search_leaf(leaf, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            leaf.values[idx] = value
            self.meter.charge(KEY_SHIFT)
            return True
        return False

    # -- delete ------------------------------------------------------------------

    def delete(self, key: Key) -> bool:
        removed, _ = self._delete_rec(self._root, key, [])
        if removed:
            self._size -= 1
            # Collapse a root with a single child.
            while isinstance(self._root, _Inner) and len(self._root.children) == 1:
                self._root = self._root.children[0]
                self._height -= 1
                self._inner_bytes -= _INNER_BASE_BYTES + _CHILD_BYTES
        return removed

    def _delete_rec(self, node: _Node, key: Key, path_ids: List[int]) -> Tuple[bool, bool]:
        """Returns (removed, child_underflowed)."""
        self.meter.charge(NODE_HOP)
        path_ids.append(node.node_id)
        if isinstance(node, _Leaf):
            idx = binary_search_lower(node.keys, key, self.meter)
            if idx >= len(node.keys) or node.keys[idx] != key:
                self.last_op = OpRecord(
                    op="delete", key=key, found=False, path=path_ids,
                    nodes_traversed=len(path_ids),
                )
                return False, False
            shifted = len(node.keys) - idx - 1
            del node.keys[idx]
            del node.values[idx]
            self.meter.charge(KEY_SHIFT, shifted)
            self.last_op = OpRecord(
                op="delete", key=key, found=True, path=path_ids,
                nodes_traversed=len(path_ids), keys_shifted=shifted,
            )
            return True, len(node.keys) < self._min_fill
        inner: _Inner = node  # type: ignore[assignment]
        idx = binary_search_lower(inner.keys, key, self.meter)
        if idx < len(inner.keys) and inner.keys[idx] == key:
            idx += 1
        removed, underflow = self._delete_rec(inner.children[idx], key, path_ids)
        if not removed or not underflow:
            return removed, False
        with self.meter.phase(PHASE_SMO):
            self._rebalance(inner, idx)
        if removed and self.last_op.op == "delete":
            self.last_op.smo = True
        return True, len(inner.children) < max(2, self._min_fill)

    def _rebalance(self, parent: _Inner, idx: int) -> None:
        self._invalidate_batch_cache()
        left = parent.children[idx - 1] if idx > 0 else None
        right = parent.children[idx + 1] if idx + 1 < len(parent.children) else None

        def fill(n: Optional[_Node]) -> int:
            return len(n.keys) if n is not None else -1

        if left is not None and fill(left) > self._min_fill:
            self._borrow(parent, idx - 1, from_left=True)
        elif right is not None and fill(right) > self._min_fill:
            self._borrow(parent, idx, from_left=False)
        elif left is not None:
            self._merge(parent, idx - 1)
        elif right is not None:
            self._merge(parent, idx)

    def _borrow(self, parent: _Inner, left_idx: int, from_left: bool) -> None:
        left = parent.children[left_idx]
        right = parent.children[left_idx + 1]
        self.meter.charge(KEY_SHIFT, 2)
        if isinstance(left, _Leaf) and isinstance(right, _Leaf):
            if from_left:
                right.keys.insert(0, left.keys.pop())
                right.values.insert(0, left.values.pop())
            else:
                left.keys.append(right.keys.pop(0))
                left.values.append(right.values.pop(0))
            parent.keys[left_idx] = right.keys[0]
        else:
            li: _Inner = left  # type: ignore[assignment]
            ri: _Inner = right  # type: ignore[assignment]
            if from_left:
                ri.keys.insert(0, parent.keys[left_idx])
                parent.keys[left_idx] = li.keys.pop()
                ri.children.insert(0, li.children.pop())
            else:
                li.keys.append(parent.keys[left_idx])
                parent.keys[left_idx] = ri.keys.pop(0)
                li.children.append(ri.children.pop(0))

    def _merge(self, parent: _Inner, left_idx: int) -> None:
        left = parent.children[left_idx]
        right = parent.children[left_idx + 1]
        self.meter.charge(KEY_SHIFT, len(right.keys))
        if isinstance(left, _Leaf) and isinstance(right, _Leaf):
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next = right.next
            self._leaf_bytes -= self._leaf_node_bytes
        else:
            li: _Inner = left  # type: ignore[assignment]
            ri: _Inner = right  # type: ignore[assignment]
            li.keys.append(parent.keys[left_idx])
            li.keys.extend(ri.keys)
            li.children.extend(ri.children)
            self._inner_bytes -= _INNER_BASE_BYTES  # children only moved
        del parent.keys[left_idx]
        del parent.children[left_idx + 1]
        self._inner_bytes -= _CHILD_BYTES

    # -- scans ----------------------------------------------------------------

    def range_scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        out: List[Tuple[Key, Value]] = []
        leaf: Optional[_Leaf] = self._descend(start)
        idx = binary_search_lower(leaf.keys, start, self.meter)
        tally: Dict[str, int] = {}
        while leaf is not None and len(out) < count:
            end = idx + count - len(out)
            rows = leaf.keys[idx:end]
            if rows:
                out.extend(zip(rows, leaf.values[idx:end]))
                tally[SCAN_ENTRY] = tally.get(SCAN_ENTRY, 0) + len(rows)
            leaf = leaf.next
            idx = 0
            if leaf is not None:
                tally[NODE_HOP] = tally.get(NODE_HOP, 0) + 1
        self._charge_tally(tally)
        return out

    # -- memory ----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        """O(1): the running totals (see ``_walk_memory``)."""
        return MemoryBreakdown(inner=self._inner_bytes, leaf=self._leaf_bytes)

    def _walk_memory(self) -> MemoryBreakdown:
        """The footprint by a full walk of the tree — what
        ``memory_usage`` answers from its running totals; kept as
        ``debug_validate``'s cross-check of them."""
        inner_bytes = 0
        leaf_bytes = 0
        stack: List[_Node] = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Inner):
                cap = max(len(node.children), 1)
                inner_bytes += _INNER_BASE_BYTES + cap * _CHILD_BYTES
                stack.extend(node.children)
            else:
                leaf_bytes += self._leaf_node_bytes
        return MemoryBreakdown(inner=inner_bytes, leaf=leaf_bytes)

    @property
    def height(self) -> int:
        return self._height

    # -- validation --------------------------------------------------------------

    def debug_validate(self) -> List[Violation]:
        """Structural walk: key order, fill bounds, separator ranges,
        balance, the leaf side-link chain, size accounting, the
        running memory totals against a full walk, and a cached batch
        layout, if any, against a fresh build.

        Separator semantics match ``_descend`` (equal keys go right):
        every key in ``children[i]`` is ``< keys[i]`` and every key in
        ``children[i+1]`` is ``>= keys[i]``.  Walks nodes directly;
        never charges the meter.
        """
        out: List[Violation] = []
        leaves: List[_Leaf] = []
        depths: set = set()

        def walk(node: _Node, lo: Optional[Key], hi: Optional[Key],
                 depth: int) -> None:
            out.extend(sorted_violations(
                node.keys, node.node_id, "btree.keys-sorted"))
            out.extend(range_violation(
                node.keys, lo, hi, node.node_id, "btree.key-range"))
            if isinstance(node, _Inner):
                if len(node.children) != len(node.keys) + 1:
                    out.append(Violation(
                        node.node_id, "btree.child-count",
                        f"{len(node.keys)} keys but "
                        f"{len(node.children)} children"))
                    return
                if len(node.children) > self.fanout:
                    out.append(Violation(
                        node.node_id, "btree.inner-fill",
                        f"{len(node.children)} children exceeds fanout "
                        f"{self.fanout}"))
                if depth > 1 and not node.children:
                    out.append(Violation(
                        node.node_id, "btree.node-empty",
                        "non-root inner node has no children"))
                bounds: List[Optional[Key]] = [lo, *node.keys, hi]
                for i, child in enumerate(node.children):
                    walk(child, bounds[i], bounds[i + 1], depth + 1)
            else:
                leaf = node  # type: _Leaf
                if len(leaf.keys) != len(leaf.values):
                    out.append(Violation(
                        leaf.node_id, "btree.leaf-arrays",
                        f"{len(leaf.keys)} keys vs "
                        f"{len(leaf.values)} values"))
                if len(leaf.keys) > self.fanout:
                    out.append(Violation(
                        leaf.node_id, "btree.leaf-fill",
                        f"{len(leaf.keys)} keys exceeds fanout "
                        f"{self.fanout}"))
                if depth > 1 and not leaf.keys:
                    out.append(Violation(
                        leaf.node_id, "btree.node-empty",
                        "non-root leaf holds no keys"))
                depths.add(depth)
                leaves.append(leaf)

        walk(self._root, None, None, 1)
        if len(depths) > 1:
            out.append(Violation(
                self._root.node_id, "btree.balance",
                f"leaves at depths {sorted(depths)}"))
        if depths and max(depths) != self._height:
            out.append(Violation(
                self._root.node_id, "btree.height",
                f"_height={self._height} but leaves sit at depth "
                f"{max(depths)}"))
        for i, leaf in enumerate(leaves):
            expect = leaves[i + 1] if i + 1 < len(leaves) else None
            if leaf.next is not expect:
                out.append(Violation(
                    leaf.node_id, "btree.leaf-chain",
                    "side link does not point at the next in-order leaf"))
                break
        total = sum(len(leaf.keys) for leaf in leaves)
        if total != self._size:
            out.append(Violation(
                self._root.node_id, "btree.size",
                f"leaves hold {total} keys but len(index) == {self._size}"))
        counted, walked = self.memory_usage(), self._walk_memory()
        if counted != walked:
            out.append(Violation(
                self._root.node_id, "btree.memory-counters",
                f"running totals say inner={counted.inner} "
                f"leaf={counted.leaf} bytes but a walk finds "
                f"inner={walked.inner} leaf={walked.leaf}"))
        if (self._batch_cache is not None
                and self._batch_cache != _BatchLayout(self._root)):
            out.append(Violation(
                self._root.node_id, "btree.batch-layout",
                "the cached batch layout differs from a fresh build: a "
                "structural change did not drop it"))
        return out
