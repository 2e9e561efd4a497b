"""Masstree (Mao, Kohler, Morris — EuroSys 2012), single-layer variant.

Masstree is a trie of B+-trees where each layer indexes an 8-byte key
slice.  The study's keys are exactly 8-byte integers, so the structure
degenerates to a single B+-tree layer — what matters for the paper's
results is Masstree's *node discipline*, which we reproduce:

* fanout-15 interior and border (leaf) nodes (one cache-line-friendly
  permutation word governs up to 15 slots),
* border nodes keep keys **unsorted**, appended in arrival order, with
  a permutation array giving logical order — an insert appends and
  rewrites the permutation word instead of shifting keys,
* border nodes are chained for range scans,
* upstream Masstree implements no structural delete (the paper excludes
  it from the deletion study).

The extra indirection through the permutation is charged on every
search; the permutation rewrite (a full 8-byte word) is the write the
concurrent adapter turns into cache-line traffic — together with the
version-number protocol it is what "crumbles" under NUMA in Figure 6.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.cost import (
    ALLOC_NODE,
    KEY_COMPARE,
    KEY_SHIFT,
    NODE_HOP,
    PHASE_COLLISION,
    PHASE_SEARCH,
    PHASE_SMO,
    PHASE_TRAVERSE,
    SCAN_ENTRY,
    SLOT_PROBE,
)
from repro.core.validate import (
    Violation,
    range_violation,
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
from repro.indexes.linear_model import binary_steps

_FANOUT = 15
_VERSION_BYTES = 8
_PERMUTATION_BYTES = 8
_INTERIOR_BYTES = (_VERSION_BYTES + _FANOUT * KEY_BYTES
                   + (_FANOUT + 1) * POINTER_BYTES)
_BORDER_BYTES = (_VERSION_BYTES + _PERMUTATION_BYTES
                 + _FANOUT * (KEY_BYTES + PAYLOAD_BYTES) + 2 * POINTER_BYTES)


class _Interior:
    __slots__ = ("node_id", "keys", "children")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.keys: List[Key] = []
        self.children: List[Any] = []


class _Border:
    """Border node: unsorted slots + permutation giving logical order."""

    __slots__ = ("node_id", "keys", "values", "perm", "next")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.keys: List[Key] = []
        self.values: List[Value] = []
        self.perm: List[int] = []  # logical rank -> physical slot
        self.next: Optional["_Border"] = None

    def logical_key(self, rank: int) -> Key:
        return self.keys[self.perm[rank]]

    def sorted_items(self) -> List[Tuple[Key, Value]]:
        return [(self.keys[s], self.values[s]) for s in self.perm]


class Masstree(OrderedIndex):
    """Masstree-style B+-tree with permutation border nodes."""

    name = "Masstree"
    is_learned = False
    supports_delete = False
    supports_range = True

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._root: Any = _Border(self._next_node_id())
        #: Running ``memory_usage()`` totals (nodes are never freed:
        #: no deletes); ``debug_validate`` cross-checks them by a walk.
        self._n_interiors = 0
        self._n_borders = 1

    # -- build --------------------------------------------------------------

    def _load(self, items: Sequence[Tuple[Key, Value]], ks: Any) -> None:
        fill = max(2, int(_FANOUT * 0.75))
        borders: List[_Border] = []
        for start in range(0, len(items), fill):
            chunk = items[start : start + fill]
            b = _Border(self._next_node_id())
            b.keys = [k for k, _ in chunk]
            b.values = [v for _, v in chunk]
            b.perm = list(range(len(chunk)))
            if borders:
                borders[-1].next = b
            borders.append(b)
            self.meter.charge(ALLOC_NODE)
        if not borders:
            borders = [_Border(self._next_node_id())]
        level: List[Any] = list(borders)
        mins: List[Key] = [b.keys[0] if b.keys else 0 for b in borders]
        self._n_borders = len(borders)
        self._n_interiors = 0
        while len(level) > 1:
            parents: List[Any] = []
            parent_mins: List[Key] = []
            for start in range(0, len(level), fill):
                group = level[start : start + fill]
                inner = _Interior(self._next_node_id())
                inner.children = list(group)
                inner.keys = mins[start + 1 : start + len(group)]
                parents.append(inner)
                parent_mins.append(mins[start])
                self.meter.charge(ALLOC_NODE)
            self._n_interiors += len(parents)
            level, mins = parents, parent_mins
        self._root = level[0]

    # -- traversal ------------------------------------------------------------

    @staticmethod
    def _lower(keys: List[Key], key: Key) -> Tuple[int, int]:
        """Lower bound in ``keys`` and the compares it took."""
        lo = bisect_left(keys, key)
        return lo, binary_steps(len(keys), lo)

    def _descend(self, key: Key, path: Optional[List[int]] = None) -> Tuple[_Border, List[_Interior]]:
        """Walk root to border node; charges ``PHASE_TRAVERSE`` one
        hop per node and one compare per search step, once per kind."""
        node = self._root
        inner_path: List[_Interior] = []
        compares = 0
        while isinstance(node, _Interior):
            if path is not None:
                path.append(node.node_id)
            idx, probes = self._lower(node.keys, key)
            compares += probes
            if idx < len(node.keys) and node.keys[idx] == key:
                idx += 1
            inner_path.append(node)
            node = node.children[idx]
        if path is not None:
            path.append(node.node_id)
        charge = self.meter.charge_phased
        charge(PHASE_TRAVERSE, NODE_HOP, len(inner_path) + 1)
        if compares:
            charge(PHASE_TRAVERSE, KEY_COMPARE, compares)
        return node, inner_path

    def _border_rank(self, border: _Border, key: Key) -> int:
        """Lower-bound logical rank in a border node (via permutation)."""
        keys, perm = border.keys, border.perm
        lo, hi = 0, len(perm)
        steps = 0
        while lo < hi:
            steps += 1
            mid = (lo + hi) // 2
            if keys[perm[mid]] < key:
                lo = mid + 1
            else:
                hi = mid
        if steps:
            self.meter.charge(KEY_COMPARE, steps)
            self.meter.charge(SLOT_PROBE, steps)  # permutation indirection
        return lo

    # -- operations ---------------------------------------------------------------

    def lookup(self, key: Key) -> Optional[Value]:
        path: List[int] = []
        border, _ = self._descend(key, path)
        with self.meter.phase(PHASE_SEARCH):
            rank = self._border_rank(border, key)
        found = rank < len(border.perm) and border.logical_key(rank) == key
        self.last_op = OpRecord(
            op="lookup", key=key, found=found, path=path, nodes_traversed=len(path)
        )
        return border.values[border.perm[rank]] if found else None

    def insert(self, key: Key, value: Value) -> bool:
        path: List[int] = []
        border, inner_path = self._descend(key, path)
        with self.meter.phase(PHASE_SEARCH):
            rank = self._border_rank(border, key)
        if rank < len(border.perm) and border.logical_key(rank) == key:
            self.last_op = OpRecord(
                op="insert", key=key, found=True, path=path,
                nodes_traversed=len(path),
            )
            return False
        with self.meter.phase(PHASE_COLLISION):
            # Append to physical slots; only the permutation word shifts.
            border.keys.append(key)
            border.values.append(value)
            border.perm.insert(rank, len(border.keys) - 1)
            self.meter.charge(KEY_SHIFT)      # the new slot write
            self.meter.charge(SLOT_PROBE, 2)  # permutation word rewrite
        created = 0
        smo = False
        if len(border.keys) > _FANOUT:
            with self.meter.phase(PHASE_SMO):
                created = self._split_border(border, inner_path)
            smo = True
        self._size += 1
        self.last_op = OpRecord(
            op="insert", key=key, path=path, nodes_traversed=len(path),
            keys_shifted=1, nodes_created=created, smo=smo,
        )
        return True

    def _split_border(self, border: _Border, inner_path: List[_Interior]) -> int:
        items = border.sorted_items()
        mid = len(items) // 2
        right = _Border(self._next_node_id())
        right.keys = [k for k, _ in items[mid:]]
        right.values = [v for _, v in items[mid:]]
        right.perm = list(range(len(right.keys)))
        border.keys = [k for k, _ in items[:mid]]
        border.values = [v for _, v in items[:mid]]
        border.perm = list(range(len(border.keys)))
        right.next = border.next
        border.next = right
        self._n_borders += 1
        self.meter.charge(ALLOC_NODE)
        self.meter.charge(KEY_SHIFT, len(items))
        created = 1
        sep = right.keys[0]
        node: Any = right
        while True:
            if not inner_path:
                new_root = _Interior(self._next_node_id())
                new_root.keys = [sep]
                new_root.children = [self._root, node]
                self._root = new_root
                self._n_interiors += 1
                self.meter.charge(ALLOC_NODE)
                return created + 1
            parent = inner_path.pop()
            idx, probes = self._lower(parent.keys, sep)
            if probes:
                self.meter.charge(KEY_COMPARE, probes)
            parent.keys.insert(idx, sep)
            parent.children.insert(idx + 1, node)
            self.meter.charge(KEY_SHIFT, len(parent.keys) - idx)
            if len(parent.children) <= _FANOUT:
                return created
            # Split the interior node.
            m = len(parent.keys) // 2
            new_inner = _Interior(self._next_node_id())
            sep = parent.keys[m]
            new_inner.keys = parent.keys[m + 1 :]
            new_inner.children = parent.children[m + 1 :]
            del parent.keys[m:]
            del parent.children[m + 1 :]
            self._n_interiors += 1
            self.meter.charge(ALLOC_NODE)
            created += 1
            node = new_inner

    def update(self, key: Key, value: Value) -> bool:
        border, _ = self._descend(key)
        rank = self._border_rank(border, key)
        if rank < len(border.perm) and border.logical_key(rank) == key:
            border.values[border.perm[rank]] = value
            self.meter.charge(KEY_SHIFT)
            return True
        return False

    # -- scans -----------------------------------------------------------------

    def range_scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        out: List[Tuple[Key, Value]] = []
        border, _ = self._descend(start)
        rank = self._border_rank(border, start)
        node: Optional[_Border] = border
        tally: Dict[str, int] = {}
        while node is not None and len(out) < count:
            keys, values = node.keys, node.values
            slots = node.perm[rank:rank + count - len(out)]
            if slots:
                out.extend([(keys[s], values[s]) for s in slots])
                tally[SCAN_ENTRY] = tally.get(SCAN_ENTRY, 0) + len(slots)
                # The permutation indirection, once per row.
                tally[SLOT_PROBE] = tally.get(SLOT_PROBE, 0) + len(slots)
            node = node.next
            rank = 0
            if node is not None:
                tally[NODE_HOP] = tally.get(NODE_HOP, 0) + 1
        self._charge_tally(tally)
        return out

    # -- memory -----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        """O(1): the running totals (see ``_walk_memory``)."""
        return MemoryBreakdown(inner=self._n_interiors * _INTERIOR_BYTES,
                               leaf=self._n_borders * _BORDER_BYTES)

    def _walk_memory(self) -> MemoryBreakdown:
        """The footprint by a full walk of the tree — what
        ``memory_usage`` answers from its running totals; kept as
        ``debug_validate``'s cross-check of them."""
        inner = 0
        leaf = 0
        stack: List[Any] = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _Interior):
                inner += _INTERIOR_BYTES
                stack.extend(node.children)
            else:
                leaf += _BORDER_BYTES
        return MemoryBreakdown(inner=inner, leaf=leaf)

    # -- validation ---------------------------------------------------------------

    def debug_validate(self) -> List[Violation]:
        """Permutation-border invariants: ``perm`` a true permutation of
        the physical slots, logical order strictly sorted, fanout
        bounds on borders and interiors, separator key ranges matching
        ``_descend``'s equal-goes-right routing, the border side-link
        chain threading the in-order leaves, size accounting, and the
        running memory totals against a full walk.
        Walks nodes directly; never charges the meter.
        """
        out: List[Violation] = []
        borders: List[_Border] = []

        def walk(node: Any, lo: Optional[Key], hi: Optional[Key]) -> None:
            if isinstance(node, _Interior):
                out.extend(sorted_violations(
                    node.keys, node.node_id, "mass.keys-sorted"))
                out.extend(range_violation(
                    node.keys, lo, hi, node.node_id, "mass.key-range"))
                if len(node.children) != len(node.keys) + 1:
                    out.append(Violation(
                        node.node_id, "mass.child-count",
                        f"{len(node.keys)} keys but "
                        f"{len(node.children)} children"))
                    return
                if len(node.children) > _FANOUT + 1:
                    out.append(Violation(
                        node.node_id, "mass.fanout",
                        f"{len(node.children)} children exceeds fanout"))
                bounds: List[Optional[Key]] = [lo, *node.keys, hi]
                for i, child in enumerate(node.children):
                    walk(child, bounds[i], bounds[i + 1])
                return
            border = node
            n = len(border.keys)
            if len(border.values) != n or len(border.perm) != n:
                out.append(Violation(
                    border.node_id, "mass.perm",
                    f"keys/values/perm lengths {n}/{len(border.values)}/"
                    f"{len(border.perm)} differ"))
                return
            if sorted(border.perm) != list(range(n)):
                out.append(Violation(
                    border.node_id, "mass.perm",
                    f"perm {border.perm} is not a permutation of "
                    f"0..{n - 1}"))
                return
            if n > _FANOUT:
                out.append(Violation(
                    border.node_id, "mass.fanout",
                    f"border holds {n} keys, fanout is {_FANOUT}"))
            logical = [border.logical_key(r) for r in range(n)]
            out.extend(sorted_violations(
                logical, border.node_id, "mass.logical-order",
                what="logical keys"))
            out.extend(range_violation(
                logical, lo, hi, border.node_id, "mass.key-range"))
            borders.append(border)

        walk(self._root, None, None)
        for i, border in enumerate(borders):
            expect = borders[i + 1] if i + 1 < len(borders) else None
            if border.next is not expect:
                out.append(Violation(
                    border.node_id, "mass.border-chain",
                    "side link does not point at the next in-order "
                    "border"))
                break
        total = sum(len(b.keys) for b in borders)
        if total != self._size:
            out.append(Violation(
                0, "mass.size",
                f"borders hold {total} keys but len(index) == "
                f"{self._size}"))
        counted, walked = self.memory_usage(), self._walk_memory()
        if counted != walked:
            out.append(Violation(
                0, "mass.memory-counters",
                f"running totals say inner={counted.inner} "
                f"leaf={counted.leaf} bytes but a walk finds "
                f"inner={walked.inner} leaf={walked.leaf}"))
        return out
