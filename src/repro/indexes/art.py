"""Adaptive Radix Tree (Leis et al., ICDE 2013).

Keys are treated as 8-byte big-endian strings, so integer order equals
lexicographic byte order.  Nodes grow through the classic tiers
(Node4 → Node16 → Node48 → Node256) and use pessimistic path
compression (the full skipped prefix is stored in the node).

Implementation note: children are kept in one sorted ``(byte, child)``
array regardless of tier; the tier — derived from the child count —
drives the *memory model* and the per-node search cost, which is what
the paper's results depend on (ART's low space utilisation comes from
the null-pointer slack of Node48/Node256, reproduced analytically in
:meth:`ART.memory_usage`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.core.cost import (
    ALLOC_NODE,
    KEY_COMPARE,
    SLOT_INIT,
    KEY_SHIFT,
    NODE_HOP,
    PHASE_COLLISION,
    PHASE_SMO,
    PHASE_TRAVERSE,
    SCAN_ENTRY,
)
from repro.core.validate import Violation, sorted_violations
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

_HEADER_BYTES = 16


def _key_bytes(key: Key) -> bytes:
    return key.to_bytes(KEY_BYTES, "big")


def _tier(n_children: int) -> int:
    """The smallest ART node tier that fits ``n_children``."""
    if n_children <= 4:
        return 4
    if n_children <= 16:
        return 16
    if n_children <= 48:
        return 48
    return 256


def _tier_bytes(tier: int) -> int:
    if tier == 4:
        return _HEADER_BYTES + 4 + 4 * POINTER_BYTES
    if tier == 16:
        return _HEADER_BYTES + 16 + 16 * POINTER_BYTES
    if tier == 48:
        return _HEADER_BYTES + 256 + 48 * POINTER_BYTES
    return _HEADER_BYTES + 256 * POINTER_BYTES


class _ArtLeaf:
    __slots__ = ("key", "value")

    def __init__(self, key: Key, value: Value) -> None:
        self.key = key
        self.value = value


class _ArtNode:
    __slots__ = ("node_id", "prefix", "bytes_", "children")

    def __init__(self, node_id: int, prefix: bytes = b"") -> None:
        self.node_id = node_id
        self.prefix = prefix
        self.bytes_: List[int] = []  # sorted discriminating bytes
        self.children: List[Any] = []  # parallel to bytes_

    def find(self, b: int) -> int:
        """Index of byte ``b`` in this node, or -1."""
        lo = bisect_left(self.bytes_, b)
        if lo < len(self.bytes_) and self.bytes_[lo] == b:
            return lo
        return -1

    def lower(self, b: int) -> int:
        """Index of the first byte >= ``b``."""
        return bisect_left(self.bytes_, b)

    def add(self, b: int, child: Any) -> None:
        i = self.lower(b)
        self.bytes_.insert(i, b)
        self.children.insert(i, child)

    def remove(self, b: int) -> None:
        i = self.find(b)
        del self.bytes_[i]
        del self.children[i]


class ART(OrderedIndex):
    """Adaptive radix tree over 64-bit integer keys."""

    name = "ART"
    is_learned = False
    supports_delete = True
    supports_range = True

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._root: Optional[Any] = None
        #: Running inner-node bytes behind ``memory_usage()`` (tier +
        #: stored prefix per node), adjusted wherever a node is created,
        #: changes tier, has its prefix cut or extended, or is folded
        #: away; ``debug_validate`` cross-checks it by a walk.
        self._inner_bytes = 0

    # -- build --------------------------------------------------------------

    def _load(self, items: Sequence[Tuple[Key, Value]], ks: Any) -> None:
        self._root = None
        self._size = 0
        self._inner_bytes = 0
        for k, v in items:
            self._insert_quiet(k, v)

    def _insert_quiet(self, key: Key, value: Value) -> bool:
        """Insert without phase attribution (bulk load)."""
        return self._do_insert(key, value, OpRecord(op="bulk"))

    # -- lookup --------------------------------------------------------------

    def lookup(self, key: Key) -> Optional[Value]:
        kb = _key_bytes(key)
        node = self._root
        depth = 0
        path: List[int] = []
        leaf: Optional[_ArtLeaf] = None
        compares = 0
        while node is not None:
            if isinstance(node, _ArtLeaf):
                compares += 1
                leaf = node
                break
            path.append(node.node_id)
            p = node.prefix
            if p:
                compares += 1
                if kb[depth : depth + len(p)] != p:
                    break
                depth += len(p)
            i = node.find(kb[depth])
            compares += 2 if _tier(len(node.bytes_)) <= 16 else 1
            if i < 0:
                break
            node = node.children[i]
            depth += 1
        # One hop per inner node, then the compares along the way.
        charge = self.meter.charge_phased
        if path:
            charge(PHASE_TRAVERSE, NODE_HOP, len(path))
        if compares:
            charge(PHASE_TRAVERSE, KEY_COMPARE, compares)
        found = leaf is not None and leaf.key == key
        self.last_op = OpRecord(
            op="lookup", key=key, found=found, path=path,
            nodes_traversed=len(path) + (leaf is not None),
        )
        return leaf.value if found else None

    # -- insert --------------------------------------------------------------

    def insert(self, key: Key, value: Value) -> bool:
        rec = OpRecord(op="insert", key=key)
        ok = self._do_insert(key, value, rec)
        if ok:
            self._size += 1
        self.last_op = rec
        return ok

    def _do_insert(self, key: Key, value: Value, rec: OpRecord) -> bool:
        kb = _key_bytes(key)
        if self._root is None:
            self._root = _ArtLeaf(key, value)
            rec.nodes_created = 1
            self.meter.charge(ALLOC_NODE)
            return True

        parent: Optional[_ArtNode] = None
        parent_byte = 0
        node = self._root
        depth = 0
        with self.meter.phase(PHASE_TRAVERSE):
            while True:
                if isinstance(node, _ArtLeaf):
                    break
                rec.path.append(node.node_id)
                self.meter.charge(NODE_HOP)
                p = node.prefix
                if p:
                    common = _common_len(kb, depth, p)
                    self.meter.charge(KEY_COMPARE)
                    if common < len(p):
                        # Prefix mismatch: split this node's prefix.
                        with self.meter.phase(PHASE_SMO):
                            self._split_prefix(parent, parent_byte, node, kb, depth, common, key, value, rec)
                        rec.smo = True
                        return True
                    depth += len(p)
                i = node.find(kb[depth])
                self.meter.charge(KEY_COMPARE, 2)
                if i < 0:
                    with self.meter.phase(PHASE_COLLISION):
                        self._add_child(node, kb[depth], _ArtLeaf(key, value), rec)
                    return True
                parent, parent_byte = node, kb[depth]
                node = node.children[i]
                depth += 1
        # Reached a leaf.
        leaf: _ArtLeaf = node
        self.meter.charge(KEY_COMPARE)
        if leaf.key == key:
            rec.found = True
            return False
        with self.meter.phase(PHASE_COLLISION):
            lb = _key_bytes(leaf.key)
            common = 0
            while depth + common < KEY_BYTES and lb[depth + common] == kb[depth + common]:
                common += 1
            new = _ArtNode(self._next_node_id(), kb[depth : depth + common])
            self._inner_bytes += _tier_bytes(4) + common
            self.meter.charge(ALLOC_NODE)
            rec.nodes_created = 2
            d = depth + common
            new.add(lb[d], leaf)
            new.add(kb[d], _ArtLeaf(key, value))
            self._replace_child(parent, parent_byte, new)
        return True

    def _split_prefix(
        self,
        parent: Optional[_ArtNode],
        parent_byte: int,
        node: _ArtNode,
        kb: bytes,
        depth: int,
        common: int,
        key: Key,
        value: Value,
        rec: OpRecord,
    ) -> None:
        p = node.prefix
        new = _ArtNode(self._next_node_id(), p[:common])
        self.meter.charge(ALLOC_NODE)
        rec.nodes_created = 2
        old_branch_byte = p[common]
        node.prefix = p[common + 1 :]
        # A Node4 storing ``common`` prefix bytes; ``node`` stores
        # ``common + 1`` fewer (the branch byte moved into ``new``).
        self._inner_bytes += _tier_bytes(4) - 1
        new.add(old_branch_byte, node)
        new.add(kb[depth + common], _ArtLeaf(key, value))
        self._replace_child(parent, parent_byte, new)

    def _add_child(self, node: _ArtNode, b: int, child: Any, rec: OpRecord) -> None:
        before = _tier(len(node.bytes_))
        node.add(b, child)
        # Only Node4/Node16 keep sorted arrays that shift on insert;
        # Node48/Node256 are index-addressed (O(1) slot writes) — one of
        # the reasons ART shines on dense integer keys.
        if before <= 16:
            self.meter.charge(KEY_SHIFT, len(node.bytes_) - node.find(b))
        else:
            self.meter.charge(SLOT_INIT)
        after = _tier(len(node.bytes_))
        rec.nodes_created += 1
        # Single-value leaves are stored inline as tagged pointers (the
        # ART paper's combined pointer/value slot): no allocation here.
        if after != before:
            # Node grew a tier: modelled as reallocation + copy.
            self._inner_bytes += _tier_bytes(after) - _tier_bytes(before)
            rec.smo = True
            self.meter.charge(ALLOC_NODE)
            self.meter.charge(KEY_SHIFT, len(node.bytes_))

    def _replace_child(self, parent: Optional[_ArtNode], b: int, new_child: Any) -> None:
        if parent is None:
            self._root = new_child
        else:
            parent.children[parent.find(b)] = new_child

    # -- update / delete ----------------------------------------------------------

    def update(self, key: Key, value: Value) -> bool:
        leaf = self._find_leaf(key)
        if leaf is None:
            return False
        leaf.value = value
        self.meter.charge(KEY_SHIFT)
        return True

    def _find_leaf(self, key: Key) -> Optional[_ArtLeaf]:
        kb = _key_bytes(key)
        node = self._root
        depth = hops = 0
        while node is not None and not isinstance(node, _ArtLeaf):
            hops += 1
            p = node.prefix
            if p:
                if kb[depth : depth + len(p)] != p:
                    node = None
                    break
                depth += len(p)
            i = node.find(kb[depth])
            node = node.children[i] if i >= 0 else None
            depth += 1
        if hops:
            self.meter.charge(NODE_HOP, hops)
        return node if node is not None and node.key == key else None

    def delete(self, key: Key) -> bool:
        kb = _key_bytes(key)
        rec = OpRecord(op="delete", key=key)
        node = self._root
        parent: Optional[_ArtNode] = None
        parent_byte = 0
        grand: Optional[_ArtNode] = None
        grand_byte = 0
        depth = 0
        with self.meter.phase(PHASE_TRAVERSE):
            while node is not None and not isinstance(node, _ArtLeaf):
                rec.path.append(node.node_id)
                self.meter.charge(NODE_HOP)
                p = node.prefix
                if p:
                    if kb[depth : depth + len(p)] != p:
                        node = None
                        break
                    depth += len(p)
                i = node.find(kb[depth])
                if i < 0:
                    node = None
                    break
                grand, grand_byte = parent, parent_byte
                parent, parent_byte = node, kb[depth]
                node = node.children[i]
                depth += 1
        if node is None or node.key != key:
            rec.found = False
            self.last_op = rec
            return False
        rec.found = True
        with self.meter.phase(PHASE_SMO):
            if parent is None:
                self._root = None
            else:
                before = _tier(len(parent.bytes_))
                parent.remove(parent_byte)
                self._inner_bytes -= (_tier_bytes(before)
                                      - _tier_bytes(_tier(len(parent.bytes_))))
                self.meter.charge(KEY_SHIFT, len(parent.bytes_))
                if len(parent.bytes_) == 1:
                    # Merge single-child node back into the path (restore
                    # path compression), as the ART paper prescribes.
                    only = parent.children[0]
                    self._inner_bytes -= _tier_bytes(4) + len(parent.prefix)
                    if isinstance(only, _ArtNode):
                        only.prefix = parent.prefix + bytes([parent.bytes_[0]]) + only.prefix
                        self._inner_bytes += len(parent.prefix) + 1
                        merged: Any = only
                    else:
                        merged = only
                    self._replace_child(grand, grand_byte, merged)
                    rec.smo = True
        self._size -= 1
        self.last_op = rec
        return True

    # -- range scans ----------------------------------------------------------------

    def range_scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        out: List[Tuple[Key, Value]] = []
        if self._root is None or count <= 0:
            return out
        sb = _key_bytes(start)
        hops = [0]
        for leaf in self._iter_from(self._root, 0, sb, True, hops):
            out.append((leaf.key, leaf.value))
            if len(out) >= count:
                break
        # A hop precedes any leaf below it: hops first, then the rows.
        if hops[0]:
            self.meter.charge(NODE_HOP, hops[0])
        if out:
            self.meter.charge(SCAN_ENTRY, len(out))
        return out

    def _iter_from(self, node: Any, depth: int, sb: bytes, bounded: bool,
                   hops: List[int]) -> Iterator[_ArtLeaf]:
        """In-order leaves with key >= start (when ``bounded``); counts
        the inner nodes entered so far in ``hops[0]``."""
        if isinstance(node, _ArtLeaf):
            if not bounded or _key_bytes(node.key) >= sb:
                yield node
            return
        hops[0] += 1
        p = node.prefix
        if bounded and p:
            probe = sb[depth : depth + len(p)]
            if p > probe:
                bounded = False  # whole subtree is above start
            elif p < probe:
                return  # whole subtree is below start
        depth2 = depth + len(p)
        if not bounded:
            for child in node.children:
                yield from self._iter_from(child, depth2 + 1, sb, False, hops)
            return
        b = sb[depth2]
        i = node.lower(b)
        for j in range(i, len(node.bytes_)):
            child_bounded = node.bytes_[j] == b
            yield from self._iter_from(node.children[j], depth2 + 1, sb,
                                       child_bounded, hops)

    # -- memory ----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        """O(1): the running totals (see ``_walk_memory``)."""
        return MemoryBreakdown(inner=self._inner_bytes,
                               leaf=self._size * PAYLOAD_BYTES)

    def _walk_memory(self) -> MemoryBreakdown:
        """The footprint by a full walk of the tree — what
        ``memory_usage`` answers from its running totals; kept as
        ``debug_validate``'s cross-check of them."""
        inner = 0
        leaf = 0
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, _ArtLeaf):
                # Single-value leaves are pointer-tagged: the 8-byte
                # payload rides in the child slot; with pessimistic path
                # compression the key is spelled by the path itself.
                leaf += PAYLOAD_BYTES
            else:
                inner += _tier_bytes(_tier(len(node.bytes_))) + len(node.prefix)
                stack.extend(node.children)
        return MemoryBreakdown(inner=inner, leaf=leaf)

    # -- validation ---------------------------------------------------------------

    def debug_validate(self) -> List[Violation]:
        """Radix invariants: discriminating bytes strictly sorted and
        parallel to the child array, no single-child inner nodes (path
        compression would have folded them), every root-to-leaf byte
        path a prefix of the leaf's big-endian key (radix-prefix
        consistency), paths within the 8-byte key length, leaf count
        matching ``len(index)``, and the running memory totals against
        a full walk.  Walks nodes directly; never charges the meter.
        """
        out: List[Violation] = []
        count = 0

        def walk(node: Any, path: bytes) -> None:
            nonlocal count
            if isinstance(node, _ArtLeaf):
                count += 1
                kb = _key_bytes(node.key)
                if not kb.startswith(path):
                    out.append(Violation(
                        0, "art.prefix-path",
                        f"leaf key {node.key} ({kb.hex()}) does not "
                        f"extend its path {path.hex()}"))
                return
            if len(node.bytes_) != len(node.children):
                out.append(Violation(
                    node.node_id, "art.parallel-arrays",
                    f"{len(node.bytes_)} bytes vs "
                    f"{len(node.children)} children"))
                return
            if len(node.bytes_) < 2:
                out.append(Violation(
                    node.node_id, "art.min-children",
                    f"inner node has {len(node.bytes_)} children; path "
                    f"compression requires >= 2"))
            out.extend(sorted_violations(
                node.bytes_, node.node_id, "art.bytes-sorted",
                what="bytes_"))
            base = path + node.prefix
            if len(base) >= KEY_BYTES:
                out.append(Violation(
                    node.node_id, "art.depth",
                    f"path length {len(base)} leaves no room for a "
                    f"discriminating byte in an {KEY_BYTES}-byte key"))
                return
            for b, child in zip(node.bytes_, node.children):
                walk(child, base + bytes([b]))

        if self._root is not None:
            walk(self._root, b"")
        if count != self._size:
            out.append(Violation(
                0, "art.size",
                f"{count} leaves but len(index) == {self._size}"))
        counted, walked = self.memory_usage(), self._walk_memory()
        if counted != walked:
            out.append(Violation(
                0, "art.memory-counters",
                f"running totals say inner={counted.inner} "
                f"leaf={counted.leaf} bytes but a walk finds "
                f"inner={walked.inner} leaf={walked.leaf}"))
        return out

    @property
    def height(self) -> int:
        """Maximum node depth (leaves excluded)."""
        def depth(node: Any) -> int:
            if isinstance(node, _ArtLeaf) or node is None:
                return 0
            return 1 + max((depth(c) for c in node.children), default=0)

        return depth(self._root)


def _common_len(kb: bytes, depth: int, prefix: bytes) -> int:
    n = 0
    limit = min(len(prefix), len(kb) - depth)
    while n < limit and kb[depth + n] == prefix[n]:
        n += 1
    return n
