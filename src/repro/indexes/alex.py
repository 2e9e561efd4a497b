"""ALEX — an updatable adaptive learned index (Ding et al., SIGMOD 2020).

Structure ("ML for subspace lookup" + "sparse nodes" in the paper's
taxonomy):

* **Inner nodes** hold a linear model and a power-of-two pointer array.
  A traversal *computes* the child slot from the model — no search.
  Multiple adjacent slots may point to the same child.
* **Data nodes** are gapped arrays at a target density (0.6/0.7/0.8
  min/avg/max, Table 1).  A lookup predicts a slot with the node's model
  and runs an exponential "last-mile" search.  An insert places the key
  in a gap or shifts keys toward the nearest gap — the *key shifting*
  whose write amplification Figure 3/Table 3 dissect.
* **SMOs** are performance-driven: each data node keeps runtime
  statistics (shifts and search distance per insert); when density
  exceeds the bound, a cost model picks *expand & retrain* (model still
  accurate) or *split sideways* (model degraded), mirroring ALEX's
  empirical cost model.

Deletes erase in place (possibly contracting the node) and never
degrade the model — the paper's "no model pollution" result
(Message 8).  Duplicate keys are supported via inlining, with an
optional linked-list mode used by the Appendix-B experiment.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress, islice, repeat
from operator import length_hint
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.cost import (
    ALLOC_NODE,
    CACHE_PROBE,
    charge_local_search,
    KEY_COMPARE,
    KEY_SHIFT,
    MODEL_EVAL,
    NODE_HOP,
    PHASE_COLLISION,
    PHASE_SEARCH,
    PHASE_SMO,
    PHASE_STATS,
    PHASE_TRAVERSE,
    SCAN_ENTRY,
    SLOT_INIT,
    STATS_UPDATE,
    TRAIN_KEY,
)
from repro.core.validate import Violation, sorted_violations
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
from repro.indexes.linear_model import LinearModel

#: Sentinel for gaps at the tail of a data node (larger than any u64 key).
_GAP_HIGH = 1 << 70

_DATA_HEADER_BYTES = 48  # model, stats, lock word, counters
_INNER_HEADER_BYTES = 32

#: Bulk loads of fewer items build by the scalar recursion, and inside
#: an array build smaller leaves are laid out by the scalar loops: the
#: numpy calls of one leaf cost about as much as these many keys.
_ARRAY_BUILD_MIN = 64


def _iter_from(items: Sequence[Any], pos: int) -> Iterator[Any]:
    """An iterator over ``items[pos:]`` (a list or a bytearray) that
    neither copies it nor walks its head: the iterator's index is set
    directly.
    ``operator.length_hint`` of it is the number of items left."""
    it = iter(items)
    it.__setstate__(pos)
    return it


class _DataNode:
    """Gapped array leaf.

    ``keys[i]`` is the real key when ``present[i]`` (one byte per slot,
    1 or 0: ALEX's bitmap); a gap slot holds a copy of its nearest
    occupied *right* neighbour (``_GAP_HIGH`` when none), so the whole
    array stays sorted and exponential search works without consulting
    the bitmap.
    """

    __slots__ = (
        "node_id", "keys", "values", "present", "num_keys",
        "model", "prev", "next",
        "inserts_since_build", "shifts_since_build", "search_since_build",
    )

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.keys: List[Key] = []
        self.values: List[Value] = []
        self.present = bytearray()
        self.num_keys = 0
        self.model = LinearModel()
        self.prev: Optional["_DataNode"] = None
        self.next: Optional["_DataNode"] = None
        self.inserts_since_build = 0
        self.shifts_since_build = 0
        self.search_since_build = 0

    @property
    def capacity(self) -> int:
        return len(self.keys)

    def density(self) -> float:
        return self.num_keys / self.capacity if self.capacity else 1.0

    def occupied_items(self) -> List[Tuple[Key, Value]]:
        return list(compress(zip(self.keys, self.values), self.present))


class _InnerNode:
    __slots__ = ("node_id", "model", "children")

    def __init__(self, node_id: int, model: LinearModel, children: List[Any]) -> None:
        self.node_id = node_id
        self.model = model
        self.children = children  # power-of-two sized

    def child_slot(self, key: Key) -> int:
        return self.model.predict_clamped(key, len(self.children))


class _BatchLayout:
    """A tree's routing for batch lookups: its inner nodes numbered
    root first (``inner_models``, ``fans``), each one's pointer array
    in one flat child table (``table[bases[j] + slot]``: an inner
    node's number, or ``~i`` for ``leaves[i]``), and the leaves'
    models and capacities (``leaf_models``, ``caps``).

    Only an SMO changes a model, a pointer array or a capacity; the
    leaves' key, value and bitmap columns are read live.
    """

    __slots__ = ("inner_models", "fans", "bases", "table",
                 "leaves", "leaf_models", "caps")

    def __init__(self, root: Any) -> None:
        np = batching._np
        inner: List[_InnerNode] = []
        self.leaves: List[_DataNode] = []
        number: Dict[int, int] = {}  # id(node) -> its code in ``table``
        if isinstance(root, _InnerNode):
            inner.append(root)
        else:
            self.leaves.append(root)
        bases, table = [], []
        for node in inner:  # grows as the walk numbers new inner nodes
            bases.append(len(table))
            for child in node.children:
                code = number.get(id(child))
                if code is None:
                    if isinstance(child, _InnerNode):
                        code = len(inner)
                        inner.append(child)
                    else:
                        code = ~len(self.leaves)
                        self.leaves.append(child)
                    number[id(child)] = code
                table.append(code)
        self.inner_models = batching.model_arrays([n.model for n in inner])
        self.fans = np.asarray([len(n.children) for n in inner],
                               dtype=np.int64)
        self.bases = np.asarray(bases, dtype=np.int64)
        self.table = np.asarray(table, dtype=np.int64)
        self.leaf_models = batching.model_arrays(
            [leaf.model for leaf in self.leaves])
        self.caps = np.asarray([len(leaf.keys) for leaf in self.leaves],
                               dtype=np.int64)

    def _arrays(self) -> list:
        return [*self.inner_models, self.fans, self.bases, self.table,
                *self.leaf_models, self.caps]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, _BatchLayout)
                and list(map(id, self.leaves)) == list(map(id, other.leaves))
                and all(map(batching._np.array_equal, self._arrays(),
                            other._arrays())))


class ALEX(OrderedIndex):
    """ALEX with the paper's Table-1 configuration (scaled).

    Parameters
    ----------
    max_data_keys:
        Maximum keys per data node — the stand-in for the paper's 16 MB
        node-size cap; ALEX+ uses a smaller cap (512 KB).
    density_bounds:
        ``(min, avg, max)`` data node densities.
    duplicate_mode:
        ``None`` (unique keys), ``"inline"`` or ``"linked_list"``
        (Appendix B).
    """

    name = "ALEX"
    is_learned = True
    supports_delete = True
    supports_range = True

    def __init__(
        self,
        max_data_keys: int = 16384,
        density_bounds: Tuple[float, float, float] = (0.6, 0.7, 0.8),
        target_leaf_keys: int = 512,
        max_fanout: int = 1 << 14,
        duplicate_mode: Optional[str] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        if duplicate_mode not in (None, "inline", "linked_list"):
            raise ValueError(f"unknown duplicate_mode: {duplicate_mode!r}")
        self.min_density, self.avg_density, self.max_density = density_bounds
        # Node-size limits are *bytes* in ALEX (16MB / 512KB caps), so a
        # lower fill factor means fewer keys per node: ALEX-M (fill 0.2)
        # gets ~3.5x more data nodes and therefore finer-grained leaf
        # models — the accuracy gain behind Figure 9.
        density_scale = self.avg_density / 0.7
        self.max_data_keys = max(64, int(max_data_keys * density_scale))
        self.target_leaf_keys = max(32, int(target_leaf_keys * density_scale))
        self.max_fanout = max_fanout
        self.duplicate_mode = duplicate_mode
        self._root: Any = self._new_data_node([])
        self.smo_count = 0
        self.expand_count = 0
        self.split_count = 0

    @property
    def supports_duplicates(self) -> bool:  # type: ignore[override]
        return self.duplicate_mode is not None

    @property
    def _array_build_min(self) -> int:  # type: ignore[override]
        """The door's array threshold: the module constant, read at
        each load."""
        return _ARRAY_BUILD_MIN

    # -- node construction ---------------------------------------------------

    def _new_data_node(self, items: Sequence[Tuple[Key, Value]]) -> _DataNode:
        """Build a data node at average density with model-based layout."""
        node = _DataNode(self._next_node_id())
        n = len(items)
        cap = max(8, int(math.ceil(n / self.avg_density)))
        node.keys = [_GAP_HIGH] * cap
        node.values = [None] * cap
        node.present = bytearray(cap)
        node.num_keys = n
        self.meter.charge(ALLOC_NODE)
        self.meter.charge(SLOT_INIT, cap)
        if n == 0:
            return node
        keys = [k for k, _ in items]
        node.model = LinearModel.train(keys).scaled(cap / max(n, 1))
        self.meter.charge(TRAIN_KEY, n)
        self._model_place(node, items)
        self._fill_gaps(node)
        return node

    @staticmethod
    def _model_place(node: _DataNode, items: Sequence[Tuple[Key, Value]]) -> None:
        """Model-based placement: each key at ``max(prediction, prev+1)``,
        with the tail compacted left when predictions overflow capacity.

        Keys whose predictions collapse (e.g. a dense cluster under a
        nearly-flat local slope) pack into contiguous runs — exactly the
        runs whose shifting makes hard datasets hard for ALEX."""
        cap = node.capacity
        positions: List[int] = []
        pos = -1
        predict = node.model.predictor(cap)
        for k, _ in items:
            pos = max(predict(k), pos + 1)
            positions.append(pos)
        limit = cap - 1
        for i in range(len(items) - 1, -1, -1):
            if positions[i] > limit:
                positions[i] = limit
            limit = positions[i] - 1
        for (k, v), p in zip(items, positions):
            node.keys[p] = k
            node.values[p] = v
            node.present[p] = 1

    @staticmethod
    def _fill_gaps(node: _DataNode) -> None:
        """Rewrite gap slots with their nearest occupied right key."""
        nxt = _GAP_HIGH
        for i in range(node.capacity - 1, -1, -1):
            if node.present[i]:
                nxt = node.keys[i]
            else:
                node.keys[i] = nxt

    # -- bulk load --------------------------------------------------------------

    def _load(self, items: Sequence[Tuple[Key, Value]], ks: Any) -> None:
        # Read only, never kept: a list is built from as it is.
        build_items = items if isinstance(items, list) else list(items)
        if self.duplicate_mode == "linked_list" and build_items:
            # The storage scheme applies at bulk load too: one slot per
            # distinct key, duplicates chained off it.
            grouped: List[Tuple[Key, Value]] = []
            for k, v in build_items:
                if grouped and grouped[-1][0] == k:
                    prev = grouped[-1][1]
                    if isinstance(prev, _DupChain):
                        prev.values.append(v)
                    else:
                        grouped[-1] = (k, _DupChain([prev, v]))
                        self.meter.charge(ALLOC_NODE)
                else:
                    grouped.append((k, v))
            build_items = grouped
            if ks is not None:
                ks = batching.int64_cache(batching.key_list(grouped))
        if ks is None:
            self._root = self._bulk_build(build_items)
        else:
            self._root = self._bulk_build_arrays(ks, build_items, 0, len(ks))
        self._link_leaves()

    def _bulk_build(self, items: List[Tuple[Key, Value]]) -> Any:
        n = len(items)
        if n <= self.target_leaf_keys:
            return self._new_data_node(items)
        fanout = 1 << max(1, math.ceil(math.log2(n / self.target_leaf_keys)))
        fanout = min(fanout, self.max_fanout)
        lo, hi = items[0][0], items[-1][0]
        model = LinearModel.endpoints(lo, hi + 1, fanout + 1)
        self.meter.charge(TRAIN_KEY, 2)
        # Partition items by predicted slot.
        groups: List[List[Tuple[Key, Value]]] = [[] for _ in range(fanout)]
        for it in items:
            s = min(model.predict_clamped(it[0], fanout + 1), fanout - 1)
            groups[s].append(it)
        if max(len(g) for g in groups) == n:
            # Model failed to partition (extreme skew): split by median.
            mid = n // 2
            boundary = items[mid][0]
            slope = 1.0 / max(boundary - items[0][0], 1)
            model = LinearModel(slope, 0.0, items[0][0])
            split_at = self._routed_split_at(model, items, 2, 1)
            if split_at == 0 or split_at == n:
                # Routing cannot separate the keys at all: one big leaf.
                return self._new_data_node(items)
            groups = [items[:split_at], items[split_at:]]
            fanout = 2
        children: List[Any] = [None] * fanout
        prev_child: Any = None
        for s in range(fanout):
            if groups[s]:
                prev_child = self._bulk_build(groups[s])
            elif prev_child is None:
                prev_child = self._new_data_node([])
            children[s] = prev_child
        # Leading empties fixed up to the first real child.
        first = next(c for c in children if c is not None)
        for s in range(fanout):
            if children[s] is None:
                children[s] = first
        inner = _InnerNode(self._next_node_id(), model, children)
        self.meter.charge(ALLOC_NODE)
        return inner

    # The array build: ``_bulk_build`` with the keys as one int64 array
    # ``ks`` beside ``items``, each node a range ``lo:hi`` of both — the
    # same nodes in the same order, so ids and charges come out equal —
    # with one model evaluation per node where the recursion above
    # makes one per key.

    def _bulk_build_arrays(self, ks: Any, items: List[Tuple[Key, Value]],
                           lo: int, hi: int) -> Any:
        n = hi - lo
        if n <= self.target_leaf_keys:
            return self._new_data_node_arrays(ks[lo:hi], items[lo:hi])
        np = batching._np
        fanout = 1 << max(1, math.ceil(math.log2(n / self.target_leaf_keys)))
        fanout = min(fanout, self.max_fanout)
        first = items[lo][0]
        model = LinearModel.endpoints(first, items[hi - 1][0] + 1, fanout + 1)
        self.meter.charge(TRAIN_KEY, 2)
        # Sorted keys under a monotone model: the keys of a slot are one
        # run, and the partition is where the runs start.
        slots = batching.predict_clamped_vec(model, ks[lo:hi], fanout + 1)
        bounds = np.searchsorted(np.minimum(slots, fanout - 1, out=slots),
                                 np.arange(fanout + 1))
        del slots  # a root's is as long as the input: gone before its children
        if int(bounds[1]) == n:
            # Model failed to partition (slot 0, where the first key is,
            # has them all): split by median.
            model = LinearModel(
                1.0 / max(items[lo + n // 2][0] - first, 1), 0.0, first)
            split_at = int(np.searchsorted(
                batching.predict_clamped_vec(model, ks[lo:hi], 2), 1))
            if split_at == 0 or split_at == n:
                # Routing cannot separate the keys at all: one big leaf.
                return self._new_data_node_arrays(ks[lo:hi], items[lo:hi])
            bounds = np.asarray([0, split_at, n])
        bounds = (bounds + lo).tolist()
        # An empty slot shares the child on its left; slot 0 is never
        # empty (either model puts its anchor, the first key, there).
        children: List[Any] = []
        for a, b in zip(bounds, bounds[1:]):
            children.append(self._bulk_build_arrays(ks, items, a, b)
                            if b > a else children[-1])
        inner = _InnerNode(self._next_node_id(), model, children)
        self.meter.charge(ALLOC_NODE)
        return inner

    def _new_data_node_arrays(self, ks: Any,
                              items: List[Tuple[Key, Value]]) -> _DataNode:
        """``_new_data_node`` with the keys also as an array.
        ``_model_place`` puts key ``i`` at ``max(prediction, previous +
        1)``, so ``slot - i`` is a running maximum, and its compaction
        from the tail cuts that never-falling sequence off at ``cap -
        n``; ``_fill_gaps`` repeats each key over the gap run on its
        left."""
        n = len(items)
        if n < _ARRAY_BUILD_MIN:
            return self._new_data_node(items)
        np = batching._np
        kobj, vobj = batching.object_columns(items)
        node = _DataNode(self._next_node_id())
        cap = max(8, int(math.ceil(n / self.avg_density)))
        node.num_keys = n
        self.meter.charge(ALLOC_NODE)
        self.meter.charge(SLOT_INIT, cap)
        node.model = LinearModel.train_array(ks, items[0][0]).scaled(cap / n)
        self.meter.charge(TRAIN_KEY, n)
        rank = np.arange(n)
        pos = batching.predict_clamped_vec(node.model, ks, cap) - rank
        pos = np.minimum(np.maximum.accumulate(pos), cap - n) + rank
        node.keys = (np.repeat(kobj, np.diff(pos, prepend=-1)).tolist()
                     + [_GAP_HIGH] * (cap - 1 - int(pos[-1])))
        values = np.empty(cap, dtype=object)
        values[pos] = vobj
        node.values = values.tolist()
        present = np.zeros(cap, dtype=np.uint8)
        present[pos] = 1
        node.present = bytearray(present)
        return node

    def _link_leaves(self) -> None:
        leaves: List[_DataNode] = []
        seen = set()

        def walk(node: Any) -> None:
            if isinstance(node, _DataNode):
                if id(node) not in seen:
                    seen.add(id(node))
                    leaves.append(node)
                return
            for c in node.children:
                walk(c)

        walk(self._root)
        for a, b in zip(leaves, leaves[1:]):
            a.next = b
            b.prev = a
        if leaves:
            leaves[0].prev = None
            leaves[-1].next = None

    # -- traversal ----------------------------------------------------------------

    def _descend(self, key: Key, path: Optional[List[int]] = None) -> Tuple[_DataNode, List[Tuple[_InnerNode, int]]]:
        """Walk root to data node, computing each child slot from the
        inner node's model.  Charges ``PHASE_TRAVERSE`` once per kind:
        one hop per node, one model evaluation per inner node."""
        node = self._root
        parents: List[Tuple[_InnerNode, int]] = []
        while isinstance(node, _InnerNode):
            if path is not None:
                path.append(node.node_id)
            slot = node.child_slot(key)
            parents.append((node, slot))
            node = node.children[slot]
        if path is not None:
            path.append(node.node_id)
        charge = self.meter.charge_phased
        charge(PHASE_TRAVERSE, NODE_HOP, len(parents) + 1)
        if parents:
            charge(PHASE_TRAVERSE, MODEL_EVAL, len(parents))
        return node, parents

    def _leaf_lower_bound(self, node: _DataNode, key: Key) -> Tuple[int, int]:
        """Exponential search from the model prediction, metered; returns
        ``(slot, probes)`` where slot is the leftmost slot with value >= key."""
        self.meter.charge(MODEL_EVAL)
        lo, probes, hint = self._exponential_search(node, key)
        charge_local_search(self.meter, probes, lo - hint)
        return lo, probes

    @staticmethod
    def _exponential_search(node: _DataNode, key: Key) -> Tuple[int, int, int]:
        """``(slot, probes, hint)``: the leftmost slot with value >= key,
        found by doubling steps away from the model's ``hint`` and a
        binary search between the last two.  Charges nothing."""
        cap = node.capacity
        hint = node.model.predict_clamped(key, cap)
        keys = node.keys
        probes = 1
        if keys[hint] >= key:
            bound = 1
            lo = hint - bound
            while lo >= 0 and keys[lo] >= key:
                probes += 1
                bound <<= 1
                lo = hint - bound
            lo = max(lo, 0)
            hi = hint
        else:
            bound = 1
            hi = hint + bound
            while hi < cap and keys[hi] < key:
                probes += 1
                bound <<= 1
                hi = hint + bound
            hi = min(hi, cap)
            lo = hint
        while lo < hi:
            probes += 1
            mid = (lo + hi) // 2
            if keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo, probes, hint

    @staticmethod
    def _occupied_at(node: _DataNode, pos: int, key: Key) -> int:
        """First occupied slot >= pos whose value still equals ``key``.
        Returns -1 when the key is not present."""
        cap = node.capacity
        while pos < cap and node.keys[pos] == key:
            if node.present[pos]:
                return pos
            pos += 1
        return -1

    # -- lookup ------------------------------------------------------------------

    def lookup(self, key: Key) -> Optional[Value]:
        path: List[int] = []
        node, _ = self._descend(key, path)
        with self.meter.phase(PHASE_SEARCH):
            pos, probes = self._leaf_lower_bound(node, key)
            occ = self._occupied_at(node, pos, key)
        found = occ >= 0
        self.last_op = OpRecord(
            op="lookup", key=key, found=found, path=path,
            nodes_traversed=len(path), search_distance=probes,
        )
        if not found:
            return None
        value = node.values[occ]
        if self.duplicate_mode == "linked_list" and isinstance(value, _DupChain):
            self.meter.charge(NODE_HOP)  # pointer chase to the chain
            return value.values[0]
        return value

    def _lookup_batch(self, keys: Sequence[Key]):
        """Batch lookup over the cached :class:`_BatchLayout`.  The keys
        still at an inner node step down together, a level at a time:
        one model evaluation per key on its node's model, one gather
        from the flat child table.  Each key then takes its rank in its
        leaf's live list by C ``bisect`` (the gapped array stays sorted
        by its gap copies), and one replay of the exponential search
        over every key's ``(leaf model, capacity, rank)`` counts the
        probes (``keys[x] >= key`` is ``x >= rank``).  The layout is
        built by the first batch after a load or an SMO (expansions and
        splits drop it through ``_invalidate_batch_cache``).  Bails
        under duplicate modes.
        """
        if self.duplicate_mode is not None:
            return None
        ks = batching.key_array(keys)
        if ks is None:
            return None
        np = batching._np
        layout = self._batch_cache
        if layout is None:
            layout = self._batch_cache = _BatchLayout(self._root)
        B = len(ks)
        slopes, intercepts, anchors = layout.inner_models
        fans, bases, table = layout.fans, layout.bases, layout.table
        depth = np.zeros(B, dtype=np.int64)
        leaf_of = np.zeros(B, dtype=np.int64)
        # ``down`` holds the keys still at an inner node, ``at`` that
        # node's number, ``kd`` their keys.
        down = np.arange(B) if len(fans) else np.arange(0)
        at = np.zeros(len(down), dtype=np.int64)
        kd = ks
        while down.size:
            slots = batching.clamp_slots(batching.predict_vec(
                slopes[at], intercepts[at], anchors[at], kd), fans[at])
            child = table[bases[at] + slots]
            depth[down] += 1
            leaf = child < 0
            leaf_of[down[leaf]] = ~child[leaf]
            stays = ~leaf
            down, at, kd = down[stays], child[stays], kd[stays]
        nodes = list(map(layout.leaves.__getitem__, leaf_of.tolist()))
        kl = ks.tolist()
        rank = list(map(bisect_left, [node.keys for node in nodes], kl))
        # ``_occupied_at``: the gaps from the rank on copy the first
        # occupied slot after them, which holds ``key`` iff it is there.
        occ = list(map(bytearray.find, [node.present for node in nodes],
                       repeat(1), rank))
        found = [o >= 0 and node.keys[o] == key
                 for node, o, key in zip(nodes, occ, kl)]
        values: List[Optional[Value]] = [
            node.values[o] if hit else None
            for node, o, hit in zip(nodes, occ, found)]
        caps = layout.caps[leaf_of]
        hint = batching.clamp_slots(batching.predict_vec(
            *(m[leaf_of] for m in layout.leaf_models), ks), caps)
        probes, lo = batching.simulate_exponential(
            hint, np.asarray(rank, dtype=np.int64), caps)
        cp = batching.local_search_lines(lo - hint)
        log = batching.ChargeLog(B)
        log.add(PHASE_TRAVERSE, NODE_HOP, depth + 1)
        log.add(PHASE_TRAVERSE, MODEL_EVAL, depth, reached=depth > 0)
        log.add(PHASE_SEARCH, MODEL_EVAL, np.ones(B, dtype=np.int64))
        log.add(PHASE_SEARCH, KEY_COMPARE, probes)
        log.add(PHASE_SEARCH, CACHE_PROBE, cp, reached=cp > 0)
        probes_list = probes.tolist()

        def make_record(i: int) -> OpRecord:
            key = keys[i]
            path: List[int] = []
            node = self._root
            while isinstance(node, _InnerNode):
                path.append(node.node_id)
                node = node.children[node.child_slot(key)]
            path.append(node.node_id)
            return OpRecord(
                op="lookup", key=key, found=found[i], path=path,
                nodes_traversed=len(path), search_distance=probes_list[i],
            )

        return batching.BatchLookup(values, log, make_record)

    # -- insert ------------------------------------------------------------------

    def insert(self, key: Key, value: Value) -> bool:
        path: List[int] = []
        node, parents = self._descend(key, path)
        with self.meter.phase(PHASE_SEARCH):
            pos, probes = self._leaf_lower_bound(node, key)
            occ = self._occupied_at(node, pos, key)
        if occ >= 0:
            handled = self._insert_duplicate(node, occ, key, value, path, probes)
            if handled is not None:
                return handled
        shifted = self._place(node, pos, key, value)
        node.num_keys += 1
        self._size += 1
        with self.meter.phase(PHASE_STATS):
            node.inserts_since_build += 1
            node.shifts_since_build += shifted
            node.search_since_build += probes
            self.meter.charge(STATS_UPDATE)
        created = 0
        smo = False
        if node.density() > self.max_density:
            with self.meter.phase(PHASE_SMO):
                created = self._smo(node, parents)
            smo = True
        self.last_op = OpRecord(
            op="insert", key=key, path=path, nodes_traversed=len(path),
            keys_shifted=shifted, nodes_created=created, smo=smo,
            search_distance=probes,
        )
        return True

    def _insert_duplicate(
        self,
        node: _DataNode,
        occ: int,
        key: Key,
        value: Value,
        path: List[int],
        probes: int,
    ) -> Optional[bool]:
        """Handle an insert that hit an existing key.

        Returns True/False when fully handled, or None to fall through to
        a normal placement (inline duplicate mode).
        """
        if self.duplicate_mode is None:
            self.last_op = OpRecord(
                op="insert", key=key, found=True, path=path,
                nodes_traversed=len(path), search_distance=probes,
            )
            return False
        if self.duplicate_mode == "linked_list":
            with self.meter.phase(PHASE_COLLISION):
                current = node.values[occ]
                if isinstance(current, _DupChain):
                    # Head push: write a slab-allocated cell and swap the
                    # head pointer — no chain traversal, no key shifting.
                    # This is why the linked list wins inserts (Fig. B).
                    current.values.append(value)
                    self.meter.charge(SLOT_INIT, 2)
                else:
                    node.values[occ] = _DupChain([current, value])
                    self.meter.charge(ALLOC_NODE)
            self._size += 1  # chain entries live off-node; num_keys unchanged
            self.last_op = OpRecord(
                op="insert", key=key, found=True, path=path,
                nodes_traversed=len(path), search_distance=probes,
            )
            return True
        return None  # inline: place a second copy next to the first

    def _place(self, node: _DataNode, pos: int, key: Key, value: Value) -> int:
        """Put ``key`` into the array at/near ``pos``; returns keys shifted.

        Gap-run ends come from ``bytearray.find`` / ``rfind`` on the
        bitmap and a shift is one slice assignment per column: the slots
        written, and the ``SLOT_INIT`` / ``KEY_SHIFT`` units charged to
        ``PHASE_COLLISION`` for them, are those of a slot-by-slot mover."""
        keys, values, present = node.keys, node.values, node.present
        cap = len(keys)
        if pos < cap and not present[pos]:
            # Gap run: slots pos..first_occupied-1 all hold the same
            # copied value; place at the prediction-closest legal slot.
            end = present.find(1, pos)
            if end < 0:
                end = cap
            hint = node.model.predict_clamped(key, cap)
            target = min(max(hint, pos), end - 1)
            keys[pos:target + 1] = [key] * (target - pos + 1)
            values[target] = value
            present[target] = 1
            self.meter.charge_phased(PHASE_COLLISION, SLOT_INIT,
                                     target - pos + 1)
            return 0
        # Occupied (or past the end): shift toward the nearest gap.  The
        # left one is looked for only where it would beat the right one.
        right = present.find(0, pos)
        if right < 0:
            right = cap
            reach = pos + 1
        else:
            reach = right - pos
        left = present.rfind(0, max(pos - reach + 1, 0), pos)
        if left >= 0:
            keys[left:pos - 1] = keys[left + 1:pos]
            values[left:pos - 1] = values[left + 1:pos]
            present[left] = 1
            keys[pos - 1] = key
            values[pos - 1] = value
            shifted = pos - 1 - left
        elif right < cap:
            keys[pos + 1:right + 1] = keys[pos:right]
            values[pos + 1:right + 1] = values[pos:right]
            present[right] = 1
            keys[pos] = key
            values[pos] = value
            shifted = reach
        else:
            # No gap at all (should be prevented by density SMOs, but
            # handle defensively): expand immediately, then retry.
            with self.meter.phase(PHASE_COLLISION):
                self._expand(node)
                return self._place(
                    node, self._leaf_lower_bound(node, key)[0], key, value)
        self.meter.charge_phased(PHASE_COLLISION, KEY_SHIFT, shifted)
        return shifted

    # -- SMOs --------------------------------------------------------------------

    def _smo(self, node: _DataNode, parents: List[Tuple[_InnerNode, int]]) -> int:
        """Expand or split an over-dense node; returns nodes created."""
        self._invalidate_batch_cache()
        self.smo_count += 1
        inserts = max(node.inserts_since_build, 1)
        avg_shift = node.shifts_since_build / inserts
        avg_search = node.search_since_build / inserts
        model_degraded = avg_shift > 16.0 or avg_search > 12.0
        too_big = node.num_keys * 2 > self.max_data_keys
        if too_big or (model_degraded and node.num_keys > self.target_leaf_keys):
            return self._split_sideways(node, parents)
        self._expand(node)
        self.expand_count += 1
        return 0

    def _expand(self, node: _DataNode) -> None:
        self._invalidate_batch_cache()
        items = node.occupied_items()
        n = len(items)
        cap = max(8, int(math.ceil(n / self.avg_density)))
        node.keys = [_GAP_HIGH] * cap
        node.values = [None] * cap
        node.present = bytearray(cap)
        keys = [k for k, _ in items]
        node.model = LinearModel.train(keys).scaled(cap / max(n, 1))
        self.meter.charge(TRAIN_KEY, n)
        self.meter.charge(SLOT_INIT, cap)
        self.meter.charge(KEY_SHIFT, n)
        self._model_place(node, items)
        self._fill_gaps(node)
        node.inserts_since_build = 0
        node.shifts_since_build = 0
        node.search_since_build = 0

    @staticmethod
    def _routed_split_at(
        model: LinearModel, items: Sequence[Tuple[Key, Value]], fanout: int, slot: int
    ) -> int:
        """First item index the ``model`` routes to a child slot >= ``slot``.

        Items MUST be partitioned with the same routing function traversal
        uses: a key comparison against a float boundary can disagree with
        ``predict_clamped`` in the last ulp and strand the boundary key in
        a child that lookups never visit.
        """
        lo, hi = 0, len(items)
        while lo < hi:
            mid = (lo + hi) // 2
            if model.predict_clamped(items[mid][0], fanout) < slot:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _split_sideways(self, node: _DataNode, parents: List[Tuple[_InnerNode, int]]) -> int:
        self.split_count += 1
        if not parents:
            # Node is the root: grow a new inner node above it.
            items = node.occupied_items()
            mid = len(items) // 2
            boundary = items[mid][0]
            lo = items[0][0]
            # Fanout-2 model with the boundary between the two slots.
            slope = 1.0 / max(boundary - lo, 1)
            model = LinearModel(slope, 0.0, lo)
            split_at = self._routed_split_at(model, items, 2, 1)
            if split_at == 0 or split_at == len(items):
                # The model cannot separate the keys: retrain in place.
                self._expand(node)
                self.expand_count += 1
                return 0
            left = self._new_data_node(items[:split_at])
            right = self._new_data_node(items[split_at:])
            left.prev, left.next = node.prev, right
            right.prev, right.next = left, node.next
            if node.prev is not None:
                node.prev.next = left
            if node.next is not None:
                node.next.prev = right
            inner = _InnerNode(self._next_node_id(), model, [left, right])
            self.meter.charge(ALLOC_NODE)
            self._root = inner
            return 3
        parent, slot = parents[-1]
        # Contiguous run of parent slots pointing at this node.
        s0 = slot
        while s0 > 0 and parent.children[s0 - 1] is node:
            s0 -= 1
        s1 = slot + 1
        while s1 < len(parent.children) and parent.children[s1] is node:
            s1 += 1
        if s1 - s0 >= 2:
            # Split the slot run where the parent model routes keys to b+.
            b = (s0 + s1) // 2
            items = node.occupied_items()
            split_at = self._routed_split_at(
                parent.model, items, len(parent.children), b
            )
            if split_at == 0 or split_at == len(items):
                # All keys routed to one side of the slot boundary: the
                # parent model cannot separate them — split downward.
                return self._split_down(node, parent, s0, s1)
            left = self._new_data_node(items[:split_at])
            right = self._new_data_node(items[split_at:])
            self._replace_run(parent, s0, b, s1, node, left, right)
            return 2
        # Single slot: double the parent fanout (if allowed) and retry.
        if len(parent.children) * 2 <= self.max_fanout:
            self._double_fanout(parent)
            # Slot indices doubled with the fanout: refresh before retrying.
            parents[-1] = (parent, slot * 2)
            return 1 + self._split_sideways(node, parents)
        # Parent at max fanout: split downward into a new fanout-2 inner.
        return self._split_down(node, parent, s0, s1)

    def _split_down(self, node: _DataNode, parent: _InnerNode, s0: int, s1: int) -> int:
        """Replace ``node`` with a fanout-2 inner splitting at the median."""
        items = node.occupied_items()
        mid = len(items) // 2
        if mid == 0 or items[mid][0] == items[0][0]:
            # Fewer than two distinct keys: nothing to split on.
            self._expand(node)
            self.expand_count += 1
            return 0
        boundary = items[mid][0]
        slope = 1.0 / max(boundary - items[0][0], 1)
        model = LinearModel(slope, 0.0, items[0][0])
        split_at = self._routed_split_at(model, items, 2, 1)
        if split_at == 0 or split_at == len(items):
            self._expand(node)
            self.expand_count += 1
            return 0
        left = self._new_data_node(items[:split_at])
        right = self._new_data_node(items[split_at:])
        inner = _InnerNode(self._next_node_id(), model, [left, right])
        self.meter.charge(ALLOC_NODE)
        self._splice_leaf_links(node, left, right)
        for s in range(s0, s1):
            parent.children[s] = inner
        return 3

    def _slot_boundary_key(self, parent: _InnerNode, slot: int) -> Key:
        """Smallest key the parent model routes to ``slot``."""
        return parent.model.inverse(slot)

    def _replace_run(
        self,
        parent: _InnerNode,
        s0: int,
        b: int,
        s1: int,
        node: _DataNode,
        left: _DataNode,
        right: _DataNode,
    ) -> None:
        for s in range(s0, b):
            parent.children[s] = left
        for s in range(b, s1):
            parent.children[s] = right
        self.meter.charge(SLOT_INIT, s1 - s0)
        self._splice_leaf_links(node, left, right)

    def _splice_leaf_links(self, old: _DataNode, left: _DataNode, right: _DataNode) -> None:
        left.prev, left.next = old.prev, right
        right.prev, right.next = left, old.next
        if old.prev is not None:
            old.prev.next = left
        if old.next is not None:
            old.next.prev = right

    def _double_fanout(self, parent: _InnerNode) -> None:
        new_children: List[Any] = []
        for c in parent.children:
            new_children.append(c)
            new_children.append(c)
        parent.children = new_children
        parent.model = parent.model.scaled(2.0)
        self.meter.charge(ALLOC_NODE)
        self.meter.charge(SLOT_INIT, len(new_children))

    # -- update / delete -----------------------------------------------------------

    def update(self, key: Key, value: Value) -> bool:
        node, _ = self._descend(key)
        with self.meter.phase(PHASE_SEARCH):
            pos, _ = self._leaf_lower_bound(node, key)
            occ = self._occupied_at(node, pos, key)
        if occ < 0:
            return False
        node.values[occ] = value
        self.meter.charge(KEY_SHIFT)
        return True

    def delete(self, key: Key) -> bool:
        path: List[int] = []
        node, parents = self._descend(key, path)
        with self.meter.phase(PHASE_SEARCH):
            pos, probes = self._leaf_lower_bound(node, key)
            occ = self._occupied_at(node, pos, key)
        if occ < 0:
            self.last_op = OpRecord(
                op="delete", key=key, found=False, path=path,
                nodes_traversed=len(path),
            )
            return False
        with self.meter.phase(PHASE_COLLISION):
            node.present[occ] = 0
            node.values[occ] = None
            # The freed slot and gaps left of it copy the next occupied
            # key; slot occ+1 already holds it (occupied or gap copy).
            nxt = node.keys[occ + 1] if occ + 1 < node.capacity else _GAP_HIGH
            i = occ
            rewrites = 0
            while i >= 0 and not node.present[i]:
                node.keys[i] = nxt
                rewrites += 1
                i -= 1
            self.meter.charge(SLOT_INIT, rewrites)
        node.num_keys -= 1
        self._size -= 1
        smo = False
        if node.capacity > 16 and node.density() < self.min_density / 2:
            with self.meter.phase(PHASE_SMO):
                self._expand(node)  # contraction: same retrain machinery
            smo = True
        self.last_op = OpRecord(
            op="delete", key=key, found=True, path=path,
            nodes_traversed=len(path), smo=smo, search_distance=probes,
        )
        return True

    # -- scans -----------------------------------------------------------------

    def range_scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        out: List[Tuple[Key, Value]] = []
        node, _ = self._descend(start)
        pos, _ = self._leaf_lower_bound(node, start)
        chains = self.duplicate_mode == "linked_list"
        # Units per kind, keyed in the order the walk first meets each:
        # a row copied out, a gap skipped (bitmap word), a leaf hop.
        tally: Dict[str, int] = {}
        cur: Optional[_DataNode] = node
        while cur is not None and len(out) < count:
            keys, values, present = cur.keys, cur.values, cur.present
            cap = len(keys)
            if pos < cap:
                rows = len(out)
                # The walk from ``pos`` drops gaps at C speed (``compress``
                # over the bitmap) and stops right after the slot that
                # fills the scan, else at the leaf's end; ``flags`` is
                # left there, so ``end`` is read off it.
                flags = _iter_from(present, pos)
                if chains:
                    used = 0
                    for slot in compress(range(pos, cap), flags):
                        used += 1
                        value = values[slot]
                        if isinstance(value, _DupChain):
                            key = keys[slot]
                            out.extend([(key, v) for v
                                        in value.values[:count - len(out)]])
                        else:
                            out.append((keys[slot], value))
                        if len(out) >= count:
                            break
                else:
                    out.extend(islice(compress(
                        zip(_iter_from(keys, pos), _iter_from(values, pos)),
                        flags), count - rows))
                    used = len(out) - rows
                end = cap - length_hint(flags)
                # Gaps walked: the slots walked less the ``used`` ones.
                units = ((SCAN_ENTRY, len(out) - rows),
                         (SLOT_INIT, end - pos - used))
                for kind, n in units if present[pos] else units[::-1]:
                    if n:
                        tally[kind] = tally.get(kind, 0) + n
            cur = cur.next
            pos = 0
            if cur is not None:
                tally[NODE_HOP] = tally.get(NODE_HOP, 0) + 1
        self._charge_tally(tally)
        return out

    # -- memory -----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        inner = 0
        leaf = 0
        seen = set()
        stack = [self._root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, _InnerNode):
                inner += _INNER_HEADER_BYTES + len(node.children) * POINTER_BYTES
                stack.extend(node.children)
            else:
                # Gapped arrays: capacity slots of key+payload + bitmap.
                leaf += (
                    _DATA_HEADER_BYTES
                    + node.capacity * (KEY_BYTES + PAYLOAD_BYTES)
                    + node.capacity // 8
                )
        return MemoryBreakdown(inner=inner, leaf=leaf)

    # -- introspection ------------------------------------------------------------

    def data_nodes(self) -> List[_DataNode]:
        out: List[_DataNode] = []
        seen = set()
        stack = [self._root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, _InnerNode):
                stack.extend(node.children)
            else:
                out.append(node)
        return out

    # -- validation ---------------------------------------------------------------

    def debug_validate(self) -> List[Violation]:
        """Gapped-array invariants: sorted slots, gap copies of the
        nearest occupied right neighbour, present-bitmap accounting,
        the post-SMO density ceiling, the doubly linked leaf chain,
        model routing (every stored key must descend back to the leaf
        that holds it), and a cached batch layout, if any, against a
        fresh build.  Walks nodes directly; never charges the meter.
        """
        out: List[Violation] = []
        ordered: List[_DataNode] = []

        def walk(node: Any) -> None:
            if isinstance(node, _DataNode):
                ordered.append(node)
                return
            prev_child = None
            for child in node.children:
                if child is prev_child:
                    continue  # adjacent slots may share one child
                prev_child = child
                walk(child)

        walk(self._root)

        for node in ordered:
            cap = node.capacity
            if not (len(node.values) == len(node.present) == cap):
                out.append(Violation(
                    node.node_id, "alex.slot-arrays",
                    f"keys/values/present lengths {cap}/"
                    f"{len(node.values)}/{len(node.present)} differ"))
                continue
            occupied = cap - node.present.count(0)
            if occupied != node.num_keys:
                out.append(Violation(
                    node.node_id, "alex.present-count",
                    f"num_keys={node.num_keys} but {occupied} slots "
                    f"are present"))
            out.extend(sorted_violations(
                node.keys, node.node_id, "alex.keys-sorted", strict=False))
            # Gap copies: scanning right-to-left, a gap must repeat the
            # nearest occupied key to its right (_GAP_HIGH past the end).
            expect = _GAP_HIGH
            for i in range(cap - 1, -1, -1):
                if node.present[i]:
                    expect = node.keys[i]
                elif node.keys[i] != expect:
                    out.append(Violation(
                        node.node_id, "alex.gap-copy",
                        f"gap slot {i} holds {node.keys[i]}, expected a "
                        f"copy of {expect}"))
                    break
            if node.density() > self.max_density + 1e-9:
                out.append(Violation(
                    node.node_id, "alex.density",
                    f"density {node.density():.3f} exceeds max_density "
                    f"{self.max_density} (missed SMO)"))

        # Leaf chain: prev/next must thread the in-order leaves exactly.
        for i, node in enumerate(ordered):
            before = ordered[i - 1] if i > 0 else None
            after = ordered[i + 1] if i + 1 < len(ordered) else None
            if node.prev is not before or node.next is not after:
                out.append(Violation(
                    node.node_id, "alex.leaf-chain",
                    "prev/next links disagree with in-order traversal"))
                break

        # Cross-leaf ordering + model routing + size accounting.
        strict = self.duplicate_mode is None
        last_key: Optional[Key] = None
        total = 0
        for node in ordered:
            for i in range(node.capacity):
                if not node.present[i]:
                    continue
                k = node.keys[i]
                if last_key is not None and (
                        k < last_key or (strict and k == last_key)):
                    out.append(Violation(
                        node.node_id, "alex.chain-order",
                        f"key {k} not above previous leaf key {last_key}"))
                last_key = k
                v = node.values[i]
                total += len(v.values) if isinstance(v, _DupChain) else 1
            for k, _ in node.occupied_items():
                cur = self._root
                while isinstance(cur, _InnerNode):
                    cur = cur.children[cur.child_slot(k)]
                if cur is not node:
                    out.append(Violation(
                        node.node_id, "alex.routing",
                        f"key {k} routes to node "
                        f"{getattr(cur, 'node_id', '?')} instead of its "
                        f"holder"))
                    break
        if total != self._size:
            out.append(Violation(
                0, "alex.size",
                f"leaves hold {total} entries but len(index) == "
                f"{self._size}"))
        if (self._batch_cache is not None
                and self._batch_cache != _BatchLayout(self._root)):
            out.append(Violation(
                self._root.node_id, "alex.batch-layout",
                "the cached batch layout differs from a fresh build: a "
                "structural change did not drop it"))
        return out


class _DupChain:
    """Out-of-place value list for ALEX's linked-list duplicate mode."""

    __slots__ = ("values",)

    def __init__(self, values: List[Value]) -> None:
        self.values = values
