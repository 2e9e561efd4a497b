"""LIPP — updatable learned index with precise positions (Wu et al., VLDB 2021).

LIPP eliminates last-mile search entirely ("collision-driven" in the
paper's taxonomy): every node holds a collision-minimizing linear model
(FMCD) over a sparse slot array (density 0.5, Table 1), and a key's
slot is *computed*, never searched.  Each slot is one of

* ``EMPTY``       — a gap awaiting an insert,
* a data entry    — the key lives exactly at its predicted slot,
* a child pointer — keys that collided here live in a chained subtree.

The **unified node layout** (data and child pointers interleaved in the
same array) is the design choice the paper repeatedly dissects.  Here a
node *is* that array: a ``list`` of its slots that holds its own model
and tag bytes, one object per node.  The paper's findings follow from it:

* every insert updates statistics in *every node on its path* — root
  included — which is what destroys LIPP+'s multicore scalability
  (Figure 5),
* range scans need a branch per slot to test "data or child?"
  (Message 12),
* the sparse arrays at density 0.5 plus chained nodes make LIPP the
  most memory-hungry index in Figure 8.

Inserting into an occupied slot allocates exactly one new chained node
for the two colliding keys — write amplification bounded at one node
per collision (Message 5).  Subtree rebuilds ("adjust" SMOs) trigger on
the paper's inserted/conflict ratios (2 / 0.1).

Deletion is implemented the way the paper's authors extended LIPP:
empty the slot (collapsing single-entry chains), never touching models.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.cost import (
    ALLOC_NODE,
    BRANCH,
    KEY_COMPARE,
    MODEL_EVAL,
    NODE_HOP,
    PHASE_COLLISION,
    PHASE_SMO,
    PHASE_STATS,
    PHASE_TRAVERSE,
    SCAN_ENTRY,
    SLOT_INIT,
    STATS_UPDATE,
    TRAIN_KEY,
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
from repro.core.validate import Violation, first_inversion
from repro.indexes import batching
from repro.indexes.linear_model import LinearModel, fmcd_model

_EMPTY = 0
_DATA = 1
_CHILD = 2

_NODE_HEADER_BYTES = 56  # model, size, build_size, stats counters
_SLOT_BYTES = KEY_BYTES + PAYLOAD_BYTES + 1  # tagged union + type bitmap bit

#: Builds of fewer items take the scalar recursion: below this the
#: array set-up of ``_build_levels`` costs more than it saves (the
#: chained pairs and small adjust SMOs of a write stream).
_ARRAY_BUILD_MIN = 256
#: Slots ``_build_levels`` lays out at a time.  Bounds what a build
#: holds beside the tree it is building — a whole level at once is
#: several times the finished nodes — while amortising the numpy calls
#: over a few thousand small nodes.
_BUILD_BATCH_SLOTS = 1 << 16


class _LippNode(list):
    """One node, one object: the list *is* the node's unified slot
    array — each slot ``None``, the entry's own ``(key, value)`` tuple,
    or the child node — beside ``tags``, one byte per slot (``_EMPTY``
    / ``_DATA`` / ``_CHILD``), and the node holds its linear model's
    ``slope``, ``intercept`` and ``anchor`` itself.  LIPP never searches
    inside a node, so nothing needs the keys as a column of their own.
    Nodes compare, hash and print by identity, never by their slots."""

    __slots__ = (
        "node_id", "slope", "intercept", "anchor", "tags",
        "size", "build_size", "num_inserts", "num_conflicts",
    )

    predict_clamped = LinearModel.predict_clamped
    predictor = LinearModel.predictor
    __eq__, __ne__ = object.__eq__, object.__ne__
    __hash__, __repr__ = object.__hash__, object.__repr__

    def __init__(self, node_id: int, slope: float, intercept: float,
                 anchor: int, tags: bytearray, slots: List[Any],
                 size: int) -> None:
        self.extend(slots)
        self.node_id = node_id
        self.slope = slope
        self.intercept = intercept
        self.anchor = anchor
        self.tags = tags
        #: Keys stored in this subtree.
        self.size = size
        #: Subtree size when the node was (re)built.
        self.build_size = size
        #: Inserts into the subtree since the build.
        self.num_inserts = 0
        #: Inserts that hit an occupied slot since the build.
        self.num_conflicts = 0

    @property
    def capacity(self) -> int:
        return len(self)


class LIPP(OrderedIndex):
    """LIPP with the paper's Table-1 configuration.

    Parameters
    ----------
    density:
        Node fill target; LIPP's integer fill factor of 2 means capacity
        = 2 × keys (density 0.5).
    max_node_slots:
        Stand-in for the 16 MB node cap.
    insert_ratio / conflict_ratio:
        Subtree rebuild triggers (2 / 0.1 in Table 1): rebuild when the
        subtree has absorbed ``insert_ratio ×`` its build size, or when
        more than ``conflict_ratio`` of recent inserts chained new nodes.
    """

    name = "LIPP"
    is_learned = True
    supports_delete = True
    supports_range = True

    def __init__(
        self,
        density: float = 0.5,
        max_node_slots: int = 1 << 20,
        insert_ratio: float = 2.0,
        conflict_ratio: float = 0.1,
        min_rebuild_size: int = 64,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self.density = density
        self.max_node_slots = max_node_slots
        self.insert_ratio = insert_ratio
        self.conflict_ratio = conflict_ratio
        self.min_rebuild_size = min_rebuild_size
        #: Running ``memory_usage()`` totals: nodes and slots in the
        #: tree, added by ``_build_node`` and taken back wherever a
        #: subtree is dropped (``debug_validate`` cross-checks them
        #: against a full walk).
        self._n_nodes = 0
        self._n_slots = 0
        self._root = self._build_node([])
        self.rebuild_count = 0
        self.chain_count = 0

    @property
    def _array_build_min(self) -> int:  # type: ignore[override]
        """The door's array threshold: the module constant, read at
        each load."""
        return _ARRAY_BUILD_MIN

    # -- node construction ---------------------------------------------------

    def _build_node(self, items: Sequence[Tuple[Key, Value]]) -> _LippNode:
        n = len(items)
        cap = max(16, min(int(n / self.density) + 1, self.max_node_slots))
        m = fmcd_model([k for k, _ in items], cap) if n else LinearModel()
        node = _LippNode(self._next_node_id(), m.slope, m.intercept, m.anchor,
                         bytearray(cap), [None] * cap, n)
        self._n_nodes += 1
        self._n_slots += cap
        self.meter.charge(ALLOC_NODE)
        self.meter.charge(SLOT_INIT, cap)
        if n == 0:
            return node
        self.meter.charge(TRAIN_KEY, n)
        # Group colliding keys; each group of >1 becomes a chained child.
        groups: List[List[Tuple[Key, Value]]] = []
        slots: List[int] = []
        predict = node.predictor(cap)
        for it in items:
            s = predict(it[0])
            if slots and s == slots[-1]:
                groups[-1].append(it)
            else:
                slots.append(s)
                groups.append([it])
        # Monotonicity repair: FMCD clamping can fold distinct key runs
        # into the same boundary slot; merge is already handled above.
        for s, group in zip(slots, groups):
            if len(group) == 1:
                node.tags[s] = _DATA
                node[s] = group[0]
            else:
                node.tags[s] = _CHILD
                node[s] = self._build_node(group)
        return node

    def _build_pair(self, a: Tuple[Key, Value],
                    b: Tuple[Key, Value]) -> _LippNode:
        """``_build_node((a, b))`` for ``a`` below ``b``, the chained
        node of every collision: FMCD puts two keys a quarter and three
        quarters of the way along the slots, so the node is two slot
        writes — same id, counters and charges.  Should the two ever
        share a slot, the generic builder chains them."""
        cap = max(16, min(int(2 / self.density) + 1, self.max_node_slots))
        model = fmcd_model((a[0], b[0]), cap)
        sa = model.predict_clamped(a[0], cap)
        sb = model.predict_clamped(b[0], cap)
        if sa == sb:
            return self._build_node((a, b))
        tags, slots = bytearray(cap), [None] * cap
        tags[sa] = tags[sb] = _DATA
        slots[sa], slots[sb] = a, b
        node = _LippNode(self._next_node_id(), model.slope, model.intercept,
                         model.anchor, tags, slots, 2)
        self._n_nodes += 1
        self._n_slots += cap
        self.meter.charge(ALLOC_NODE)
        self.meter.charge(SLOT_INIT, cap)
        self.meter.charge(TRAIN_KEY, 2)
        return node

    def _build(self, items: Sequence[Tuple[Key, Value]]) -> _LippNode:
        """The subtree over ``items`` — by arrays when there are enough
        of them, else by the scalar recursion; the same tree, node ids
        and charges either way."""
        if len(items) < _ARRAY_BUILD_MIN:
            return self._build_node(items)
        ks = batching.int64_cache(batching.key_list(items))
        return self._build_levels(ks, items)

    def _build_levels(self, ks: Any,
                      items: Sequence[Tuple[Key, Value]]) -> _LippNode:
        """``_build_node`` level by level.  A node's keys are one run of
        the sorted input and its FMCD model a function of two of them,
        so one array pass (``_build_siblings``) fits every node of a
        level, predicts every key's slot and finds the collision groups
        (runs of equal slots) that are the next level's nodes.  The
        passes take ``_BUILD_BATCH_SLOTS`` of a level at a time; node
        ids are ``_build_node``'s pre-order, derived at the end from
        subtree node counts, and the nodes take their slots last.
        """
        np = batching._np
        # The entries as one object column, each the caller's tuple (a
        # list pair becomes one): the data slots are gathered from it.
        entries = np.fromiter(map(tuple, items), dtype=object, count=len(ks))
        sizes = np.asarray([len(ks)])  # keys of each node of this level
        picked = np.arange(len(ks))  # this level's keys: indices into ``ks``
        parent = None  # of each node of this level, one level up
        levels: List[Tuple[List[_LippNode], Any]] = []  # (nodes, parent)
        # Per batch: its nodes, their slots laid end to end as one object
        # column, their sizes and their children's places in the column.
        # The collector does not track a column, so the nodes stay empty
        # lists until the tree is linked, and no collection the build
        # triggers walks a slot.
        batches: List[Tuple[List[_LippNode], Any, List[int], Any]] = []
        above = 0  # the first batch of the level above
        total_slots = total_keys = 0
        while len(sizes):
            caps = np.maximum(16, np.minimum(
                (sizes / self.density).astype(np.int64) + 1,
                self.max_node_slots))
            key_ends, slot_ends = np.cumsum(sizes), np.cumsum(caps)
            nodes: List[_LippNode] = []
            below = []  # per batch: next level's (sizes, picked, parent)
            here, a = len(batches), 0
            while a < len(sizes):
                reach = int(slot_ends[a] - caps[a]) + _BUILD_BATCH_SLOTS
                b = max(int(np.searchsorted(slot_ends, reach, "right")), a + 1)
                batch, column, child_at, *children = self._build_siblings(
                    ks, entries,
                    picked[key_ends[a] - sizes[a]:key_ends[b - 1]],
                    sizes[a:b], caps[a:b])
                children[2] += a
                nodes += batch
                below.append(children)
                batches.append((batch, column, caps[a:b].tolist(), child_at))
                a = b
            linked = iter(nodes)  # the children of the level above, in order
            for _, column, _, child_at in batches[above:here]:
                column[child_at] = np.fromiter(linked, dtype=object,
                                               count=len(child_at))
            above = here
            levels.append((nodes, parent))
            total_slots += int(slot_ends[-1])
            total_keys += int(key_ends[-1])
            sizes, picked, parent = map(np.concatenate, zip(*below))
        del entries  # every entry is in a column now
        while batches:  # deepest first, each column dropped once read
            nodes, column, caps, _ = batches.pop()
            # A lone node (a root: 2n slots) extends from the column: no copy.
            slots = column.tolist() if len(nodes) > 1 else column
            o = 0
            for node, cap in zip(nodes, caps):
                node.extend(slots[o:o + cap])
                o += cap
        self._number(levels)
        total_nodes = sum(len(nodes) for nodes, _ in levels)
        self._n_nodes += total_nodes
        self._n_slots += total_slots
        self.meter.charge(ALLOC_NODE, total_nodes)
        self.meter.charge(SLOT_INIT, total_slots)
        self.meter.charge(TRAIN_KEY, total_keys)
        return levels[0][0][0]

    @staticmethod
    def _build_siblings(ks: Any, entries: Any,
                        picked: Any, sizes: Any, caps: Any) -> tuple:
        """Consecutive nodes of one level (ids and slots pending): node
        ``t`` holds the next ``sizes[t]`` of the keys ``picked`` in
        ``caps[t]`` slots.  Returns the nodes, still empty; their slots
        laid end to end as an object column, the data entries in place;
        and, for each child they need, its place in that column, its
        size, its keys (as ``picked``) and its parent's position among
        these nodes."""
        np = batching._np
        keys = ks[picked]
        starts = np.cumsum(sizes) - sizes
        offsets = np.cumsum(caps) - caps  # of each node in the slots laid end to end
        # fmcd_model for every node at once.
        i = sizes // 10
        j = sizes - 1 - i
        narrow = j <= i
        i[narrow] = 0
        j[narrow] = sizes[narrow] - 1
        anchor_at = starts + i
        anchors = keys[anchor_at]
        intercepts = (i + 0.5) / sizes * caps
        slopes = (((j + 0.5) / sizes * caps - intercepts)
                  / (keys[starts + j] - anchors))
        # Every key's slot, then its place in the slots laid end to end.
        # (Arrays of a root's size are dropped as soon as they are read:
        # what is live at once here is the build's peak memory.)
        alone_node = len(sizes) == 1  # its one-element arrays broadcast

        def per_key(of_node: Any) -> Any:
            return of_node if alone_node else np.repeat(of_node, sizes)

        pred = (keys - per_key(anchors)).astype(np.float64)
        del keys
        pred *= per_key(slopes)
        pred += per_key(intercepts)
        # Clipped outside every [0, cap - 1]: the clamp below decides as
        # on the raw value, and the cast cannot overflow.
        np.clip(pred, -2.0, float(caps.max()) + 2.0, out=pred)
        flat = pred.astype(np.int64)
        del pred
        np.minimum(flat, per_key(caps - 1), out=flat)
        np.maximum(flat, 0, out=flat)
        flat += per_key(offsets)
        # Runs of keys on one slot: alone a data entry, else a child.
        first = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
        run = np.diff(first, append=len(flat))
        alone = run == 1
        at = flat[first]  # the slot of each run
        del flat
        data = picked[first[alone]]
        child_sizes, child_keys = run[~alone], picked[np.repeat(~alone, run)]
        del first, run
        width = int(offsets[-1] + caps[-1])
        tag_bytes = np.zeros(width, dtype=np.uint8)
        tag_bytes[at] = np.where(alone, _DATA, _CHILD)
        tags = bytearray(tag_bytes)
        del tag_bytes
        data_at, child_at = at[alone], at[~alone]
        del at, alone
        column = np.full(width, None, dtype=object)
        column[data_at] = entries[data]
        anchor_keys = [entry[0] for entry in entries[picked[anchor_at]].tolist()]
        nodes = [
            _LippNode(0, slope, intercept, anchor, tags[o:e], (), size)
            for slope, intercept, anchor, o, e, size in zip(
                slopes.tolist(), intercepts.tolist(), anchor_keys,
                offsets.tolist(), (offsets + caps).tolist(), sizes.tolist())]
        parent = np.searchsorted(offsets, child_at, side="right") - 1
        return nodes, column, child_at, child_sizes, child_keys, parent

    def _number(self, levels: List[Tuple[List[_LippNode], Any]]) -> None:
        """Give the nodes of ``levels`` the ids a pre-order walk would
        draw: a node's id is its parent's, plus one, plus the subtree
        node counts of its earlier siblings."""
        np = batching._np
        counts = [np.ones(len(nodes), dtype=np.int64) for nodes, _ in levels]
        for depth in range(len(levels) - 1, 0, -1):
            counts[depth - 1] += np.bincount(
                levels[depth][1], counts[depth], len(counts[depth - 1])
            ).astype(np.int64)
        ids = np.asarray([self._node_serial + 1])
        self._node_serial += int(counts[0][0])
        for (nodes, parents), count in zip(levels, counts):
            if parents is not None:
                before = np.cumsum(count) - count
                eldest = np.searchsorted(parents, parents)
                ids = ids[parents] + 1 + before - before[eldest]
            for node, node_id in zip(nodes, ids.tolist()):
                node.node_id = node_id

    # -- bulk load --------------------------------------------------------------

    def _load(self, items: Sequence[Tuple[Key, Value]], ks: Any) -> None:
        self._n_nodes = self._n_slots = 0
        self._root = (self._build_node(list(map(tuple, items))) if ks is None
                      else self._build_levels(ks, items))

    # -- lookup ------------------------------------------------------------------

    def lookup(self, key: Key) -> Optional[Value]:
        node = self._root
        path: List[int] = []
        while True:
            path.append(node.node_id)
            s = node.predict_clamped(key, len(node))
            tag = node.tags[s]
            item = node[s]
            if tag != _CHILD:
                break
            node = item
        # One hop and one model evaluation per node walked, by totals.
        charge = self.meter.charge_phased
        charge(PHASE_TRAVERSE, NODE_HOP, len(path))
        charge(PHASE_TRAVERSE, MODEL_EVAL, len(path))
        charge(PHASE_TRAVERSE, KEY_COMPARE, 1)
        found = tag == _DATA and item[0] == key
        self.last_op = OpRecord(
            op="lookup", key=key, found=found, path=path,
            nodes_traversed=len(path),
        )
        return item[1] if found else None

    def _lookup_batch(self, keys: Sequence[Key]):
        """Batch lookup on the live lists, no state kept between calls:
        the root's model is evaluated once for the whole batch, and a
        key whose root slot is a child walks on by itself.  LIPP has no
        last-mile search: a lookup is a model evaluation and a slot
        read per node.
        """
        ks = batching.key_array(keys)
        if ks is None:
            return None
        np = batching._np
        B = len(ks)
        values: List[Optional[Value]] = [None] * B
        found = [False] * B
        depth = [1] * B
        root = self._root
        slots = batching.predict_clamped_vec(
            root, ks, len(root)).tolist()
        tags = map(root.tags.__getitem__, slots)
        for i, (key, s, tag) in enumerate(zip(ks.tolist(), slots, tags)):
            node = root
            while tag == _CHILD:
                node = node[s]
                depth[i] += 1
                s = node.predict_clamped(key, len(node))
                tag = node.tags[s]
            if tag == _DATA:
                item = node[s]
                if item[0] == key:
                    found[i] = True
                    values[i] = item[1]
        depth = np.asarray(depth, dtype=np.int64)
        log = batching.ChargeLog(B)
        log.add(PHASE_TRAVERSE, NODE_HOP, depth)
        log.add(PHASE_TRAVERSE, MODEL_EVAL, depth)
        log.add(PHASE_TRAVERSE, KEY_COMPARE, np.ones(B, dtype=np.int64))

        def make_record(i: int) -> OpRecord:
            key = keys[i]
            path: List[int] = []
            node = self._root
            while True:
                path.append(node.node_id)
                s = node.predict_clamped(key, len(node))
                if node.tags[s] == _CHILD:
                    node = node[s]
                    continue
                break
            return OpRecord(op="lookup", key=key, found=found[i],
                            path=path, nodes_traversed=len(path))

        return batching.BatchLookup(values, log, make_record)

    # -- insert ------------------------------------------------------------------

    def insert(self, key: Key, value: Value) -> bool:
        path_nodes: List[_LippNode] = []
        path: List[int] = []
        node = self._root
        conflict = False
        created = 0
        while True:
            path_nodes.append(node)
            path.append(node.node_id)
            s = node.predict_clamped(key, len(node))
            tag = node.tags[s]
            old = node[s]
            if tag != _CHILD:
                break
            node = old
        charge = self.meter.charge_phased
        charge(PHASE_TRAVERSE, NODE_HOP, len(path))
        charge(PHASE_TRAVERSE, MODEL_EVAL, len(path))
        if tag == _DATA and old[0] == key:
            self.last_op = OpRecord(
                op="insert", key=key, found=True, path=path,
                nodes_traversed=len(path),
            )
            return False
        if tag == _EMPTY:
            with self.meter.phase(PHASE_COLLISION):
                node.tags[s] = _DATA
                node[s] = (key, value)
                self.meter.charge(SLOT_INIT)
        else:
            # Collision: chain exactly one new node holding both entries.
            conflict = True
            self.chain_count += 1
            with self.meter.phase(PHASE_COLLISION):
                child = (self._build_pair(old, (key, value)) if old[0] < key
                         else self._build_pair((key, value), old))
                node.tags[s] = _CHILD
                node[s] = child
                created = 1
        # Statistics are updated in EVERY node on the path (the unified
        # layout forces this) — the root-contention source in Figure 5.
        for pn in path_nodes:
            pn.size += 1
            pn.num_inserts += 1
            if conflict:
                pn.num_conflicts += 1
        # Several counters per node (size, inserts, conflicts): the
        # "non-negligible, particularly pronounced in LIPP" statistics
        # cost of Figure 3.
        charge(PHASE_STATS, STATS_UPDATE, 2 * len(path_nodes))
        self._size += 1
        smo = False
        with self.meter.phase(PHASE_SMO):
            smo = self._maybe_rebuild(path_nodes)
            # LIPP bounds its tree height: a too-deep insertion path
            # forces an adjust (rebuild) halfway up the chain even if the
            # ratio triggers have not fired yet.
            if not smo and len(path_nodes) > self._depth_limit():
                smo = self._rebuild_at(path_nodes, len(path_nodes) // 2)
        self.last_op = OpRecord(
            op="insert", key=key, path=path, nodes_traversed=len(path),
            nodes_created=created, smo=smo,
        )
        return True

    def _depth_limit(self) -> int:
        """Height bound: rebuilds trigger when a path exceeds this."""
        return max(8, int(2.0 * max(self._size, 2).bit_length()))

    def _maybe_rebuild(self, path_nodes: List[_LippNode]) -> bool:
        """Rebuild the highest subtree whose ratios exceed the bounds."""
        for i, node in enumerate(path_nodes):
            if node.build_size < self.min_rebuild_size and node.size < self.min_rebuild_size:
                continue
            grown = node.num_inserts >= self.insert_ratio * max(node.build_size, 1)
            # Conflicts are measured against the subtree's *build size*
            # (Table 1's 0.1 ratio): measuring against inserts would
            # trigger an O(subtree) rebuild every few dozen operations.
            conflicted = node.num_conflicts > self.conflict_ratio * max(
                node.build_size, self.min_rebuild_size
            )
            if grown or conflicted:
                return self._rebuild_at(path_nodes, i)
        return False

    def _rebuild_at(self, path_nodes: List[_LippNode], i: int) -> bool:
        """Rebuild the subtree rooted at ``path_nodes[i]``."""
        node = path_nodes[i]
        items: List[Tuple[Key, Value]] = []
        nodes, slots = self._collect_subtree(node, items)
        if not items:
            return False
        self._n_nodes -= nodes
        self._n_slots -= slots
        rebuilt = self._build(items)
        self.rebuild_count += 1
        if i == 0:
            self._root = rebuilt
        else:
            parent = path_nodes[i - 1]
            # Find the slot pointing at this child.
            s = parent.predict_clamped(items[0][0], len(parent))
            if parent.tags[s] == _CHILD and parent[s] is node:
                parent[s] = rebuilt
            else:  # defensive: locate by scan
                for j in range(len(parent)):
                    if parent.tags[j] == _CHILD and parent[j] is node:
                        parent[j] = rebuilt
                        break
        return True

    def _collect_subtree(self, node: _LippNode,
                         items: List[Tuple[Key, Value]]) -> Tuple[int, int]:
        """Append the subtree's entries to ``items`` in key order and
        return its footprint ``(nodes, slots)`` — one walk for a caller
        that is about to drop the subtree.  Never charges the meter."""
        nodes, slots = 1, len(node.tags)
        for tag, item in zip(node.tags, node):
            if tag == _DATA:
                items.append(item)
            elif tag == _CHILD:
                n, sl = self._collect_subtree(item, items)
                nodes += n
                slots += sl
        return nodes, slots

    def _iter_subtree(self, node: _LippNode) -> Iterator[Tuple[Key, Value]]:
        for tag, item in zip(node.tags, node):
            if tag == _DATA:
                yield item
            elif tag == _CHILD:
                yield from self._iter_subtree(item)

    # -- update / delete -----------------------------------------------------------

    def update(self, key: Key, value: Value) -> bool:
        node = self._root
        depth = 1
        while True:
            s = node.predict_clamped(key, len(node))
            tag = node.tags[s]
            item = node[s]
            if tag != _CHILD:
                break
            node = item
            depth += 1
        self.meter.charge(NODE_HOP, depth)
        self.meter.charge(MODEL_EVAL, depth)
        if tag == _DATA and item[0] == key:
            node[s] = (item[0], value)
            self.meter.charge(SLOT_INIT)
            return True
        return False

    def delete(self, key: Key) -> bool:
        path_nodes: List[_LippNode] = []
        path: List[int] = []
        node = self._root
        while True:
            path_nodes.append(node)
            path.append(node.node_id)
            s = node.predict_clamped(key, len(node))
            tag = node.tags[s]
            item = node[s]
            if tag != _CHILD:
                break
            node = item
        charge = self.meter.charge_phased
        charge(PHASE_TRAVERSE, NODE_HOP, len(path))
        charge(PHASE_TRAVERSE, MODEL_EVAL, len(path))
        if tag != _DATA or item[0] != key:
            self.last_op = OpRecord(
                op="delete", key=key, found=False, path=path,
                nodes_traversed=len(path),
            )
            return False
        node.tags[s] = _EMPTY
        node[s] = None
        self.meter.charge(SLOT_INIT)
        for pn in path_nodes:
            pn.size -= 1
        charge(PHASE_STATS, STATS_UPDATE, len(path_nodes))
        self._size -= 1
        # Collapse a chained node that shrank to a single entry back into
        # its parent slot (keeps Figure-7 deletion memory honest).
        if len(path_nodes) >= 2 and node.size == 1:
            parent = path_nodes[-2]
            for j in range(len(parent)):
                if parent.tags[j] == _CHILD and parent[j] is node:
                    left: List[Tuple[Key, Value]] = []
                    nodes, slots = self._collect_subtree(node, left)
                    self._n_nodes -= nodes
                    self._n_slots -= slots
                    parent.tags[j] = _DATA
                    parent[j] = left[0]
                    self.meter.charge(SLOT_INIT)
                    break
        self.last_op = OpRecord(
            op="delete", key=key, found=True, path=path,
            nodes_traversed=len(path),
        )
        return True

    # -- scans -----------------------------------------------------------------

    def range_scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        out: List[Tuple[Key, Value]] = []
        if count <= 0:  # the walk below copies a row before it counts
            return out
        # Units per kind in the order the walk first meets each.  Every
        # scan evaluates the root's model, then branches on a slot.
        tally: Dict[str, int] = {MODEL_EVAL: 0, BRANCH: 0}
        self._scan_into(self._root, start, True, count, out, tally)
        self._charge_tally(tally)
        return out

    def _scan_into(self, node: _LippNode, start: Key, bounded: bool,
                   count: int, out: List[Tuple[Key, Value]],
                   tally: Dict[str, int]) -> bool:
        """Append the subtree's entries ``>= start`` (all of them when
        not ``bounded``) to ``out`` in key order; True once ``out``
        holds ``count`` rows — checked after each row, so ``count``
        must be positive.  What this node did is added to ``tally``
        before each child hop and on the way out."""
        tags = node.tags
        cap = len(tags)
        s0 = node.predict_clamped(start, cap) if bounded else 0
        tally[MODEL_EVAL] += 1
        tallied, rows = s0, len(out)  # slots / rows already in ``tally``
        walked, full = cap, False  # one past the last slot walked
        # Empty slots are skipped at C speed (``compress`` over the tag
        # bytes); the tally counts the slots walked by position.
        for s in compress(range(s0, cap), memoryview(tags)[s0:]):
            tag = tags[s]
            if tag == _DATA:
                item = node[s]
                if not bounded or item[0] >= start:
                    out.append(item)
                    if len(out) >= count:
                        walked, full = s + 1, True
                        break
            elif tag == _CHILD:
                tally[BRANCH] += s + 1 - tallied
                tallied = s + 1
                if len(out) > rows:
                    tally[SCAN_ENTRY] = tally.get(SCAN_ENTRY, 0) + len(out) - rows
                tally[NODE_HOP] = tally.get(NODE_HOP, 0) + 1
                if self._scan_into(node[s], start, bounded and s == s0,
                                   count, out, tally):
                    return True
                rows = len(out)
        # The unified layout's per-slot branch (Message 12).
        tally[BRANCH] += walked - tallied
        if len(out) > rows:
            tally[SCAN_ENTRY] = tally.get(SCAN_ENTRY, 0) + len(out) - rows
        return full

    # -- memory -----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        """O(1): the running totals (see ``_walk_memory``)."""
        return self._footprint(self._n_nodes, self._n_slots)

    def _walk_memory(self) -> MemoryBreakdown:
        """The footprint by a full walk of the tree — what
        ``memory_usage`` answers from its running totals; kept as
        ``debug_validate``'s cross-check of them."""
        return self._footprint(*self._collect_subtree(self._root, []))

    @staticmethod
    def _footprint(nodes: int, slots: int) -> MemoryBreakdown:
        # The unified layout has no separate leaf layer; report the whole
        # structure as "leaf" plus per-node headers as metadata.
        return MemoryBreakdown(
            leaf=slots * _SLOT_BYTES,
            metadata=nodes * _NODE_HEADER_BYTES,
        )

    # -- introspection ------------------------------------------------------------

    def debug_validate(self) -> List[Violation]:
        """LIPP's defining invariants: *precise positions* (every data
        slot sits exactly where the node's model predicts its key),
        child routing (every key in a child subtree predicts the slot
        that holds the child), per-subtree size counters, a globally
        sorted traversal, tag/value consistency, and the running
        node/slot totals behind ``memory_usage()`` against a full walk.
        Walks nodes directly; never charges the meter.
        """
        out: List[Violation] = []

        def walk(node: _LippNode) -> int:
            data = 0
            for s, (tag, item) in enumerate(zip(node.tags, node)):
                if tag == _DATA:
                    if type(item) is not tuple or len(item) != 2:
                        out.append(Violation(
                            node.node_id, "lipp.tag-value",
                            f"slot {s} tagged DATA but holds "
                            f"{type(item).__name__}"))
                        continue
                    data += 1
                    pred = node.predict_clamped(item[0], len(node))
                    if pred != s:
                        out.append(Violation(
                            node.node_id, "lipp.precise-position",
                            f"key {item[0]} stored in slot {s} but "
                            f"model predicts {pred}"))
                elif tag == _CHILD:
                    child = item
                    if not isinstance(child, _LippNode):
                        out.append(Violation(
                            node.node_id, "lipp.tag-value",
                            f"slot {s} tagged CHILD but holds "
                            f"{type(child).__name__}"))
                        continue
                    for k, _ in self._iter_subtree(child):
                        pred = node.predict_clamped(k, len(node))
                        if pred != s:
                            out.append(Violation(
                                node.node_id, "lipp.child-routing",
                                f"key {k} in child under slot {s} but "
                                f"model predicts slot {pred}"))
                            break
                    data += walk(child)
                elif tag != _EMPTY:
                    out.append(Violation(
                        node.node_id, "lipp.tag-value",
                        f"slot {s} has unknown tag {tag}"))
                elif item is not None:
                    out.append(Violation(
                        node.node_id, "lipp.tag-value",
                        f"slot {s} tagged EMPTY but holds "
                        f"{type(item).__name__}"))
            if node.size != data:
                out.append(Violation(
                    node.node_id, "lipp.subtree-size",
                    f"size counter {node.size} but subtree holds "
                    f"{data} keys"))
            return data

        total = walk(self._root)
        if total != self._size:
            out.append(Violation(
                self._root.node_id, "lipp.size",
                f"tree holds {total} keys but len(index) == {self._size}"))
        counted, walked = self.memory_usage(), self._walk_memory()
        if counted != walked:
            out.append(Violation(
                self._root.node_id, "lipp.memory-counters",
                f"running totals say leaf={counted.leaf} "
                f"metadata={counted.metadata} bytes but a walk finds "
                f"leaf={walked.leaf} metadata={walked.metadata}"))
        keys = [k for k, _ in self._iter_subtree(self._root)]
        i = first_inversion(keys, strict=True)
        if i >= 0:
            out.append(Violation(
                self._root.node_id, "lipp.order",
                f"in-order traversal inverts at position {i}: "
                f"{keys[i]} >= {keys[i + 1]}"))
        return out

    def node_count(self) -> int:
        return self._n_nodes

    def max_depth(self) -> int:
        def depth(node: _LippNode) -> int:
            best = 1
            for tag, item in zip(node.tags, node):
                if tag == _CHILD:
                    best = max(best, 1 + depth(item))
            return best

        return depth(self._root)
