"""The write path's loops, kept as the tests' reference.

PR 22 moved every search, shift and merge of the scalar write path into
C calls (``bisect``, ``list.index``, slice assignment) plus a probe
count read off ``linear_model.binary_steps``.  This module holds the
bodies they replaced, as they stood — one probe, one element, one tuple
at a time — and ``tests/test_write_path.py`` requires each new body to
return, store and charge exactly what its twin here does
(``benchmarks/test_write_path.py`` times each pair).  Also here:
``exponential_search``, which nothing under ``src/`` called,
``alex_leaf``, the leaf states both files place keys into, and
``alex_range_scan``, the slot-at-a-time scan ``ALEX.range_scan``
replaced with ``itertools.compress`` over the bitmap.
"""

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.cost import (
    CACHE_PROBE,
    KEY_COMPARE,
    KEY_SHIFT,
    NODE_HOP,
    PHASE_COLLISION,
    PHASE_TRAVERSE,
    SCAN_ENTRY,
    SLOT_INIT,
    CostMeter,
    charge_binary_search,
    charge_local_search,
)
from repro.indexes.alex import _GAP_HIGH, ALEX, _DataNode, _DupChain
from repro.indexes.btree import _Inner
from repro.indexes.linear_model import LinearModel


def binary_steps(width: int, rank: int) -> int:
    """The lower-bound loop of a window ``width`` wide, counting its
    probes for a key of rank ``rank`` (``keys[mid] < key`` is
    ``mid < rank``)."""
    lo, hi, steps = 0, width, 0
    while lo < hi:
        steps += 1
        mid = (lo + hi) // 2
        if mid < rank:
            lo = mid + 1
        else:
            hi = mid
    return steps


def binary_search_lower(keys: Sequence[int], key: int,
                        meter: Optional[CostMeter] = None) -> int:
    """Plain lower-bound binary search with metering."""
    lo, hi = 0, len(keys)
    probes = 0
    while lo < hi:
        probes += 1
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    if meter is not None:
        charge_binary_search(meter, probes)
    return lo


def exponential_search(keys: Sequence[int], key: int, hint: int,
                       meter: Optional[CostMeter] = None) -> Tuple[int, int]:
    """ALEX-style exponential search around a predicted position.

    ``keys`` must be sorted.  Returns ``(lower_bound_index, probes)``
    where ``lower_bound_index`` is the first index with
    ``keys[idx] >= key`` (may equal ``len(keys)``).
    """
    n = len(keys)
    if n == 0:
        return 0, 0
    if hint < 0:
        hint = 0
    elif hint >= n:
        hint = n - 1
    probes = 1
    if keys[hint] >= key:
        # Grow bound leftwards.
        bound = 1
        lo = hint - bound
        while lo >= 0 and keys[lo] >= key:
            probes += 1
            bound <<= 1
            lo = hint - bound
        lo = max(lo, 0)
        hi = hint
    else:
        # Grow bound rightwards.
        bound = 1
        hi = hint + bound
        while hi < n and keys[hi] < key:
            probes += 1
            bound <<= 1
            hi = hint + bound
        hi = min(hi, n)
        lo = hint
    # Binary search within [lo, hi].
    while lo < hi:
        probes += 1
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    if meter is not None:
        charge_local_search(meter, probes, lo - hint)
    return lo, probes


def pgm_locate(run, key: int) -> Tuple[int, int, int, int]:
    """``_StaticPGM.locate``: ``(index, models, probes, lines)``, every
    ±ε window searched probe by probe."""
    keys = run.keys
    n = len(keys)
    if n == 0:
        return 0, 0, 0, 0
    eps = run.epsilon
    levels = run.levels
    probes = lines = 0
    seg_idx = 0
    for depth in range(len(levels) - 1, 0, -1):
        level = levels[depth]
        lower = levels[depth - 1]
        seg = level[seg_idx if seg_idx < len(level) else len(level) - 1]
        pred = int(seg.model.predict(key))
        hi = max(min(pred + eps + 2, len(lower)), 0)
        lo = min(max(pred - eps - 1, 0), hi)
        # Find the last segment whose first_key <= key in [lo, hi).
        steps = 0
        while lo < hi:
            steps += 1
            mid = (lo + hi) // 2
            if lower[mid].first_key <= key:
                lo = mid + 1
            else:
                hi = mid
        probes += steps
        if steps > 3:
            lines += steps - 3
        seg_idx = max(lo - 1, 0)
    pred = int(levels[0][seg_idx].model.predict(key))
    hi = max(min(pred + eps + 2, n), 0)
    lo = min(max(pred - eps - 1, 0), hi)
    # Binary search the ±ε window in the packed key array.
    steps = 0
    while lo < hi:
        steps += 1
        mid = (lo + hi) // 2
        if keys[mid] < key:
            lo = mid + 1
        else:
            hi = mid
    if steps > 3:
        lines += steps - 3
    return lo, len(levels), probes + steps, lines


def btree_descend(tree, key: int, record_path: Optional[List[int]] = None,
                  inners: Optional[list] = None):
    """``BPlusTree._descend``: root to leaf, one lower-bound loop per
    inner node (equal keys go right), charged once per kind."""
    node = tree._root
    hops = 1
    compares = lines = 0
    while isinstance(node, _Inner):
        hops += 1
        if record_path is not None:
            record_path.append(node.node_id)
        if inners is not None:
            inners.append(node)
        keys = node.keys
        lo, hi = 0, len(keys)
        probes = 0
        while lo < hi:
            probes += 1
            mid = (lo + hi) // 2
            if keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        compares += probes
        if probes > 3:  # charge_binary_search's cold-line rule
            lines += probes - 3
        if lo < len(keys) and keys[lo] == key:
            lo += 1
        node = node.children[lo]
    if record_path is not None:
        record_path.append(node.node_id)
    charge = tree.meter.charge_phased
    charge(PHASE_TRAVERSE, NODE_HOP, hops)
    if hops > 1:
        charge(PHASE_TRAVERSE, KEY_COMPARE, compares)
        if lines:
            charge(PHASE_TRAVERSE, CACHE_PROBE, lines)
    return node


def merge_items(old: Iterable[Tuple[int, object]],
                new: Iterable[Tuple[int, object]]) -> List[Tuple[int, object]]:
    """PGM's run merge as a dict union: on equal keys the *new* entry
    wins, tombstones included (they are values like any other)."""
    merged = dict(old)
    merged.update(new)
    return sorted(merged.items())


def alex_leaf(index, present: Sequence[bool], keys: Sequence[int]):
    """A data node of ``index`` (not linked into it) in a given state:
    ``keys`` in the ``present`` slots with values ``-key``, gap copies
    filled in, the model trained on them — what ``_place`` is handed
    (``present`` as the leaf's one-byte bitmap)."""
    node = _DataNode(index._next_node_id())
    cap = len(present)
    node.keys, node.values = [_GAP_HIGH] * cap, [None] * cap
    node.present = bytearray(present)
    occupied = [slot for slot, p in enumerate(present) if p]
    for slot, key in zip(occupied, keys):
        node.keys[slot], node.values[slot] = key, -key
    ALEX._fill_gaps(node)
    node.num_keys = len(keys)
    if keys:
        node.model = LinearModel.train(keys).scaled(cap / len(keys))
    return node


def alex_place(index, node, pos: int, key: int, value: object) -> int:
    """``ALEX._place``: put ``key`` at/near ``pos``, finding gap-run
    ends and shifting keys, values and presence one slot at a time;
    returns keys shifted."""
    with index.meter.phase(PHASE_COLLISION):
        cap = node.capacity
        if pos < cap and not node.present[pos]:
            end = pos
            while (end < cap and not node.present[end]
                   and node.keys[end] == node.keys[pos]):
                end += 1
            hint = node.model.predict_clamped(key, cap)
            target = min(max(hint, pos), end - 1)
            node.keys[target] = key
            node.values[target] = value
            node.present[target] = True
            for i in range(pos, target):
                node.keys[i] = key
            index.meter.charge(SLOT_INIT, target - pos + 1)
            return 0
        left = pos - 1
        while left >= 0 and node.present[left]:
            left -= 1
        right = pos
        while right < cap and node.present[right]:
            right += 1
        use_right = right < cap and (left < 0 or right - pos <= pos - left)
        if use_right:
            for i in range(right, pos, -1):
                node.keys[i] = node.keys[i - 1]
                node.values[i] = node.values[i - 1]
                node.present[i] = True
            node.keys[pos] = key
            node.values[pos] = value
            node.present[pos] = True
            shifted = right - pos
        elif left >= 0:
            for i in range(left, pos - 1):
                node.keys[i] = node.keys[i + 1]
                node.values[i] = node.values[i + 1]
                node.present[i] = True
            node.keys[pos - 1] = key
            node.values[pos - 1] = value
            node.present[pos - 1] = True
            shifted = pos - 1 - left
        else:
            index._expand(node)
            return alex_place(index, node,
                              index._leaf_lower_bound(node, key)[0], key, value)
        index.meter.charge(KEY_SHIFT, shifted)
        return shifted


def alex_range_scan(index, start: int, count: int) -> List[Tuple[int, object]]:
    """``ALEX.range_scan``: the gapped arrays walked one slot at a time,
    a row copied out per occupied slot (a whole chain, cut to what is
    still needed, in ``linked_list`` mode), a gap counted per empty one;
    per leaf the two units are tallied in the order the walk met the
    first slot's kind."""
    out: List[Tuple[int, object]] = []
    node, _ = index._descend(start)
    pos, _ = index._leaf_lower_bound(node, start)
    chains = index.duplicate_mode == "linked_list"
    tally: Dict[str, int] = {}
    cur = node
    while cur is not None and len(out) < count:
        keys, values, present = cur.keys, cur.values, cur.present
        cap = len(keys)
        first, rows, gaps = pos, len(out), 0
        while pos < cap and len(out) < count:
            if present[pos]:
                value = values[pos]
                if chains and isinstance(value, _DupChain):
                    key = keys[pos]
                    out.extend([(key, v) for v
                                in value.values[:count - len(out)]])
                else:
                    out.append((keys[pos], value))
            else:
                gaps += 1
            pos += 1
        if pos > first:
            units = ((SCAN_ENTRY, len(out) - rows), (SLOT_INIT, gaps))
            for kind, n in units if present[first] else units[::-1]:
                if n:
                    tally[kind] = tally.get(kind, 0) + n
        cur = cur.next
        pos = 0
        if cur is not None:
            tally[NODE_HOP] = tally.get(NODE_HOP, 0) + 1
    index._charge_tally(tally)
    return out


def lipp_build_pair(index, a: Tuple[int, object], b: Tuple[int, object]):
    """LIPP's chained node for two colliding entries, by the generic
    builder (grouping loop and all), as ``insert`` made it: two ``_DATA``
    tag bytes, and ``a`` and ``b`` themselves in ``items``."""
    return index._build_node(sorted([a, b]))
