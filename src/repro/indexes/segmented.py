"""The delta-segment substrate shared by FITing-Tree, FINEdex and XIndex.

The paper's taxonomy (Section 2, Table 1) puts these three in one cell:
ε-bounded PLA segments over sorted arrays, out-of-place inserts into a
side structure, merge/retrain as the SMO.  They differ in *policy* —
how a key is routed and what that charges, how a unit picks its model,
what absorbs an insert, when it overflows and what the SMO does — and
this module holds everything else, once:

* the :class:`Unit` record and the unit list with its **persistent
  pivot list** (``_pivots[i] == _units[i].pivot``, spliced wherever the
  unit list is spliced; routing never rebuilds it),
* PLA segmentation of a row run (:meth:`SegmentedIndex._segment_run`),
* the ±ε window search (:func:`window_search`) and the two-way
  main/side merge (:meth:`SegmentedIndex._scan_unit`),
* the ``lookup`` / ``insert`` / ``update`` / ``range_scan`` frames and
  the sorted-side-buffer absorber (FINEdex swaps in per-record bins),
* the ``_lookup_batch`` frame with its main-array and side-buffer
  kernels,
* the validator prelude, parameterised by rule prefix.

Every policy hook has a scalar and a batch form that must charge the
same: ``_route`` / ``_batch_route``, ``_last_mile`` /
``_batch_pick`` + ``_batch_search_sites``, ``_side_lookup`` /
``_batch_side``.  What the hooks charge, and in which order, is pinned
bit for bit by ``tests/corpus/segment_ops.json`` and
``charge_tables.json``; ``docs/cost_model.md`` lists the asymmetries
between the three that are policy, not accidents.
"""

from __future__ import annotations

import bisect
import sys
from abc import abstractmethod
from types import SimpleNamespace
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.core.cost import (
    ALLOC_NODE,
    CACHE_PROBE,
    KEY_COMPARE,
    KEY_SHIFT,
    MODEL_EVAL,
    NODE_HOP,
    PHASE_COLLISION,
    PHASE_SEARCH,
    PHASE_SMO,
    PHASE_TRAVERSE,
    SCAN_ENTRY,
    TRAIN_KEY,
    charge_binary_search,
)
from repro.core.hardness import Segment, optimal_pla
from repro.core.validate import (
    Violation,
    range_violation,
    residual_violations,
    segment_partition_violations,
    sorted_violations,
)
from repro.indexes import batching
from repro.indexes.base import Key, OpRecord, OrderedIndex, Value
from repro.indexes.linear_model import LinearModel, binary_steps

Row = Tuple[Key, Value]


class Unit:
    """One routed unit: a FITing-Tree or FINEdex segment, an XIndex group.

    ``keys`` / ``values`` are the trained (frozen) arrays, ``side_keys``
    / ``side_values`` the sorted side buffer absorbing inserts, and
    ``models`` the PLA segments over ``keys`` in unit-local ranks (one
    for a segment, up to ``max_models_per_group`` for a group).
    """

    __slots__ = ("node_id", "pivot", "keys", "values", "side_keys",
                 "side_values", "models")

    def __init__(self, node_id: int, pivot: Key) -> None:
        self.node_id = node_id
        self.pivot = pivot
        self.keys: List[Key] = []
        self.values: List[Value] = []
        self.side_keys: List[Key] = []
        self.side_values: List[Value] = []
        self.models: List[Segment] = []


def window_search(keys: Sequence[Key], model: LinearModel, key: Key,
                  epsilon: int) -> Tuple[int, int]:
    """Lower bound of ``key`` in ``keys`` inside the ±ε window around
    ``model``'s prediction; returns ``(position, probes)``.  Pure: the
    caller charges, in its own order."""
    n = len(keys)
    pred = int(model.predict(key))
    hi = max(min(pred + epsilon + 2, n), 0)
    lo = min(max(pred - epsilon - 1, 0), hi)
    pos = bisect.bisect_left(keys, key, lo, hi)
    return pos, binary_steps(hi - lo, pos - lo)


class SegmentedIndex(OrderedIndex):
    """Op frames, batch frame and validator over a list of :class:`Unit`.

    A policy class sets ``RULE_PREFIX`` and implements ``_route``,
    ``_batch_route``, ``_smo``, ``memory_usage`` and — for the sorted
    side buffer — ``_overflowed``; the remaining hooks default to one
    model per unit searched model-first, and a sorted side buffer.
    """

    is_learned = True
    supports_delete = False
    supports_range = True

    #: Validator rule names are ``<RULE_PREFIX>.<rule>``.
    RULE_PREFIX: ClassVar[str]
    #: What the side buffer is called in this index's rule names
    #: (``<prefix>.<SIDE>-sorted`` / ``-bound`` / ``-shadow``).
    SIDE: ClassVar[str] = "buffer"
    #: The unit record class (FINEdex's adds the bins).
    UNIT: ClassVar[type] = Unit
    #: Whether a scan that filled up on one unit still charges the hop
    #: to the next (XIndex: its loop tests for "full" before a unit,
    #: the other two after).  Pinned; see docs/cost_model.md.
    SCAN_HOPS_WHEN_FULL: ClassVar[bool] = False

    def __init__(self, epsilon: int, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.epsilon = epsilon
        self._set_units([self._new_unit(batching.KEY_DOMAIN[0])])

    # -- units and pivots -----------------------------------------------------

    def _new_unit(self, pivot: Key) -> Unit:
        return self.UNIT(self._next_node_id(), pivot)

    def _set_units(self, units: List[Unit]) -> None:
        self._units = units
        #: Derived: ``[u.pivot for u in _units]``, kept in step by
        #: ``_set_units`` / ``_replace_unit`` (rule ``*.pivot-sync``).
        self._pivots = [u.pivot for u in units]

    def _replace_unit(self, ui: int, units: List[Unit]) -> None:
        """Splice ``units`` in place of unit ``ui`` (an SMO's result)."""
        self._units[ui:ui + 1] = units
        self._pivots[ui:ui + 1] = [u.pivot for u in units]

    def _segment_run(self, rows: Sequence[Row]) -> List[Unit]:
        """One unit per optimal-PLA segment of the sorted ``rows``."""
        if not rows:
            return [self._new_unit(0)]
        keys = [k for k, _ in rows]
        plas = optimal_pla(keys, self.epsilon)
        self.meter.charge(TRAIN_KEY, len(keys))
        out: List[Unit] = []
        for pla in plas:
            unit = self._new_unit(pla.first_key)
            lo, hi = pla.first_index, pla.first_index + pla.length
            unit.keys = keys[lo:hi]
            unit.values = [v for _, v in rows[lo:hi]]
            # Rebase the model to unit-local positions.
            m = pla.model
            unit.models = [Segment(pla.first_key, 0, pla.length, LinearModel(
                m.slope, m.intercept - lo, m.anchor))]
            out.append(unit)
            self.meter.charge(ALLOC_NODE)
        return out

    def _resegment(self, ui: int, rows: List[Row]) -> int:
        """The merge/retrain SMO body: re-segment unit ``ui``'s flattened
        ``rows`` in place, keeping its routing pivot so keys between the
        old pivot and the first retrained key resolve as before."""
        self.meter.charge(KEY_SHIFT, len(rows))
        units = self._segment_run(rows)
        units[0].pivot = self._pivots[ui]
        self._replace_unit(ui, units)
        return len(units)

    def _build_units(self, items: Sequence[Row]) -> List[Unit]:
        return self._segment_run(list(items))

    def _load(self, items: Sequence[Row], ks: Any) -> None:
        units = self._build_units(items)
        # The first unit is the catch-all from the key domain's bottom.
        units[0].pivot = batching.KEY_DOMAIN[0]
        self._set_units(units)

    # -- policy hooks -----------------------------------------------------------

    @abstractmethod
    def _route(self, key: Key) -> int:
        """Index of the unit owning ``key``, charging the descent."""

    def _bisect_route(self, key: Key) -> int:
        """Last pivot <= ``key`` by binary search over the pivot list."""
        pivots = self._pivots
        self.meter.charge(KEY_COMPARE, max(1, len(pivots).bit_length()))
        return max(bisect.bisect_right(pivots, key) - 1, 0)

    def _last_mile(self, unit: Unit, key: Key) -> int:
        """Charged lower bound of ``key`` in ``unit.keys``: the model,
        then the window search."""
        keys = unit.keys
        if not keys:
            return 0
        self.meter.charge(MODEL_EVAL)
        lo, probes = window_search(
            keys, unit.models[0].model, key, self.epsilon)
        charge_binary_search(self.meter, probes)
        return lo

    def _overflowed(self, unit: Unit) -> bool:
        """Whether ``unit``'s sorted side buffer is past its bound (SMO
        due); a policy that keeps the side buffer defines it."""
        raise NotImplementedError

    @abstractmethod
    def _smo(self, ui: int, unit: Unit) -> int:
        """Fold unit ``ui``'s side entries in; returns nodes created."""

    # -- the sorted side buffer ----------------------------------------------------

    def _side_lookup(self, unit: Unit, i: int,
                     key: Key) -> Tuple[bool, Optional[Value]]:
        """Charged probe of the side structure after a main-array miss
        at lower bound ``i``; returns ``(found, value)``."""
        side = unit.side_keys
        j = bisect.bisect_left(side, key)
        self.meter.charge(KEY_COMPARE, max(1, len(side).bit_length()))
        if j < len(side) and side[j] == key:
            return True, unit.side_values[j]
        return False, None

    def _absorb(self, unit: Unit, i: int, key: Key,
                value: Value) -> Optional[Tuple[int, bool]]:
        """Insert into the side structure; ``None`` for a duplicate,
        else ``(keys_shifted to record, overflowed)``."""
        side = unit.side_keys
        j = bisect.bisect_left(side, key)
        if j < len(side) and side[j] == key:
            return None
        shifted = len(side) - j
        self._invalidate_batch_cache()
        with self.meter.phase(PHASE_COLLISION):
            side.insert(j, key)
            unit.side_values.insert(j, value)
            self.meter.charge(KEY_SHIFT, shifted)
        return shifted, self._overflowed(unit)

    def _side_update(self, unit: Unit, i: int, key: Key,
                     value: Value) -> bool:
        side = unit.side_keys
        j = bisect.bisect_left(side, key)
        if j < len(side) and side[j] == key:
            unit.side_values[j] = value
            return True
        return False

    def _scan_unit(self, unit: Unit, start: Optional[Key], out: List[Row],
                   count: int) -> None:
        """Append ``unit``'s rows with key >= ``start`` (``None``: all of
        them) to ``out`` in key order until it holds ``count``: a
        two-way merge of the main array and the side buffer."""
        keys, values = unit.keys, unit.values
        side_keys, side_values = unit.side_keys, unit.side_values
        if start is None:
            i = j = 0
        else:
            i = self._last_mile(unit, start)
            j = bisect.bisect_left(side_keys, start)
        n, m = len(keys), len(side_keys)
        while len(out) < count and (i < n or j < m):
            if j >= m or (i < n and keys[i] <= side_keys[j]):
                out.append((keys[i], values[i]))
                i += 1
            else:
                out.append((side_keys[j], side_values[j]))
                j += 1

    def _unit_rows(self, unit: Unit) -> List[Row]:
        """Every row of ``unit``, main and side, in key order."""
        rows: List[Row] = []
        self._scan_unit(unit, None, rows, sys.maxsize)
        return rows

    # -- operations ---------------------------------------------------------------

    def lookup(self, key: Key) -> Optional[Value]:
        meter = self.meter
        with meter.phase(PHASE_TRAVERSE):
            unit = self._units[self._route(key)]
            meter.charge(NODE_HOP)
        with meter.phase(PHASE_SEARCH):
            i = self._last_mile(unit, key)
            if i < len(unit.keys) and unit.keys[i] == key:
                found, value = True, unit.values[i]
            else:
                meter.charge(NODE_HOP)  # the side is its own allocation
                found, value = self._side_lookup(unit, i, key)
        self.last_op = OpRecord(op="lookup", key=key, found=found,
                                path=[unit.node_id], nodes_traversed=2)
        return value

    def insert(self, key: Key, value: Value) -> bool:
        meter = self.meter
        with meter.phase(PHASE_TRAVERSE):
            ui = self._route(key)
            unit = self._units[ui]
            meter.charge(NODE_HOP)
        with meter.phase(PHASE_SEARCH):
            i = self._last_mile(unit, key)
        trained = i < len(unit.keys) and unit.keys[i] == key
        absorbed = None if trained else self._absorb(unit, i, key, value)
        if absorbed is None:
            self.last_op = OpRecord(op="insert", key=key, found=True,
                                    path=[unit.node_id], nodes_traversed=2)
            return False
        shifted, overflowed = absorbed
        created = 0
        if overflowed:
            with meter.phase(PHASE_SMO):
                created = self._smo(ui, unit)
        self._size += 1
        self.last_op = OpRecord(
            op="insert", key=key, path=[unit.node_id], nodes_traversed=2,
            keys_shifted=shifted, smo=overflowed, nodes_created=created)
        return True

    def update(self, key: Key, value: Value) -> bool:
        unit = self._units[self._route(key)]
        i = self._last_mile(unit, key)
        if i < len(unit.keys) and unit.keys[i] == key:
            unit.values[i] = value
        elif not self._side_update(unit, i, key, value):
            return False
        self.meter.charge(KEY_SHIFT)
        return True

    def range_scan(self, start: Key, count: int) -> List[Row]:
        out: List[Row] = []
        with self.meter.phase(PHASE_TRAVERSE):
            first = self._route(start)
        units = self._units
        hops_when_full = self.SCAN_HOPS_WHEN_FULL
        tally: Dict[str, int] = {}  # units per kind, in first-met order
        for ui in range(first, len(units)):
            if hops_when_full and len(out) >= count:
                break
            rows = len(out)
            self._scan_unit(units[ui], start if ui == first else None,
                            out, count)
            if len(out) > rows:
                tally[SCAN_ENTRY] = tally.get(SCAN_ENTRY, 0) + len(out) - rows
            if not hops_when_full and len(out) >= count:
                break
            if ui + 1 < len(units):
                tally[NODE_HOP] = tally.get(NODE_HOP, 0) + 1
        self._charge_tally(tally)
        return out

    # -- batch lookup ----------------------------------------------------------------

    def _batch_tables(self):
        """Index-wide arrays for the batch path: unit pivots, the
        concatenated main and side key arrays, and every model's
        parameters in unit order.  Rebuilt lazily after any mutation;
        ``False`` while a unit holds no keys."""
        cache = self._batch_cache
        if cache is None:
            cache = self._batch_cache = self._build_batch_tables()
        return cache

    def _build_batch_tables(self):
        units = self._units
        if any(not u.keys for u in units):
            # Only a pre-bulk-load index has keyless units; their lower
            # bound short-circuits with no charges, so bail.
            return False
        return SimpleNamespace(
            pivots=batching.int64_cache(self._pivots),
            models=batching.model_arrays(
                [m.model for u in units for m in u.models]),
            main=batching.ConcatTable.build([u.keys for u in units]),
            side=batching.ConcatTable.build([u.side_keys for u in units]),
            node_ids=[u.node_id for u in units])

    @abstractmethod
    def _batch_route(self, log: batching.ChargeLog, t: Any, ks: Any,
                     ui: Any) -> None:
        """Add ``_route``'s charge sites for keys ``ks`` routed to ``ui``."""

    def _batch_pick(self, t: Any, ks: Any, ui: Any) -> Tuple[Any, Any]:
        """Per key: its model's row in ``t.models`` and the KEY_COMPARE
        units picking it cost (one model per unit: its own row, free)."""
        return ui, 0

    def _batch_search_sites(self, log: batching.ChargeLog, kc: Any,
                            cp: Any) -> None:
        """``_last_mile``'s charge sites, in its order."""
        log.add(PHASE_SEARCH, MODEL_EVAL, 1)
        log.add(PHASE_SEARCH, KEY_COMPARE, kc)
        log.add(PHASE_SEARCH, CACHE_PROBE, cp, reached=cp > 0)

    def _batch_side(self, t: Any, ks: Any, ui: Any, i: Any, miss: Any,
                    values: List[Optional[Value]]) -> Tuple[Any, Any]:
        """``_side_lookup`` for the keys that missed the main array:
        fills ``values`` for the hits and returns ``(KEY_COMPARE units,
        hit mask)``."""
        np = batching._np
        side = t.side
        hit = np.zeros(len(ks), dtype=bool)
        if len(side.cat):
            r = side.rank_local(ks, ui)
            hit = miss & (r < side.lens[ui]) & (
                side.cat[np.minimum(side.offsets[ui] + r,
                                    len(side.cat) - 1)] == ks)
            units = self._units
            for j, u, p in zip(np.flatnonzero(hit).tolist(),
                               ui[hit].tolist(), r[hit].tolist()):
                values[j] = units[u].side_values[p]
        return np.where(miss, side.bl[ui], 0), hit

    def _lookup_batch(self, keys: Sequence[Key]):
        """Vectorized ``lookup``: route all keys with one
        ``searchsorted`` over the pivots, replay every ±ε window search
        by rank arithmetic over the concatenated main arrays, then
        probe the side structure for the misses."""
        ks = batching.key_array(keys)
        if ks is None:
            return None
        t = self._batch_tables()
        if t is False:
            return None
        np = batching._np
        B = len(ks)
        ui = np.maximum(np.searchsorted(t.pivots, ks, side="right") - 1, 0)
        log = batching.ChargeLog(B)
        self._batch_route(log, t, ks, ui)
        chosen, pick_kc = self._batch_pick(t, ks, ui)
        slopes, intercepts, anchors = t.models
        main = t.main
        lens = main.lens[ui]
        lo, hi = batching.window_bounds(
            slopes[chosen], intercepts[chosen], anchors[chosen], ks,
            self.epsilon, lens)
        r = main.rank_local(ks, ui)
        probes = batching.simulate_binary(lo, hi, r)
        i = np.clip(r, lo, hi)
        in_main = (i < lens) & (
            main.cat[np.minimum(main.offsets[ui] + i, len(main.cat) - 1)]
            == ks)
        miss = ~in_main
        values: List[Optional[Value]] = [None] * B
        units = self._units
        for j, u, p in zip(np.flatnonzero(in_main).tolist(),
                           ui[in_main].tolist(), i[in_main].tolist()):
            values[j] = units[u].values[p]
        side_kc, in_side = self._batch_side(t, ks, ui, i, miss, values)
        self._batch_search_sites(log, pick_kc + probes + side_kc,
                                 batching.cache_probe_units(probes))
        log.add(PHASE_SEARCH, NODE_HOP, np.ones(B, dtype=np.int64),
                reached=miss)
        found = (in_main | in_side).tolist()
        ui_list = ui.tolist()
        node_ids = t.node_ids

        def make_record(i: int) -> OpRecord:
            return OpRecord(op="lookup", key=keys[i], found=found[i],
                            path=[node_ids[ui_list[i]]], nodes_traversed=2)

        return batching.BatchLookup(values, log, make_record)

    # -- validation ------------------------------------------------------------------

    def _rule(self, name: str) -> str:
        return f"{self.RULE_PREFIX}.{name}"

    def _validate_side(self, unit: Unit, hi: Optional[Key],
                       out: List[Violation]) -> int:
        """Side-structure invariants of one unit; returns its entries."""
        side = unit.side_keys
        out.extend(sorted_violations(
            side, unit.node_id, self._rule(f"{self.SIDE}-sorted"),
            what="side_keys"))
        out.extend(range_violation(
            side, unit.pivot, hi, unit.node_id, self._rule("key-range")))
        if len(side) != len(unit.side_values):
            out.append(Violation(
                unit.node_id, self._rule("arrays"),
                f"{len(side)} side keys vs {len(unit.side_values)} values"))
        if self._overflowed(unit):
            out.append(Violation(
                unit.node_id, self._rule(f"{self.SIDE}-bound"),
                f"{self.SIDE} holds {len(side)} entries, past its bound "
                f"(missed SMO)"))
        dup = set(unit.keys) & set(side)
        if dup:
            out.append(Violation(
                unit.node_id, self._rule(f"{self.SIDE}-shadow"),
                f"key(s) {sorted(dup)[:3]} both trained and in the "
                f"{self.SIDE}"))
        return len(side)

    def debug_validate(self) -> List[Violation]:
        """Strictly increasing pivots from the key domain's bottom and
        mirrored by the pivot list; per unit, trained arrays sorted,
        inside the pivot range, as long as their values, contiguously
        partitioned by the unit's PLA segments and within ε of their
        models, plus the side structure's rules; and the size counter
        exact.  Walks units directly; never charges the meter."""
        units = self._units
        if not units:
            return [Violation(0, self._rule("pivot-order"),
                              "index has no units at all")]
        out: List[Violation] = []
        pivots = [u.pivot for u in units]
        first = batching.KEY_DOMAIN[0]
        if pivots[0] != first:
            out.append(Violation(
                units[0].node_id, self._rule("pivot-order"),
                f"first pivot is {pivots[0]}, expected {first}"))
        out.extend(sorted_violations(
            pivots, 0, self._rule("pivot-order"), what="pivots"))
        if self._pivots != pivots:
            out.append(Violation(
                0, self._rule("pivot-sync"),
                f"pivot list holds {len(self._pivots)} pivots but the "
                f"index has {len(units)} units (or pivots differ)"))
        total = 0
        for ui, unit in enumerate(units):
            hi = pivots[ui + 1] if ui + 1 < len(units) else None
            out.extend(sorted_violations(
                unit.keys, unit.node_id, self._rule("keys-sorted")))
            out.extend(range_violation(
                unit.keys, unit.pivot, hi, unit.node_id,
                self._rule("key-range")))
            if len(unit.keys) != len(unit.values):
                out.append(Violation(
                    unit.node_id, self._rule("arrays"),
                    f"{len(unit.keys)} keys vs {len(unit.values)} values"))
            out.extend(segment_partition_violations(
                unit.models, len(unit.keys), unit.node_id,
                self._rule("segments")))
            for m in unit.models:
                out.extend(residual_violations(
                    m.model,
                    unit.keys[m.first_index:m.first_index + m.length],
                    m.first_index, self.epsilon, unit.node_id,
                    self._rule("epsilon")))
            total += len(unit.keys) + self._validate_side(unit, hi, out)
        if total != self._size:
            out.append(Violation(
                0, self._rule("size"),
                f"units hold {total} keys but len(index) == {self._size}"))
        return out
