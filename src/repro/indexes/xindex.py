"""XIndex (Tang et al., PPoPP 2020) — delta-merge learned index.

Two-layer structure: a root that routes to *groups*; each group owns a
sorted data array approximated by up to ``max_models_per_group`` linear
models (error bound 32, Table 1) and a per-group *delta* absorbing
inserts.  When a delta fills up, the group *compacts*: delta and data
are merged and the models retrained.

Upstream XIndex performs compaction on a background thread; the paper
pins that thread to the same core as the workers (same CPU budget for
every index) and shows the resulting context-switch/merge cost as
XIndex's signature tail-latency blow-up (Figures 10–11).  We reproduce
that execution model faithfully for a single CPU: the merge runs inline
and its full cost lands on the unlucky triggering operation — exactly
what a pinned background thread does to the foreground latency
distribution.  The concurrency adapter models the RCU handshake.

Everything the three delta-segment indexes share lives in
:mod:`repro.indexes.segmented`; this file is XIndex's policy: a root
model with a hint walk routes to groups, a group scans its models and
charges the compares before the model, and the SMO compacts, splits a
group that needs too many models, and retrains the root.

Deletes are not part of the paper's XIndex evaluation (Figure 7
excludes it); updates are in-place.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.core.cost import (
    ALLOC_NODE,
    CACHE_PROBE,
    KEY_COMPARE,
    KEY_SHIFT,
    MODEL_EVAL,
    NODE_HOP,
    PHASE_SEARCH,
    PHASE_TRAVERSE,
    TRAIN_KEY,
)
from repro.core.hardness import optimal_pla
from repro.indexes import batching
from repro.indexes.base import (
    KEY_BYTES,
    PAYLOAD_BYTES,
    POINTER_BYTES,
    Key,
    MemoryBreakdown,
)
from repro.indexes.linear_model import LinearModel
from repro.indexes.segmented import Row, SegmentedIndex, Unit, window_search

_GROUP_HEADER_BYTES = 64
_MODEL_BYTES = 24


class XIndex(SegmentedIndex):
    """XIndex with the paper's Table-1 configuration."""

    name = "XIndex"
    RULE_PREFIX = "xindex"
    SIDE = "delta"
    SCAN_HOPS_WHEN_FULL = True

    def __init__(
        self,
        epsilon: int = 32,
        delta_size: int = 256,
        max_models_per_group: int = 4,
        target_group_keys: int = 1024,
        **kwargs: Any,
    ) -> None:
        super().__init__(epsilon, **kwargs)
        self.delta_size = delta_size
        self.max_models_per_group = max_models_per_group
        self.target_group_keys = target_group_keys
        self._root_model = LinearModel()
        self.compaction_count = 0

    # -- build --------------------------------------------------------------

    def _build_units(self, items: Sequence[Row]) -> List[Unit]:
        groups: List[Unit] = []
        for start in range(0, len(items), self.target_group_keys):
            chunk = items[start : start + self.target_group_keys]
            g = self._new_unit(chunk[0][0])
            g.keys = [k for k, _ in chunk]
            g.values = [v for _, v in chunk]
            self._retrain_group(g)
            groups.append(g)
            self.meter.charge(ALLOC_NODE)
        return groups or [self._new_unit(0)]

    def _train_root(self) -> None:
        self._root_model = LinearModel.train(self._pivots)
        self.meter.charge(TRAIN_KEY, len(self._pivots))

    def _load(self, items: Sequence[Row], ks: Any) -> None:
        super()._load(items, ks)
        self._train_root()

    def _retrain_group(self, g: Unit) -> None:
        g.models = optimal_pla(g.keys, self.epsilon) if g.keys else []
        self.meter.charge(TRAIN_KEY, len(g.keys))

    # -- routing: root hop + root model, then a walk from its hint ---------------

    def _route(self, key: Key) -> int:
        # Root structure access (upstream: a 2-level RMI) is a pointer
        # chase of its own before the group node is reached.
        charge = self.meter.charge
        charge(NODE_HOP)
        charge(MODEL_EVAL)
        pivots = self._pivots
        n = len(pivots)
        i = self._root_model.predict_clamped(key, n)
        # Local search around the root model's prediction.
        probes = 1
        while i > 0 and pivots[i] > key:
            i -= 1
            probes += 1
        while i + 1 < n and pivots[i + 1] <= key:
            i += 1
            probes += 1
        charge(KEY_COMPARE, probes)
        return i

    def _batch_route(self, log: batching.ChargeLog, t: Any, ks: Any,
                     ui: Any) -> None:
        """The hint walk replayed as ``1 + |i_final - hint|``."""
        hint = batching.predict_clamped_vec(
            self._root_model, ks, len(self._pivots))
        log.add(PHASE_TRAVERSE, NODE_HOP, 2)
        log.add(PHASE_TRAVERSE, MODEL_EVAL, 1)
        log.add(PHASE_TRAVERSE, KEY_COMPARE, 1 + batching._np.abs(ui - hint))

    # -- last mile: scan the group's models, compares charged before the model ---

    def _last_mile(self, unit: Unit, key: Key) -> int:
        keys = unit.keys
        if not keys:
            return 0
        # Pick the segment (≤ 4, so a short scan).
        seg = unit.models[0]
        scanned = 0
        for s in unit.models:
            scanned += 1
            if s.first_key <= key:
                seg = s
            else:
                break
        lo, probes = window_search(keys, seg.model, key, self.epsilon)
        # Segment scan + window search compares, then the model; cold
        # lines by charge_binary_search's rule.
        charge = self.meter.charge
        charge(KEY_COMPARE, scanned + probes)
        charge(MODEL_EVAL)
        if probes > 3:
            charge(CACHE_PROBE, probes - 3)
        return lo

    def _build_batch_tables(self):
        """Adds a padded 2D table of segment first keys for the
        vectorized segment scan."""
        t = super()._build_batch_tables()
        if t is False:
            return False
        groups = self._units
        fks = batching.int64_cache(
            [s.first_key for g in groups for s in g.models])
        np = batching._np
        t.nm = np.asarray([len(g.models) for g in groups], dtype=np.int64)
        t.seg_off = np.zeros(len(groups) + 1, dtype=np.int64)
        np.cumsum(t.nm, out=t.seg_off[1:])
        t.fk2d = np.zeros((len(groups), int(t.nm.max())), dtype=np.int64)
        for gi, g in enumerate(groups):
            t.fk2d[gi, : len(g.models)] = fks[t.seg_off[gi]:t.seg_off[gi + 1]]
        return t

    def _batch_pick(self, t: Any, ks: Any, ui: Any) -> Tuple[Any, Any]:
        """A masked 2D segment scan (groups hold at most ~4 models)."""
        np = batching._np
        nm = t.nm[ui]
        live = np.arange(t.fk2d.shape[1], dtype=np.int64)[None, :] < nm[:, None]
        c = ((t.fk2d[ui] <= ks[:, None]) & live).sum(axis=1)
        return t.seg_off[ui] + np.maximum(c - 1, 0), np.minimum(c + 1, nm)

    def _batch_search_sites(self, log: batching.ChargeLog, kc: Any,
                            cp: Any) -> None:
        log.add(PHASE_SEARCH, KEY_COMPARE, kc)
        log.add(PHASE_SEARCH, MODEL_EVAL, 1)
        log.add(PHASE_SEARCH, CACHE_PROBE, cp, reached=cp > 0)

    # -- SMO: compact the delta in, split past max_models_per_group --------------

    def _overflowed(self, unit: Unit) -> bool:
        return len(unit.side_keys) >= self.delta_size

    def _smo(self, gi: int, g: Unit) -> int:
        self.compaction_count += 1
        rows = self._unit_rows(g)
        self.meter.charge(KEY_SHIFT, len(rows))
        g.keys = [k for k, _ in rows]
        g.values = [v for _, v in rows]
        g.side_keys, g.side_values = [], []
        self._retrain_group(g)
        if len(g.models) <= self.max_models_per_group:
            return 0
        # Error tolerance exceeded: split the group in half.
        mid = len(g.keys) // 2
        right = self._new_unit(g.keys[mid])
        right.keys = g.keys[mid:]
        right.values = g.values[mid:]
        del g.keys[mid:]
        del g.values[mid:]
        self._retrain_group(g)
        self._retrain_group(right)
        self._replace_unit(gi, [g, right])
        self._train_root()
        self.meter.charge(ALLOC_NODE)
        return 1

    # -- memory -----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        inner = len(self._units) * (KEY_BYTES + POINTER_BYTES) + _MODEL_BYTES
        leaf = 0
        for g in self._units:
            leaf += _GROUP_HEADER_BYTES
            leaf += len(g.keys) * (KEY_BYTES + PAYLOAD_BYTES)
            leaf += self.delta_size * (KEY_BYTES + PAYLOAD_BYTES)  # delta arena
            inner += len(g.models) * _MODEL_BYTES
        return MemoryBreakdown(inner=inner, leaf=leaf)

    def group_count(self) -> int:
        return len(self._units)
