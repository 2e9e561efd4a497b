"""RMI — the original Recursive Model Index (Kraska et al., SIGMOD 2018).

The paper's Section 2 background: the read-only index that started the
field.  Two stages of linear models over a packed sorted array; stage 1
routes a key to one of ``fanout`` stage-2 models; each stage-2 model
predicts a position with a per-model recorded maximum error, bounding
the last-mile binary search.

Included as the read-only baseline the updatable indexes are measured
against conceptually.  ``insert``/``delete`` raise — that limitation is
the entire motivation of the paper this repository reproduces.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.cost import (
    CACHE_PROBE,
    KEY_COMPARE,
    MODEL_EVAL,
    NODE_HOP,
    PHASE_SEARCH,
    SCAN_ENTRY,
    TRAIN_KEY,
)
from repro.core.validate import Violation, sorted_violations
from repro.indexes import batching
from repro.indexes.base import (
    KEY_BYTES,
    PAYLOAD_BYTES,
    Key,
    MemoryBreakdown,
    OpRecord,
    OrderedIndex,
    Value,
)
from repro.indexes.linear_model import LinearModel, binary_steps

_MODEL_BYTES = 24


class RMI(OrderedIndex):
    """Two-stage recursive model index (read-only)."""

    name = "RMI"
    is_learned = True
    supports_insert = False
    supports_delete = False
    supports_range = True

    def __init__(self, fanout: int = 64, **kwargs: Any) -> None:
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        super().__init__(**kwargs)
        self.fanout = fanout
        self._keys: List[Key] = []
        self._values: List[Value] = []
        self._root = LinearModel()
        self._leaf_models: List[LinearModel] = []
        self._leaf_errors: List[int] = []
        self._batch_cache: Any = None

    # -- build --------------------------------------------------------------

    def _load(self, items: Sequence[Tuple[Key, Value]], ks: Any) -> None:
        self._keys = [k for k, _ in items]
        self._values = [v for _, v in items]
        n = len(self._keys)
        self._leaf_models = [LinearModel() for _ in range(self.fanout)]
        self._leaf_errors = [0] * self.fanout
        if n == 0:
            self._root = LinearModel()
            return
        # Stage 1: one model over the whole CDF, scaled to leaf slots.
        self._root = LinearModel.train(self._keys).scaled(self.fanout / n)
        self.meter.charge(TRAIN_KEY, n)
        # Partition by the stage-1 prediction, then fit each partition.
        buckets: List[List[int]] = [[] for _ in range(self.fanout)]
        route = self._root.predictor(self.fanout)
        for idx, k in enumerate(self._keys):
            buckets[route(k)].append(idx)
        for m, bucket in enumerate(buckets):
            if not bucket:
                continue
            ks = [self._keys[i] for i in bucket]
            model = LinearModel.train(ks, bucket)
            self._leaf_models[m] = model
            self._leaf_errors[m] = max(
                (abs(int(model.predict(self._keys[i])) - i) for i in bucket),
                default=0,
            )
            self.meter.charge(TRAIN_KEY, len(ks))

    # -- lookup ------------------------------------------------------------------

    def _lower_bound(self, key: Key) -> int:
        n = len(self._keys)
        if n == 0:
            return 0
        keys = self._keys
        m = self._root.predict_clamped(key, self.fanout)
        model = self._leaf_models[m]
        err = self._leaf_errors[m]
        pred = int(model.predict(key))
        hi = max(min(pred + err + 2, n), 0)
        start = min(max(pred - err - 1, 0), hi)
        lo = bisect_left(keys, key, start, hi)
        probes = binary_steps(hi - start, lo - start)
        # The prediction window is exact only for trained keys; absent
        # keys at bucket edges may need to spill to the neighbours.
        spill = 0
        while lo > 0 and keys[lo - 1] >= key:
            lo -= 1
            spill += 1
        while lo < n and keys[lo] < key:
            lo += 1
            spill += 1
        # Root and stage-2 models, the stage-2 model fetch, the window
        # search (cold lines by charge_binary_search's rule) + spill.
        charge = self.meter.charge
        charge(MODEL_EVAL, 2)
        charge(NODE_HOP)
        charge(KEY_COMPARE, probes + spill)
        if probes > 3:
            charge(CACHE_PROBE, probes - 3)
        return lo

    def lookup(self, key: Key) -> Optional[Value]:
        with self.meter.phase(PHASE_SEARCH):
            i = self._lower_bound(key)
        found = i < len(self._keys) and self._keys[i] == key
        self.last_op = OpRecord(op="lookup", key=key, found=found,
                                nodes_traversed=2)
        return self._values[i] if found else None

    def _lookup_batch(self, keys: Sequence[Key]):
        """Vectorized two-stage lookup (see ``repro.indexes.batching``).

        Stage-1 routing, the stage-2 predictions, the bounded binary
        search, and the edge-spill loops are all replayed with rank
        arithmetic: ``np.searchsorted`` gives every key's true rank
        ``r``; every ``self._keys[mid] < key`` comparison is then
        ``mid < r``, and the spill loops walk ``|clip(r, lo, hi) - r|``
        steps to land exactly on ``r``.
        """
        ks = batching.key_array(keys)
        n = len(self._keys)
        if ks is None or n == 0:
            return None
        cache = self._batch_cache
        if cache is None:
            cache = self._batch_cache = (
                batching.int64_cache(self._keys),
                batching.model_arrays(self._leaf_models),
                batching.int64_cache(self._leaf_errors))
        keys_np, (slopes, intercepts, anchors), errors = cache
        np = batching._np
        m = batching.predict_clamped_vec(self._root, ks, self.fanout)
        err = errors[m]
        # Per-model error bounds make the window per-key; inline the
        # ``window_bounds`` form with the gathered ``err``.
        pred = batching.predict_vec(slopes[m], intercepts[m], anchors[m], ks)
        c = float(n) + float(errors.max()) + 4.0
        p = np.clip(pred, -c, c).astype(np.int64)
        hi = np.clip(p + err + 2, 0, n)
        lo = np.minimum(np.maximum(p - err - 1, 0), hi)
        r = np.searchsorted(keys_np, ks, side="left")
        probes = batching.simulate_binary(lo, hi, r)
        spill = np.abs(np.clip(r, lo, hi) - r)
        cp = batching.cache_probe_units(probes)
        found = (r < n) & (keys_np[np.minimum(r, n - 1)] == ks)
        B = len(ks)
        log = batching.ChargeLog(B)
        log.add(PHASE_SEARCH, MODEL_EVAL, np.full(B, 2, dtype=np.int64))
        log.add(PHASE_SEARCH, NODE_HOP, np.ones(B, dtype=np.int64))
        log.add(PHASE_SEARCH, KEY_COMPARE, probes + spill)
        log.add(PHASE_SEARCH, CACHE_PROBE, cp, reached=cp > 0)
        values = [None] * B
        for i, v in zip(np.flatnonzero(found).tolist(),
                        map(self._values.__getitem__, r[found].tolist())):
            values[i] = v
        found_list = found.tolist()

        def make_record(i: int) -> OpRecord:
            return OpRecord(op="lookup", key=keys[i], found=found_list[i],
                            nodes_traversed=2)

        return batching.BatchLookup(values, log, make_record)

    # -- mutations: the point of the paper ---------------------------------------

    def insert(self, key: Key, value: Value) -> bool:
        raise NotImplementedError(
            "RMI is read-only — use ALEX/LIPP/PGM for dynamic workloads "
            "(that gap is what 'Are Updatable Learned Indexes Ready?' studies)"
        )

    def update(self, key: Key, value: Value) -> bool:
        i = self._lower_bound(key)
        if i < len(self._keys) and self._keys[i] == key:
            self._values[i] = value
            return True
        return False

    # -- scans -----------------------------------------------------------------

    def range_scan(self, start: Key, count: int) -> List[Tuple[Key, Value]]:
        i = self._lower_bound(start)
        end = min(i + count, len(self._keys))
        if end <= i:
            return []
        self.meter.charge(SCAN_ENTRY, end - i)
        return list(zip(self._keys[i:end], self._values[i:end]))

    # -- memory -----------------------------------------------------------------

    def memory_usage(self) -> MemoryBreakdown:
        inner = (1 + self.fanout) * _MODEL_BYTES + self.fanout * 8
        leaf = len(self._keys) * (KEY_BYTES + PAYLOAD_BYTES)
        return MemoryBreakdown(inner=inner, leaf=leaf)

    @property
    def max_error(self) -> int:
        return max(self._leaf_errors, default=0)

    # -- validation ---------------------------------------------------------------

    def debug_validate(self) -> List[Violation]:
        """Read-only invariants: the packed arrays sorted and parallel,
        size accounting, and every key's stage-2 residual within the
        recorded per-model error bound (the bound that makes last-mile
        search exact for trained keys).  Never charges the meter.
        """
        out: List[Violation] = []
        out.extend(sorted_violations(self._keys, 0, "rmi.keys-sorted",
                                     strict=False))
        if len(self._keys) != len(self._values):
            out.append(Violation(
                0, "rmi.arrays",
                f"{len(self._keys)} keys vs {len(self._values)} values"))
        if len(self._keys) != self._size:
            out.append(Violation(
                0, "rmi.size",
                f"{len(self._keys)} packed keys but len(index) == "
                f"{self._size}"))
        for idx, k in enumerate(self._keys):
            m = self._root.predict_clamped(k, self.fanout)
            err = self._leaf_errors[m]
            pred = int(self._leaf_models[m].predict(k))
            if abs(pred - idx) > err:
                out.append(Violation(
                    m, "rmi.error-bound",
                    f"key {k}: stage-2 model {m} predicts rank {pred}, "
                    f"true rank {idx}, recorded error bound {err}"))
                break
        return out
