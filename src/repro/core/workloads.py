"""Workload construction (Section 3.3, Section 4.4, Section 6, Appendix E).

A :class:`Workload` is a bulk-load set plus a deterministic operation
stream.  Builders mirror the paper's definitions, scaled by ``n``:

* :func:`mixed_workload` — the five insert mixes (Read-Only 0% …
  Write-Only 100% writes).  Writes insert the not-yet-loaded half of
  the dataset in shuffled order; reads look up uniformly random keys
  among those currently present.
* :func:`deletion_workload` — Figure 7's 0%…100% delete mixes.
* :func:`shift_workload` — Figure 12's distribution shift: bulk from
  dataset X, insert keys from dataset Y rescaled into X's domain,
  look up keys of X.
* :func:`scan_workload` — Figure 13's fixed-size range queries.
* :func:`ycsb_workload` — YCSB A/B/C with scrambled-Zipfian key choice
  (updates only, no inserts — the reason LIPP+ scales again in
  Figure G).
* :func:`moving_hotspot_workload` — a zipfian hot range drifting across
  the keyspace (the sharded-serving rebalance replay).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.datasets.zipfian import ScrambledZipfian, ZipfianGenerator
from repro.indexes import batching

LOOKUP = "lookup"
INSERT = "insert"
UPDATE = "update"
DELETE = "delete"
SCAN = "scan"


def payload(key: int) -> int:
    """Deterministic 8-byte payload for a key (checkable in tests)."""
    return (key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF


@dataclass
class Operation:
    op: str
    key: int
    value: Any = None
    count: int = 0  # scan length


def apply_op(index: Any, op: Operation) -> Tuple[bool, int, Any]:
    """Apply one operation to ``index``; returns ``(ok, scanned, result)``.

    ``index`` is anything with the ``OrderedIndex`` op surface — a bare
    index, a ``MultiplexIndex``, a sharded tier.  ``ok`` is the lookup
    hit / write success, ``scanned`` the rows a scan returned, and
    ``result`` the raw return value (payload, row list, ``None`` for
    writes) that differential oracles compare.  This is the repo's one
    definition of what an op means: the engine, the server, the shard
    router, migrations and the multicore adapters all call it, so
    journal replays and routed runs compare bit-for-bit with engine runs.
    """
    kind = op.op
    if kind == LOOKUP:
        value = index.lookup(op.key)
        return value is not None, 0, value
    if kind == INSERT:
        return bool(index.insert(op.key, op.value)), 0, None
    if kind == UPDATE:
        return bool(index.update(op.key, op.value)), 0, None
    if kind == DELETE:
        return bool(index.delete(op.key)), 0, None
    if kind == SCAN:
        rows = index.range_scan(op.key, op.count)
        return True, len(rows), rows
    raise ValueError(f"unknown op {kind!r}")


@dataclass
class Workload:
    """Bulk items + operation stream, both deterministic."""

    name: str
    bulk_items: List[Tuple[int, Any]]
    operations: List[Operation]
    #: Fraction of ops that mutate (for reports).
    write_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not batching.ascending(batching.key_list(self.bulk_items),
                                  strict=False):
            raise ValueError("bulk_items must be sorted")

    @property
    def n_ops(self) -> int:
        return len(self.operations)


def _items(keys: Sequence[int]) -> List[Tuple[int, Any]]:
    return [(k, payload(k)) for k in keys]


def mixed_workload(
    keys: Sequence[int],
    write_frac: float,
    n_ops: Optional[int] = None,
    seed: int = 0,
) -> Workload:
    """The paper's insert-mix workloads over one dataset's keys.

    ``write_frac`` 0.0 bulk-loads everything and issues only lookups;
    otherwise half the (shuffled) keys are bulk loaded and writes insert
    the remaining keys until they run out.
    """
    if not 0.0 <= write_frac <= 1.0:
        raise ValueError("write_frac must be in [0, 1]")
    rng = random.Random(f"mixed-{write_frac}-{seed}")
    keys = list(keys)
    rng.shuffle(keys)
    if write_frac == 0.0:
        loaded = sorted(keys)
        pending: List[int] = []
    else:
        half = len(keys) // 2
        loaded = sorted(keys[:half])
        pending = keys[half:]
    if n_ops is None:
        n_ops = len(keys)
    if write_frac == 1.0:
        # The paper's Write-Only issues insertions only: never pad the
        # stream with lookups once the pending keys run out.
        n_ops = min(n_ops, len(pending))
    ops: List[Operation] = []
    present = [k for k, _ in _items(loaded)]
    pi = 0
    for _ in range(n_ops):
        if pending and pi < len(pending) and rng.random() < write_frac:
            k = pending[pi]
            pi += 1
            ops.append(Operation(INSERT, k, payload(k)))
        else:
            k = present[rng.randrange(len(present))]
            ops.append(Operation(LOOKUP, k))
    name = {0.0: "read-only", 0.2: "read-intensive", 0.5: "balanced",
            0.8: "write-heavy", 1.0: "write-only"}.get(write_frac, f"{write_frac:.0%}-write")
    return Workload(name, _items(loaded), ops, write_fraction=write_frac)


def deletion_workload(
    keys: Sequence[int],
    delete_frac: float,
    n_ops: Optional[int] = None,
    seed: int = 0,
) -> Workload:
    """Figure 7: bulk-load everything, delete until half is gone."""
    if not 0.0 <= delete_frac <= 1.0:
        raise ValueError("delete_frac must be in [0, 1]")
    rng = random.Random(f"del-{delete_frac}-{seed}")
    keys = list(keys)
    loaded = sorted(keys)
    doomed = list(keys)
    rng.shuffle(doomed)
    doomed = doomed[: len(keys) // 2]
    if n_ops is None:
        n_ops = len(keys)
    ops: List[Operation] = []
    di = 0
    for _ in range(n_ops):
        if di < len(doomed) and rng.random() < delete_frac:
            ops.append(Operation(DELETE, doomed[di]))
            di += 1
        else:
            ops.append(Operation(LOOKUP, keys[rng.randrange(len(keys))]))
    return Workload(f"{delete_frac:.0%}-delete", _items(loaded), ops,
                    write_fraction=delete_frac)


def shift_workload(
    bulk_keys: Sequence[int],
    insert_keys: Sequence[int],
    n_ops: Optional[int] = None,
    seed: int = 0,
    name: str = "shift",
) -> Workload:
    """Figure 12: bulk X, balanced lookups-on-X / inserts-from-Y.

    ``insert_keys`` are linearly rescaled into the bulk keys' domain
    ("keys of both datasets are scaled to the same domain").
    """
    rng = random.Random(f"shift-{seed}")
    bulk = sorted(set(bulk_keys))
    lo, hi = bulk[0], bulk[-1]
    src_lo, src_hi = min(insert_keys), max(insert_keys)
    span_src = max(src_hi - src_lo, 1)
    scaled = []
    present = set(bulk)
    for k in insert_keys:
        s = lo + (k - src_lo) * (hi - lo) // span_src
        while s in present:  # keep keys unique after rescaling
            s += 1
        present.add(s)
        scaled.append(s)
    rng.shuffle(scaled)
    if n_ops is None:
        n_ops = 2 * len(scaled)
    ops: List[Operation] = []
    si = 0
    for _ in range(n_ops):
        if si < len(scaled) and rng.random() < 0.5:
            k = scaled[si]
            si += 1
            ops.append(Operation(INSERT, k, payload(k)))
        else:
            ops.append(Operation(LOOKUP, bulk[rng.randrange(len(bulk))]))
    return Workload(name, _items(bulk), ops, write_fraction=0.5)


def scan_workload(
    keys: Sequence[int],
    scan_size: int,
    n_scans: int,
    seed: int = 0,
) -> Workload:
    """Figure 13: fixed-size range queries from random start keys."""
    if scan_size < 1:
        raise ValueError("scan_size must be >= 1")
    rng = random.Random(f"scan-{scan_size}-{seed}")
    keys = sorted(keys)
    ops = [
        Operation(SCAN, keys[rng.randrange(len(keys))], count=scan_size)
        for _ in range(n_scans)
    ]
    return Workload(f"scan-{scan_size}", _items(keys), ops)


def churn_workload(
    keys: Sequence[int],
    write_frac: float = 0.5,
    n_ops: Optional[int] = None,
    theta: float = 0.99,
    seed: int = 0,
) -> Workload:
    """Zipfian live churn: hot-key lookups under a steady insert stream.

    The migration benchmark's stand-in for production traffic: half the
    (shuffled) keys bulk load, inserts drain the other half in shuffled
    order, and every lookup picks a scrambled-Zipfian *hot* key among
    the bulk-loaded set — so reads hammer a skewed working set while
    the key space keeps growing under the index being migrated.
    Deterministic per (``write_frac``, ``seed``) like every builder.
    """
    if not 0.0 < write_frac < 1.0:
        raise ValueError("churn needs both reads and writes: "
                         "write_frac must be in (0, 1)")
    rng = random.Random(f"churn-{write_frac}-{seed}")
    keys = list(keys)
    rng.shuffle(keys)
    half = len(keys) // 2
    loaded = sorted(keys[:half])
    pending = keys[half:]
    chooser = ScrambledZipfian(loaded, theta=theta, seed=seed)
    if n_ops is None:
        n_ops = len(keys)
    ops: List[Operation] = []
    pi = 0
    for _ in range(n_ops):
        if pi < len(pending) and rng.random() < write_frac:
            k = pending[pi]
            pi += 1
            ops.append(Operation(INSERT, k, payload(k)))
        else:
            ops.append(Operation(LOOKUP, chooser.next_key()))
    return Workload("zipf-churn", _items(loaded), ops,
                    write_fraction=write_frac)


def ycsb_workload(
    keys: Sequence[int],
    variant: str,
    n_ops: int,
    theta: float = 0.99,
    seed: int = 0,
) -> Workload:
    """The six core YCSB workloads with zipfian key choice.

    The paper evaluates A/B/C (Appendix E); D/E/F are provided for
    completeness with YCSB's standard definitions:

    * **A** — update heavy: 50% lookups, 50% updates,
    * **B** — read heavy: 95% lookups, 5% updates,
    * **C** — read only,
    * **D** — read latest: 95% lookups biased to recent inserts,
      5% inserts of new (larger) keys,
    * **E** — short ranges: 95% scans (zipfian-length, mean ~50),
      5% inserts,
    * **F** — read-modify-write: 50% lookups, 50% lookup+update pairs.
    """
    if variant not in "ABCDEF" or len(variant) != 1:
        raise ValueError("variant must be one of A..F")
    rng = random.Random(f"ycsb-{variant}-{seed}")
    keys = sorted(keys)
    chooser = ScrambledZipfian(keys, theta=theta, seed=seed)
    ops: List[Operation] = []
    if variant in "ABC":
        update_frac = {"A": 0.5, "B": 0.05, "C": 0.0}[variant]
        for _ in range(n_ops):
            k = chooser.next_key()
            if rng.random() < update_frac:
                ops.append(Operation(UPDATE, k, payload(k) ^ 0xFF))
            else:
                ops.append(Operation(LOOKUP, k))
        return Workload(f"ycsb-{variant}", _items(keys), ops,
                        write_fraction=update_frac)
    if variant == "D":
        # Read-latest: new keys append past the current maximum; reads
        # prefer the most recent inserts (zipfian over recency).
        recent: List[int] = list(keys[-100:])
        next_key = keys[-1]
        zipf = ZipfianGenerator(100, theta=theta, seed=seed)
        for _ in range(n_ops):
            if rng.random() < 0.05:
                next_key += rng.randint(1, 1000)
                recent.append(next_key)
                if len(recent) > 100:
                    recent.pop(0)
                ops.append(Operation(INSERT, next_key, payload(next_key)))
            else:
                rank = zipf.next_rank()  # 0 = hottest = most recent
                ops.append(Operation(LOOKUP, recent[-1 - min(rank, len(recent) - 1)]))
        return Workload("ycsb-D", _items(keys), ops, write_fraction=0.05)
    if variant == "E":
        next_key = keys[-1]
        for _ in range(n_ops):
            if rng.random() < 0.05:
                next_key += rng.randint(1, 1000)
                ops.append(Operation(INSERT, next_key, payload(next_key)))
            else:
                start = chooser.next_key()
                length = max(1, min(100, int(rng.expovariate(1 / 50.0))))
                ops.append(Operation(SCAN, start, count=length))
        return Workload("ycsb-E", _items(keys), ops, write_fraction=0.05)
    # F: read-modify-write — modelled as lookup followed by update; the
    # op stream carries the update, the runner's update path reads first.
    for _ in range(n_ops):
        k = chooser.next_key()
        if rng.random() < 0.5:
            ops.append(Operation(LOOKUP, k))
        else:
            ops.append(Operation(UPDATE, k, payload(k) ^ 0xF0F0))
    return Workload("ycsb-F", _items(keys), ops, write_fraction=0.5)


def moving_hotspot_workload(
    keys: Sequence[int],
    n_ops: Optional[int] = None,
    phases: int = 4,
    hot_frac: float = 0.05,
    hot_ratio: float = 0.85,
    insert_frac: float = 0.25,
    warm_frac: float = 0.15,
    theta: float = 0.99,
    seed: int = 0,
) -> Workload:
    """A zipfian hot key range that drifts across the keyspace over time.

    The sharded-serving rebalance replay: all ``keys`` bulk load, then

    * a **warm** segment (``warm_frac`` of the ops) of uniform lookups —
      the pre-skew baseline the rebalance benchmark compares against,
    * ``phases`` hot segments.  Each phase pins a hot window of
      ``hot_frac`` of the key range; the window's left edge drifts from
      the bottom of the keyspace to the top across phases.  Within a
      phase, ``hot_ratio`` of ops hit the window — scrambled-zipfian
      lookups over its keys, with ``insert_frac`` of the hot ops
      inserting *fresh* keys sampled inside the window (hot shards grow,
      which is what makes splitting them worthwhile) — and the rest are
      uniform background lookups,
    * a tail of uniform lookups padding the stream to exactly ``n_ops``
      (the post-rebalance cooldown the benchmark measures recovery on).

    Deterministic per (``phases``, ``hot_frac``, ``seed``).
    """
    if phases < 1:
        raise ValueError("phases must be >= 1")
    if not 0.0 < hot_frac <= 1.0:
        raise ValueError("hot_frac must be in (0, 1]")
    if not 0.0 <= warm_frac < 1.0:
        raise ValueError("warm_frac must be in [0, 1)")
    rng = random.Random(f"hotspot-{phases}-{hot_frac}-{seed}")
    loaded = sorted(keys)
    if len(loaded) < 2:
        raise ValueError("need at least 2 keys")
    if n_ops is None:
        n_ops = 2 * len(loaded)
    present = set(loaded)
    ops: List[Operation] = []

    def uniform_lookup() -> Operation:
        return Operation(LOOKUP, loaded[rng.randrange(len(loaded))])

    warm_ops = int(n_ops * warm_frac)
    ops.extend(uniform_lookup() for _ in range(warm_ops))

    width = max(int(len(loaded) * hot_frac), 2)
    phase_ops = (n_ops - warm_ops) // (phases + 1)  # leave a cooldown tail
    for p in range(phases):
        start = round(p * (len(loaded) - width) / max(phases - 1, 1))
        window = loaded[start:start + width]
        lo, hi = window[0], window[-1]
        chooser = ScrambledZipfian(window, theta=theta,
                                   seed=seed * 1000003 + p)
        for _ in range(phase_ops):
            if rng.random() >= hot_ratio:
                ops.append(uniform_lookup())
            elif rng.random() < insert_frac:
                k = rng.randint(lo, hi)
                while k in present:
                    k += 1
                present.add(k)
                ops.append(Operation(INSERT, k, payload(k)))
            else:
                ops.append(Operation(LOOKUP, chooser.next_key()))
    while len(ops) < n_ops:
        ops.append(uniform_lookup())
    write_fraction = (sum(1 for op in ops if op.op == INSERT)
                      / max(len(ops), 1))
    return Workload("moving-hotspot", _items(loaded), ops,
                    write_fraction=write_fraction)


#: The paper's five insert mixes, in heatmap order.
MIX_FRACTIONS = (0.0, 0.2, 0.5, 0.8, 1.0)
MIX_NAMES = ("read-only", "read-intensive", "balanced", "write-heavy", "write-only")

