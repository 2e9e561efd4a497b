"""Shared machinery for numpy-vectorized batch lookups and array builds.

The batch fast paths must be *observationally identical* to the scalar
hot paths: same values, same :class:`~repro.indexes.base.OpRecord`
fields, and — the hard part — the exact same :class:`CostMeter` state,
including the dict insertion order of ``(phase, kind)`` counters (the
virtual clock sums floats in insertion order, so even the order is
observable).  Three ideas make that tractable:

* **Search replay by rank.**  Every windowed binary search in the
  scalar paths compares ``keys[mid] < key`` (or ``first_key <= key``),
  which is equivalent to ``mid < r`` where ``r`` is the key's rank —
  from ``np.searchsorted`` over a cached array (an immutable run, a
  segment table, a B+tree level's separators, which only an SMO
  changes), or from C ``bisect`` on the live list of a leaf that
  writes change in place (B+tree, ALEX; LIPP reads one slot), of
  which no copy can go stale.  So the probe counts of a whole
  batch can be read off the scalar path's own ``binary_steps`` table by
  (window width, rank) — no key arrays touched — and come out *exactly*
  equal to what the scalar loop would count.
* **Charge logs.**  Fast paths record per-op unit counts per charge
  *site* (one scalar ``meter.charge`` statement, in the order the
  scalar path reaches them).  :meth:`ChargeLog.range_charges` sums them
  over ranges of ops, each range's sites in first-reached order — the
  scalar loop's counter insertion order.  ``lookup_many`` charges the
  whole batch as one range; the engine cuts a block of lookups at its
  sampled ops, each alone between two clock reads.
* **Integer units.**  All unit counts are integers well below 2**53,
  so one big add equals many small float adds bit-for-bit.

The array bulk builds of ALEX and LIPP hold to the same rule (same
tree, node ids and meter as the scalar builders) and take their arrays
through the same door: :func:`int64_cache` makes every array,
:func:`key_list` and :func:`object_columns` unzip a build's items.

Every key lies in :data:`KEY_DOMAIN`, so every array is an int64 array
and the kernels subtract any two of its values exactly.  numpy is a
hard dependency (``pyproject.toml``).
"""

from __future__ import annotations

import operator
from itertools import islice
from typing import Any, Callable, List, Optional, Sequence

import numpy as _np

from repro.indexes.linear_model import _STEP_ROW_MAX, _STEP_ROWS, _step_row

#: Batches below this size skip the vectorized path: the numpy call
#: overhead outweighs the win.  Tests shrink it to force coverage.
MIN_BATCH = 16

#: The key domain ``[lo, hi)`` of every index: the half of the paper's
#: uint64 keys an int64 array holds (doors: ``repro.indexes.base``).
KEY_DOMAIN = (0, 1 << 63)


class KeyDomainError(ValueError):
    """A key outside :data:`KEY_DOMAIN`, refused."""


def outside_domain(door: str, keys: Sequence[int]) -> KeyDomainError:
    """The refusal of ``keys`` at ``door``, naming the door, the first
    key outside :data:`KEY_DOMAIN` and the domain."""
    lo, hi = KEY_DOMAIN
    key = next((k for k in keys if not lo <= k < hi), None)
    return KeyDomainError(f"{door} refuses key {key!r}: outside the key "
                          f"domain [{lo}, 2**{hi.bit_length() - 1})")


def check_domain(door: str, keys: Sequence[int]) -> None:
    """Refuse ``keys`` at ``door`` unless one ``min`` and one ``max``
    find them inside :data:`KEY_DOMAIN`."""
    lo, hi = KEY_DOMAIN
    if len(keys) and not (lo <= min(keys) and max(keys) < hi):
        raise outside_domain(door, keys)


def int64_cache(values: Sequence[int],
                door: str = "batching.int64_cache") -> "Any":
    """``values`` as a one-dimensional int64 array — how every array
    the kernels see is made: batch keys, the cached arrays of a PGM run
    or a segment table, model anchors, the keys of an array build.

    The kernels subtract these values from each other in int64 —
    ``predict_vec`` takes a probe key minus a model anchor, from arrays
    made at different times — which is exact inside
    :data:`KEY_DOMAIN`; a value outside it is refused at ``door``.
    """
    try:
        arr = _np.asarray(values, dtype=_np.int64)
    except OverflowError:
        raise outside_domain(door, values) from None
    if arr.size and int(arr.min()) < 0:
        raise outside_domain(door, values)
    return arr


def key_array(keys: Sequence[int]) -> Optional["Any"]:
    """``keys`` as an int64 array, or ``None`` when the batch is too
    small for the vectorized path and takes the scalar loop."""
    if len(keys) < MIN_BATCH:
        return None
    return int64_cache(keys)


def model_arrays(models: Sequence[Any]):
    """Per-model (slope, intercept, anchor) gather arrays."""
    anchors = int64_cache([m.anchor for m in models])
    slopes = _np.asarray([m.slope for m in models], dtype=_np.float64)
    intercepts = _np.asarray([m.intercept for m in models], dtype=_np.float64)
    return slopes, intercepts, anchors


_KEY, _VALUE = operator.itemgetter(0), operator.itemgetter(1)


def key_list(items: Sequence[tuple]) -> List[int]:
    """The keys of ``(key, value)`` items, taken out at C speed."""
    return list(map(_KEY, items))


def object_columns(items: Sequence[tuple]) -> tuple:
    """``(key, value)`` items unzipped into two object arrays, so a
    build can gather, repeat and scatter the caller's own key and value
    objects at C speed (``tolist()`` on the int64 keys would mint a new
    int per slot, and the finished nodes must hold what they were
    given)."""
    n = len(items)
    return (_np.fromiter(map(_KEY, items), dtype=object, count=n),
            _np.fromiter(map(_VALUE, items), dtype=object, count=n))


def ascending(keys, strict: bool) -> bool:
    """Whether ``keys`` (an int64 array or any sequence) ascend —
    strictly, or with equal neighbours allowed — in one pass over
    adjacent pairs at C speed."""
    if isinstance(keys, _np.ndarray):
        below, above = keys[:-1], keys[1:]
        return bool((below < above).all() if strict
                    else (below <= above).all())
    return all(map(operator.lt if strict else operator.le,
                   keys, islice(keys, 1, None)))


def predict_vec(slope, intercept, anchor, ks):
    """Vectorized ``LinearModel.predict``: float64 ops in the same
    order as the scalar expression ``slope * (key - anchor) + intercept``
    (int64 subtract is exact; the float cast rounds identically)."""
    return slope * (ks - anchor).astype(_np.float64) + intercept


def predict_clamped_vec(model, ks, n: int):
    """Vectorized ``LinearModel.predict_clamped`` for one model."""
    if n <= 0:
        return _np.zeros(len(ks), dtype=_np.int64)
    pred = predict_vec(model.slope, model.intercept, _np.int64(model.anchor), ks)
    # Pre-clip so the int64 cast cannot overflow; the clip bound is
    # outside [-1, n] so post-clamp results are unchanged.
    c = float(n + 2)
    p = _np.clip(pred, -c, c, out=pred).astype(_np.int64)
    return _np.clip(p, 0, n - 1, out=p)


def clamp_slots(pred, n):
    """``predict_clamped_vec``'s clamp with ``n`` per key: the float
    predictions ``pred`` (clipped in place) into ``[0, n - 1]``, ``0``
    where ``n <= 0``."""
    c = float(int(n.max()) + 2)
    p = _np.clip(pred, -c, c, out=pred).astype(_np.int64)
    return _np.clip(p, 0, _np.maximum(n - 1, 0), out=p)


def window_bounds(slope, intercept, anchor, ks, eps: int, length):
    """The scalar paths' last-mile window ``[lo, hi)`` around a model
    prediction: ``hi = max(min(pred+eps+2, n), 0)``,
    ``lo = min(max(pred-eps-1, 0), hi)``.

    ``length`` may be a scalar or a per-key array.  The float prediction
    is pre-clipped to a magnitude that provably leaves the clamped
    ``lo``/``hi`` unchanged while keeping the int64 cast in range.
    """
    pred = predict_vec(slope, intercept, anchor, ks)
    nmax = int(length.max()) if hasattr(length, "max") else int(length)
    c = float(nmax + eps + 4)
    p = _np.clip(pred, -c, c).astype(_np.int64)
    hi = _np.clip(p + (eps + 2), 0, length)
    lo = _np.minimum(_np.maximum(p - (eps + 1), 0), hi)
    return lo, hi


def _step_table():
    """``binary_steps``'s table rows as one uint8 array: ``[width,
    rank]`` for every window up to ``_STEP_ROW_MAX`` wide (zeros past
    ``rank == width``)."""
    size = _STEP_ROW_MAX + 1
    table = _np.zeros((size, size), dtype=_np.uint8)
    for width in range(size):
        row = _STEP_ROWS[width] or _step_row(width)
        table[width, :width + 1] = _np.frombuffer(row, dtype=_np.uint8)
    return table


_STEPS = _step_table()


def simulate_binary(lo, hi, r):
    """Probe count of the scalar lower-bound loop over ``[lo, hi)``.

    The loop compares ``keys[mid] < key``; with ``r`` the key's rank
    (``np.searchsorted(..., 'left')`` for ``<`` conditions,
    ``'right'`` for ``<=`` conditions) that is exactly ``mid < r``, so
    the probes depend only on the window's width and the rank inside it
    — a rank below the window probes like 0, one above it like the full
    width — and are read off the rows ``binary_steps`` reads.  Only
    windows wider than its last row replay the loop, in ~log2(window)
    masked steps.  Returns the per-key probe counts as int64; the final
    ``lo`` is ``clip(r, lo, hi)``.
    """
    width = hi - lo
    rank = _np.clip(r - lo, 0, width)
    # ``_STEPS[width, rank]`` by flat index; a wider window's index is
    # past the table's end, clipped there, and its count replaced below.
    probes = _STEPS.take(width * (_STEP_ROW_MAX + 1) + rank,
                         mode="clip").astype(_np.int64)
    wide = _np.flatnonzero(width > _STEP_ROW_MAX)
    if wide.size:
        probes[wide] = _binary_loop(width[wide], rank[wide])
    return probes


def _binary_loop(hi, r):
    """The lower-bound loop over ``[0, hi)`` replayed in masked steps."""
    lo = _np.zeros_like(hi)
    probes = _np.zeros(lo.shape, dtype=_np.int64)
    active = lo < hi
    while active.any():
        probes[active] += 1
        mid = (lo + hi) >> 1
        right = active & (mid < r)
        left = active & ~(mid < r)
        lo = _np.where(right, mid + 1, lo)
        hi = _np.where(left, mid, hi)
        active = lo < hi
    return probes


def simulate_exponential(hint, r, cap):
    """Replay ALEX's inline exponential search around ``hint``.

    Conditions ``keys[x] >= key`` become ``x >= r``, for ranks ``r`` in
    ``[0, cap]``; ``cap`` may be a scalar or a per-key array.  Going
    left the search doubles its step while ``hint - 2**j >= r``, going
    right while ``hint + 2**j < r``: as many steps as the distance has
    bits, read off the float exponent.  Returns ``(probes, lo)`` where
    ``lo == r`` clipped into the final window — exactly the scalar
    result — and ``probes`` matches the scalar count (first comparison
    + doubling steps + windowed binary).
    """
    left = hint >= r  # keys[hint] >= key
    steps = _np.frexp(_np.where(left, hint - r, r - hint - 1))[1].astype(
        _np.int64)
    reach = _np.left_shift(1, steps)
    lo = _np.where(left, _np.maximum(hint - reach, 0), hint)
    hi = _np.where(left, hint, _np.minimum(hint + reach, cap))
    probes = 1 + steps + simulate_binary(lo, hi, r)
    return probes, _np.clip(r, lo, hi)


def cache_probe_units(probes):
    """Per-op CACHE_PROBE units of ``charge_binary_search``: each
    search step charges ``probes - 3`` when ``probes > 3``; summed
    over steps that is ``max(probes - 3, 0)`` per step."""
    return _np.maximum(probes - 3, 0)


def local_search_lines(distance):
    """Per-op CACHE_PROBE units of ``charge_local_search``."""
    lines = _np.maximum((_np.abs(distance) - 4) // 8, 0)
    return _np.minimum(lines, 64)


class ConcatTable:
    """Per-segment sorted key lists flattened into one sorted array.

    Valid when the segments partition the key space by their pivots —
    then a key routed to segment ``s`` has its global ``searchsorted``
    rank inside ``[offsets[s], offsets[s+1]]`` and the segment-local
    rank is just ``rank - offsets[s]``.  One ``searchsorted`` over the
    concatenation replaces a Python binary search per key.
    """

    __slots__ = ("cat", "offsets", "lens", "bl")

    @staticmethod
    def build(key_lists):
        lens = _np.asarray([len(ks) for ks in key_lists], dtype=_np.int64)
        offsets = _np.zeros(len(key_lists) + 1, dtype=_np.int64)
        _np.cumsum(lens, out=offsets[1:])
        t = ConcatTable()
        t.cat = int64_cache([k for ks in key_lists for k in ks])
        t.offsets = offsets
        t.lens = lens
        t.bl = _np.asarray(
            [max(1, len(ks).bit_length()) for ks in key_lists],
            dtype=_np.int64)
        return t

    def rank_local(self, ks, si):
        r = _np.searchsorted(self.cat, ks, side="left")
        return r - self.offsets[si]


class ChargeLog:
    """Ordered per-op charge records for one batched phase.

    A *site* corresponds to one scalar ``meter.charge`` statement (or a
    group of same-key statements that the scalar path always reaches in
    a fixed order).  Sites are added in the order the scalar path first
    executes them within an op.  ``reached`` is ``None`` when every op
    executes the site (possibly with 0 units — a zero charge still
    inserts the counter key, which is observable through the float
    summation order), or a boolean array marking the ops that do.
    """

    __slots__ = ("n", "sites")

    def __init__(self, n: int) -> None:
        self.n = n
        self.sites: List[tuple] = []

    def add(self, phase: str, kind: str, units, reached=None) -> None:
        self.sites.append((phase, kind, units, reached))

    def range_charges(self, starts: Sequence[int]) -> List[List[tuple]]:
        """The batch cut at ``starts`` (ascending, from 0; the last range
        ends at ``n``): per range, one ``(phase, kind, total)`` per site
        some op in it reaches, in the order the scalar loop would first
        create each counter key."""
        n = self.n
        starts = list(starts)
        ends = [*starts[1:], n]
        positions = _np.arange(n)
        firsts, totals = [], []
        for _, _, units, reached in self.sites:
            if reached is None:
                first = starts
                total = (_np.add.reduceat(units, starts).tolist()
                         if hasattr(units, "sum")
                         else [units * (e - s) for s, e in zip(starts, ends)])
            else:
                first = _np.minimum.reduceat(
                    _np.where(reached, positions, n), starts).tolist()
                total = _np.add.reduceat(
                    _np.where(reached, units, 0), starts).tolist()
            firsts.append(first)
            totals.append(total)
        out = []
        for end, first, total in zip(ends, zip(*firsts), zip(*totals)):
            order = sorted((f, pos) for pos, f in enumerate(first) if f < end)
            out.append([(*self.sites[pos][:2], total[pos])
                        for _, pos in order])
        return out

    def apply_totals(self, meter) -> None:
        """Replay the whole batch — the one range ``[0, n)`` — as one
        charge per site."""
        for phase, kind, total in self.range_charges((0,))[0]:
            meter.charge_phased(phase, kind, total)


class BatchLookup:
    """Result of an index's internal ``_lookup_batch`` fast path."""

    __slots__ = ("values", "log", "make_record")

    def __init__(self, values: List[Any], log: ChargeLog,
                 make_record: Callable[[int], Any]) -> None:
        self.values = values
        self.log = log
        self.make_record = make_record
