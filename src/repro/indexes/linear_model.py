"""Linear models and model-based search shared by the learned indexes.

Every learned index in the study is, at heart, a tree of linear models
``position ≈ slope * key + intercept``.  This module provides:

* :class:`LinearModel` — train/predict over (key, position) pairs,
* :func:`fmcd_model` — LIPP's collision-minimizing model construction,
* :func:`binary_steps` / :func:`binary_search_lower` — the probe count
  of a lower-bound binary search, and the search with cost metering.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, List, Optional, Sequence

import numpy as _np

from repro.core.cost import CostMeter, charge_binary_search

#: Fits over fewer keys than this stay in pure Python (array setup
#: overhead dominates below it).
_NUMPY_MIN_N = 256


class LinearModel:
    """``pos = slope * (key - anchor) + intercept``.

    The integer ``anchor`` is subtracted *before* the float multiply:
    raw 64-bit keys have a float64 ulp of ~16, which would make nearby
    keys indistinguishable (and did, before this existed — LIPP's FMCD
    placement livelocked on dense clusters of huge keys).  Anchoring at
    the trained keys' base keeps the multiply in exact-float territory.

    ``__slots__`` keeps instances dict-free: predict/predict_clamped are
    the hottest statements in the whole repository, and slot loads of
    ``slope``/``anchor``/``intercept`` shave a dict probe off each of
    the three attribute reads per call.  For loops that evaluate one
    model many times, :meth:`predictor` hoists the attribute reads and
    the ``n - 1`` clamp bound out of the loop entirely.
    """

    __slots__ = ("slope", "intercept", "anchor")

    def __init__(self, slope: float = 0.0, intercept: float = 0.0,
                 anchor: int = 0) -> None:
        self.slope = slope
        self.intercept = intercept
        self.anchor = anchor

    def __repr__(self) -> str:
        return (f"LinearModel(slope={self.slope!r}, "
                f"intercept={self.intercept!r}, anchor={self.anchor!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearModel):
            return NotImplemented
        return (self.slope, self.intercept, self.anchor) == (
            other.slope, other.intercept, other.anchor)

    __hash__ = None  # value-equal and mutable, like the dataclass it replaced

    def predict(self, key: int) -> float:
        return self.slope * (key - self.anchor) + self.intercept

    def predict_clamped(self, key: int, n: int) -> int:
        """Predicted slot in ``[0, n-1]``."""
        if n <= 0:
            return 0
        p = int(self.slope * (key - self.anchor) + self.intercept)
        if p < 0:
            return 0
        if p >= n:
            return n - 1
        return p

    def predictor(self, n: int) -> Callable[[int], int]:
        """A closure computing :meth:`predict_clamped` for fixed ``n``.

        Hoists the three attribute loads and the clamp bound so hot
        loops (bulk builds, FMCD placement) pay only the arithmetic.
        The float expression is unchanged — predictions are bit-equal.
        """
        if n <= 0:
            return lambda key: 0
        slope = self.slope
        intercept = self.intercept
        anchor = self.anchor
        hi = n - 1

        def predict(key: int) -> int:
            p = int(slope * (key - anchor) + intercept)
            if p < 0:
                return 0
            if p > hi:
                return hi
            return p

        return predict

    def inverse(self, position: float) -> int:
        """Smallest key mapping to at least ``position`` (approximate)."""
        if self.slope <= 0:
            return self.anchor
        import math

        return self.anchor + int(math.ceil((position - self.intercept) / self.slope))

    def scaled(self, factor: float) -> "LinearModel":
        """The same mapping stretched to a ``factor``× larger range."""
        return LinearModel(self.slope * factor, self.intercept * factor, self.anchor)

    @staticmethod
    def train(keys: Sequence[int], positions: Optional[Sequence[float]] = None) -> "LinearModel":
        """Least-squares fit of positions (default ``0..n-1``) on keys.

        Uses a numerically stable centered formulation anchored at the
        first key: 64-bit keys would overflow float64 precision otherwise.
        """
        n = len(keys)
        if n == 0:
            return LinearModel()
        if positions is None:
            positions = range(n)
        if n == 1:
            return LinearModel(0.0, float(positions[0]), keys[0])
        base = keys[0]
        if n >= _NUMPY_MIN_N and keys[-1] - base < 2**52:
            # Vectorized fast path: shifted keys fit float64 exactly.
            return LinearModel._fit_exact(
                _np.asarray([k - base for k in keys], dtype=_np.float64),
                _np.asarray(positions, dtype=_np.float64), base)
        shifted = [k - base for k in keys]
        mean_k = sum(shifted) / n
        mean_p = sum(positions) / n
        num = 0.0
        den = 0.0
        for k, p in zip(shifted, positions):
            dk = k - mean_k
            num += dk * (p - mean_p)
            den += dk * dk
        if den == 0.0:
            return LinearModel(0.0, mean_p, base)
        slope = num / den
        return LinearModel(slope, mean_p - slope * mean_k, base)

    @staticmethod
    def _fit_exact(ks: "Any", ps: "Any", base: int) -> "LinearModel":
        """Least squares over float64 arrays of shifted keys (exact:
        below 2**52) and positions."""
        mean_k = float(ks.mean())
        mean_p = float(ps.mean())
        dk = ks - mean_k
        den = float(dk @ dk)
        if den == 0.0:
            return LinearModel(0.0, mean_p, base)
        slope = float(dk @ (ps - mean_p)) / den
        return LinearModel(slope, mean_p - slope * mean_k, base)

    @staticmethod
    def train_array(ks: "Any", base: int) -> "LinearModel":
        """:meth:`train` on positions ``0..n-1`` for keys that are
        already an ascending int64 array (two at least, admitted by
        ``batching``, so their differences are exact); ``base`` is
        ``ks[0]`` as the caller's own int.  Bit-equal to :meth:`train`:
        the same fast path where it applies, and otherwise the scalar
        loop's sums in the scalar loop's order — ``cumsum`` adds left
        to right, one rounding per term.
        """
        n = len(ks)
        shifted = ks - ks[0]
        span = int(shifted[-1])
        if n >= _NUMPY_MIN_N and span < 2**52:
            return LinearModel._fit_exact(
                shifted.astype(_np.float64),
                _np.arange(n, dtype=_np.float64), base)
        if span < 2**63 // n:
            total = int(shifted.sum())
        else:  # the int64 sum could wrap: add the 32-bit halves apart
            total = ((int((shifted >> 32).sum()) << 32)
                     + int((shifted & 0xFFFFFFFF).sum()))
        mean_k = total / n
        mean_p = (n * (n - 1) // 2) / n
        dk = shifted.astype(_np.float64) - mean_k
        den = float(_np.cumsum(dk * dk)[-1])
        if den == 0.0:
            return LinearModel(0.0, mean_p, base)
        dp = _np.arange(n, dtype=_np.float64) - mean_p
        # ``+ 0.0``: the loop starts from 0.0, so a sum of nothing but
        # negative zeros reads +0.0 there.
        slope = (float(_np.cumsum(dk * dp)[-1]) + 0.0) / den
        return LinearModel(slope, mean_p - slope * mean_k, base)

    @staticmethod
    def endpoints(lo_key: int, hi_key: int, n: int) -> "LinearModel":
        """Model mapping ``[lo_key, hi_key]`` linearly onto ``[0, n)``.

        This is the two-point fit ALEX/LIPP use when building inner nodes
        from key-range boundaries.
        """
        if hi_key <= lo_key:
            return LinearModel(0.0, 0.0, lo_key)
        slope = (n - 1) / (hi_key - lo_key) if n > 1 else 0.0
        return LinearModel(slope, 0.0, lo_key)


def fmcd_model(keys: Sequence[int], n_slots: int) -> LinearModel:
    """LIPP's FMCD ("fastest minimum conflict degree") model heuristic.

    Finds a linear mapping of ``keys`` onto ``n_slots`` slots that keeps
    conflicts low by fitting through two interior quantile keys, which is
    what LIPP's reference implementation converges to in practice.  Falls
    back to an endpoint fit for tiny inputs.
    """
    m = len(keys)
    if m < 2 or n_slots < 2:
        return LinearModel.endpoints(keys[0] if keys else 0, keys[-1] if keys else 1, n_slots)
    # Fit through ~10th and ~90th percentile keys to resist outliers.
    i = max(0, m // 10)
    j = min(m - 1, m - 1 - m // 10)
    if j <= i:
        i, j = 0, m - 1
    ki, kj = keys[i], keys[j]
    if kj == ki:
        return LinearModel.endpoints(keys[0], keys[-1] + 1, n_slots)
    # Map rank i -> slot proportional position, rank j likewise; anchor
    # at ki so prediction stays exact for tightly clustered huge keys.
    target_i = (i + 0.5) / m * n_slots
    target_j = (j + 0.5) / m * n_slots
    slope = (target_j - target_i) / (kj - ki)
    return LinearModel(slope, target_i, ki)


#: ``binary_steps`` reads windows up to this wide off a table: a row is
#: ``width + 1`` bytes, all of them together under 140 KB.
_STEP_ROW_MAX = 512
#: ``_STEP_ROWS[width][rank]``, each row filled when first asked for.
_STEP_ROWS: List[Optional[bytes]] = [b"\0"] + [None] * _STEP_ROW_MAX
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def _step_row(width: int) -> bytes:
    """Fill ``_STEP_ROWS[width]``: the first probe lands on ``mid =
    width // 2``, then the loop goes on in the ``mid`` slots to its left
    (``rank <= mid``) or the ``width - mid - 1`` to its right."""
    mid = width // 2
    left = _STEP_ROWS[mid] or _step_row(mid)
    right = _STEP_ROWS[width - mid - 1] or _step_row(width - mid - 1)
    row = _STEP_ROWS[width] = (left + right).translate(_PLUS_ONE)
    return row


def binary_steps(width: int, rank: int) -> int:
    """Probes of the lower-bound loop ``mid = (lo + hi) // 2`` over a
    window ``width`` slots wide, for a key whose lower bound lies
    ``rank`` slots into it (``0 <= rank <= width``).

    The loop compares ``keys[mid] < key`` — on sorted keys ``mid <
    rank`` — so its probes depend on nothing else, and a C ``bisect``
    for the rank plus this count replaces it (``docs/cost_model.md``,
    "Probe counts without the probes").  The scalar twin of
    ``batching.simulate_binary``.
    """
    if width <= _STEP_ROW_MAX:
        return (_STEP_ROWS[width] or _step_row(width))[rank]
    lo, hi, steps = 0, width, 0
    while lo < hi:
        steps += 1
        mid = (lo + hi) // 2
        if mid < rank:
            lo = mid + 1
        else:
            hi = mid
    return steps


def binary_search_lower(
    keys: Sequence[int],
    key: int,
    meter: Optional[CostMeter] = None,
) -> int:
    """Plain lower-bound binary search with metering."""
    lo = bisect_left(keys, key)
    if meter is not None:
        charge_binary_search(meter, binary_steps(len(keys), lo))
    return lo
