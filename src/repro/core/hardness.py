"""Data-hardness metrics based on optimal piecewise linear approximation.

The paper's central methodological contribution: quantify how "hard" a
dataset is for learned indexes with the size of its optimal PLA —

* **global hardness**  = segments of the optimal PLA at ε = 4096
  (challenges the index *structure*: fanout, height, SMO cost models),
* **local hardness**   = segments at ε = 32
  (challenges individual ML models / last-mile search).

``optimal_pla`` computes the *minimum* number of ε-approximate segments
(Appendix C) with the streaming convex-hull algorithm of
[O'Rourke 1981] as implemented in the PGM-Index
[Ferragina & Vinciguerra 2020]: the feasible lines of a growing segment
are tracked by a shrinking slope "rectangle" whose corners advance
along upper/lower convex hulls of the ε-shifted points.  When a point
falls outside both extreme slopes, no single line fits and a new
segment starts — greedy left-to-right is provably optimal here.

All hull arithmetic uses Python integers (exact cross products), so
64-bit keys cannot overflow or accumulate float error; only the final
slope/intercept extraction is floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.indexes.linear_model import LinearModel

_Point = Tuple[int, int]  # (x, y) with y already shifted by ±ε


@dataclass
class Segment:
    """One ε-approximate segment of a PLA model.

    ``model`` maps a raw key to its (approximate) rank in the full
    array; ``first_index`` is the rank of the segment's first key.
    """

    first_key: int
    first_index: int
    length: int
    model: Optional[LinearModel]

    @property
    def last_index(self) -> int:
        return self.first_index + self.length - 1


def _feasible_model(points: int, first_x: int, epsilon: int,
                    r0: _Point, r1: _Point, r2: _Point,
                    r3: _Point) -> LinearModel:
    """A feasible line for a segment of ``points`` distinct keys whose
    slope rectangle ended at corners ``r0..r3``."""
    if points == 1:
        # Single point: flat line through the point itself.
        return LinearModel(0.0, (r0[1] + r1[1]) / 2.0)
    # Work in segment-local coordinates: raw 64-bit x would lose
    # ~2^11 ulps in the intersection arithmetic below.
    sx = first_x
    sy = r1[1] + epsilon
    r0, r1, r2, r3 = ((p[0] - sx, p[1] - sy) for p in (r0, r1, r2, r3))
    min_slope = (r2[1] - r0[1]) / (r2[0] - r0[0])
    max_slope = (r3[1] - r1[1]) / (r3[0] - r1[0])
    slope = (min_slope + max_slope) / 2.0
    # Pass the line through the intersection of the two extreme
    # lines (guaranteed feasible); fall back to the rectangle's
    # left edge midpoint when they are parallel.
    ix, iy = _intersection(r0, r2, r1, r3)
    if ix is None:
        # Parallel extreme lines: any line with the common slope and
        # an intercept between the two lines' intercepts is feasible.
        ix = 0.0
        iy = ((r0[1] - slope * r0[0]) + (r1[1] - slope * r1[0])) / 2.0
    # Anchored at the first x: rank = slope·(key - sx) + (iy - slope·ix + sy)
    return LinearModel(slope, iy - slope * ix + sy, sx)


def _intersection(
    a1: _Point, a2: _Point, b1: _Point, b2: _Point
) -> Tuple[Optional[float], float]:
    """Intersection of lines a1→a2 and b1→b2; (None, 0) if parallel."""
    d1x, d1y = a2[0] - a1[0], a2[1] - a1[1]
    d2x, d2y = b2[0] - b1[0], b2[1] - b1[1]
    denom = d1x * d2y - d1y * d2x
    if denom == 0:
        return None, 0.0
    t = ((b1[0] - a1[0]) * d2y - (b1[1] - a1[1]) * d2x) / denom
    return a1[0] + t * d1x, a1[1] + t * d1y


def optimal_pla(keys: Sequence[int], epsilon: int) -> List[Segment]:
    """Optimal ε-approximate PLA of ``keys`` (sorted, strictly increasing
    per segment restart; equal keys are tolerated by collapsing ranks).

    Returns the minimal list of segments such that each segment's model
    predicts every member key's rank within ±ε.

    This loop is the merge cost of every PLA-backed index, so the
    streaming one-segment feasibility tracker (PGM's algorithm) is
    written out flat.  A point ``(x, rank)`` enters as its upper
    ε-shift ``p1 = (x, rank+ε)`` and lower ε-shift ``p2 = (x, rank-ε)``;
    the feasible slopes are bounded by the line ``r0→r2`` (min) and
    ``r1→r3`` (max) whose corners live in locals.  Every slope test is
    an exact integer cross product — ``slope(a→b) < slope(c→d)`` is
    ``(by-ay)*(dx-cx) < (dy-cy)*(bx-ax)`` for positive ``dx`` — taken
    relative to the far corner of its line (``r2`` resp. ``r3``), where
    the "outside" and the "tightens" test of one line share both
    products: with ``a = dy_min*(x-r2x)`` and ``b = (y2-r2y)*dx_min``,
    ``slope(r2→p1) < min`` is ``b + 2ε*dx_min < a`` and
    ``min < slope(r0→p2)`` is ``a < b`` (the max line mirrors it).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    segments: List[Segment] = []
    eps = epsilon
    eps2 = 2 * epsilon
    start = 0
    points = 0  # distinct keys in the open segment: 0, 1 or "2 and more"
    first_x = 0
    r0x = r0y = r1x = r1y = r2x = r2y = r3x = r3y = 0
    dx_min = dy_min = dx_max = dy_max = 0  # r2 - r0 and r3 - r1
    slack_min = slack_max = 0  # 2ε*dx_min and 2ε*dx_max
    lower: List[_Point] = []
    upper: List[_Point] = []
    lower_start = upper_start = 0
    prev = None
    for i, x in enumerate(keys):
        if x == prev:
            # Duplicate key: same x cannot join the hull; the model will
            # still be within ε for it if ranks are close, so skip it.
            continue
        prev = x
        y1 = i + eps
        y2 = i - eps
        if points == 2:
            a = dy_min * (x - r2x)
            b = (y2 - r2y) * dx_min
            d = dy_max * (x - r3x)
            e = (y1 - r3y) * dx_max
            if a <= b + slack_min and e - slack_max <= d:
                if e < d:
                    # p1 tightens the max slope: walk the lower hull for
                    # the supporting point of the new extreme line (stop
                    # when slope(lower[j]→p1) starts rising).
                    best = lower_start
                    bx, by = lower[best]
                    for j in range(best + 1, len(lower)):
                        cx, cy = lower[j]
                        if (y1 - by) * (x - cx) < (y1 - cy) * (x - bx):
                            break
                        best = j
                        bx, by = cx, cy
                    r1x, r1y = bx, by
                    r3x, r3y = x, y1
                    dx_max = x - bx
                    dy_max = y1 - by
                    slack_max = eps2 * dx_max
                    lower_start = best
                    # Maintain the upper hull with p1.
                    end = len(upper)
                    while end >= upper_start + 2:
                        ox, oy = upper[end - 2]
                        ax, ay = upper[end - 1]
                        if (ax - ox) * (y1 - oy) - (ay - oy) * (x - ox) > 0:
                            break
                        end -= 1
                    del upper[end:]
                    upper.append((x, y1))
                if a < b:
                    # p2 tightens the min slope symmetrically.
                    best = upper_start
                    bx, by = upper[best]
                    for j in range(best + 1, len(upper)):
                        cx, cy = upper[j]
                        if (y2 - cy) * (x - bx) < (y2 - by) * (x - cx):
                            break
                        best = j
                        bx, by = cx, cy
                    r0x, r0y = bx, by
                    r2x, r2y = x, y2
                    dx_min = x - bx
                    dy_min = y2 - by
                    slack_min = eps2 * dx_min
                    upper_start = best
                    end = len(lower)
                    while end >= lower_start + 2:
                        ox, oy = lower[end - 2]
                        ax, ay = lower[end - 1]
                        if (ax - ox) * (y2 - oy) - (ay - oy) * (x - ox) < 0:
                            break
                        end -= 1
                    del lower[end:]
                    lower.append((x, y2))
                continue
            # slope(r2→p1) < min slope or slope(r3→p2) > max slope: no
            # single line fits, so close the segment and open the next
            # one with this point.
            segments.append(Segment(
                keys[start], start, i - start,
                _feasible_model(2, first_x, eps, (r0x, r0y), (r1x, r1y),
                                (r2x, r2y), (r3x, r3y))))
            start = i
            points = 0
        if points:
            r2x, r2y = x, y2
            r3x, r3y = x, y1
            dx_min = dx_max = x - first_x
            slack_min = slack_max = eps2 * dx_min
            dy_min = y2 - r0y
            dy_max = y1 - r1y
            upper.append((x, y1))
            lower.append((x, y2))
            points = 2
        else:
            first_x = x
            r0x, r0y = x, y1
            r1x, r1y = x, y2
            upper = [(x, y1)]
            lower = [(x, y2)]
            upper_start = lower_start = 0
            points = 1
    if points:
        segments.append(Segment(
            keys[start], start, len(keys) - start,
            _feasible_model(points, first_x, eps, (r0x, r0y), (r1x, r1y),
                            (r2x, r2y), (r3x, r3y))))
    return segments


def pla_hardness(keys: Sequence[int], epsilon: int) -> int:
    """The paper's hardness H: segment count of the optimal PLA."""
    return len(optimal_pla(keys, epsilon))


def global_hardness(keys: Sequence[int], epsilon: int = 4096) -> int:
    """PLA ε=4096 — global non-linearity (structure-level hardness)."""
    return pla_hardness(keys, epsilon)


def local_hardness(keys: Sequence[int], epsilon: int = 32) -> int:
    """PLA ε=32 — local non-linearity (model-level hardness)."""
    return pla_hardness(keys, epsilon)


def mse_hardness(keys: Sequence[int]) -> float:
    """Appendix-D alternative: MSE of a single regression line.

    Included to reproduce Figure F's demonstration that MSE is too
    outlier-sensitive to rank global hardness correctly (it overrates
    ``fb``-style datasets with a few extreme keys).
    """
    n = len(keys)
    if n < 2:
        return 0.0
    model = LinearModel.train(keys)
    err = 0.0
    for i, k in enumerate(keys):
        d = model.predict(k) - i
        err += d * d
    # Normalised by n² so the metric is scale-free across dataset sizes.
    return err / (n * float(n))


def verify_pla(keys: Sequence[int], segments: List[Segment], epsilon: int) -> bool:
    """Check the ε guarantee of a PLA (used by tests and sanity asserts)."""
    for seg in segments:
        prev_key = None
        for offset in range(seg.length):
            rank = seg.first_index + offset
            if keys[rank] == prev_key:
                continue  # duplicate keys share a prediction
            prev_key = keys[rank]
            pred = seg.model.predict(keys[rank])
            if abs(pred - rank) > epsilon + 1e-6:
                return False
    return True
