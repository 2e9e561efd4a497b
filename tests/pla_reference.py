"""The pre-flattening ``optimal_pla``, kept as the tests' reference.

``repro.core.hardness.optimal_pla`` runs PGM's streaming one-segment
feasibility tracker as one flat loop with the slope tests rewritten to
share products.  This module is the implementation it replaced — a
segmenter object fed one point per call, every slope comparison its own
``_slope_lt`` over corner tuples — and ``tests/test_hardness.py``
requires the two to return identical segments, model for model.
"""

from typing import List, Optional, Sequence, Tuple

from repro.core.hardness import Segment
from repro.indexes.linear_model import LinearModel

_Point = Tuple[int, int]  # (x, y) with y already shifted by ±ε


def _cross(o: _Point, a: _Point, b: _Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _slope_lt(a: _Point, b: _Point, c: _Point, d: _Point) -> bool:
    """slope(a→b) < slope(c→d), all dx > 0, exact integer compare."""
    return (b[1] - a[1]) * (d[0] - c[0]) < (d[1] - c[1]) * (b[0] - a[0])


class _OptimalSegmenter:
    """Streaming one-segment feasibility tracker (PGM's algorithm)."""

    __slots__ = (
        "epsilon", "lower", "upper", "lower_start", "upper_start",
        "points_in_hull", "rect", "first_x",
    )

    def __init__(self, epsilon: int) -> None:
        self.epsilon = epsilon
        self.lower: List[_Point] = []
        self.upper: List[_Point] = []
        self.lower_start = 0
        self.upper_start = 0
        self.points_in_hull = 0
        self.rect: List[_Point] = [(0, 0)] * 4
        self.first_x = 0

    def add_point(self, x: int, y: int) -> bool:
        """Add (x, y); False when the point breaks the segment."""
        eps = self.epsilon
        p1 = (x, y + eps)  # upper ε-shift
        p2 = (x, y - eps)  # lower ε-shift

        if self.points_in_hull == 0:
            self.first_x = x
            self.rect[0] = p1
            self.rect[1] = p2
            self.upper = [p1]
            self.lower = [p2]
            self.upper_start = self.lower_start = 0
            self.points_in_hull = 1
            return True

        if self.points_in_hull == 1:
            self.rect[2] = p2
            self.rect[3] = p1
            self.upper.append(p1)
            self.lower.append(p2)
            self.points_in_hull = 2
            return True

        r = self.rect
        outside_min = _slope_lt(r[2], p1, r[0], r[2])  # slope(r2→p1) < min slope
        outside_max = _slope_lt(r[1], r[3], r[3], p2)  # slope(r3→p2) > max slope
        if outside_min or outside_max:
            self.points_in_hull = 0
            return False

        if _slope_lt(r[1], p1, r[1], r[3]):
            # p1 tightens the max slope: walk the lower hull for the
            # supporting point of the new extreme line.
            lo = self.lower
            best = self.lower_start
            i = best + 1
            while i < len(lo):
                # slope(lo[i]→p1) vs slope(lo[best]→p1): stop when rising.
                if _slope_lt(lo[best], p1, lo[i], p1):
                    break
                best = i
                i += 1
            r[1] = lo[best]
            r[3] = p1
            self.lower_start = best
            # Maintain the upper hull with p1.
            up = self.upper
            end = len(up)
            while end >= self.upper_start + 2 and _cross(up[end - 2], up[end - 1], p1) <= 0:
                end -= 1
            del up[end:]
            up.append(p1)

        if _slope_lt(r[0], r[2], r[0], p2):
            # p2 tightens the min slope symmetrically.
            up = self.upper
            best = self.upper_start
            i = best + 1
            while i < len(up):
                if _slope_lt(up[i], p2, up[best], p2):
                    break
                best = i
                i += 1
            r[0] = up[best]
            r[2] = p2
            self.upper_start = best
            lo = self.lower
            end = len(lo)
            while end >= self.lower_start + 2 and _cross(lo[end - 2], lo[end - 1], p2) >= 0:
                end -= 1
            del lo[end:]
            lo.append(p2)

        self.points_in_hull += 1
        return True

    def current_model(self) -> LinearModel:
        """A feasible line for the points added so far."""
        if self.points_in_hull == 1:
            # Single point: flat line through the point itself.
            return LinearModel(0.0, (self.rect[0][1] + self.rect[1][1]) / 2.0)
        # Work in segment-local coordinates: raw 64-bit x would lose
        # ~2^11 ulps in the intersection arithmetic below.
        sx = self.first_x
        sy = self.rect[1][1] + self.epsilon  # y of the first point
        r0, r1, r2, r3 = (
            (p[0] - sx, p[1] - sy) for p in self.rect
        )
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


def reference_optimal_pla(keys: Sequence[int], epsilon: int) -> List[Segment]:
    """``optimal_pla`` as it was: one ``add_point`` call per key."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    n = len(keys)
    if n == 0:
        return []
    segments: List[Segment] = []
    seg = _OptimalSegmenter(epsilon)
    start = 0
    i = 0
    while i < n:
        x = keys[i]
        if i > start and x == keys[i - 1]:
            # Duplicate key: same x cannot join the hull; the model will
            # still be within ε for it if ranks are close, so skip it.
            i += 1
            continue
        if seg.add_point(x, i):
            i += 1
            continue
        # Point broke the segment: close it and restart from here.
        segments.append(
            Segment(
                first_key=keys[start],
                first_index=start,
                length=i - start,
                model=seg.current_model(),
            )
        )
        start = i
        seg = _OptimalSegmenter(epsilon)
    segments.append(
        Segment(
            first_key=keys[start],
            first_index=start,
            length=n - start,
            model=seg.current_model(),
        )
    )
    return segments
