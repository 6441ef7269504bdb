"""Rectilinear path planning inside a union of axis-aligned rectangles.

The region is cut by every rectangle edge, every forbidden line and the two
endpoints into a rational grid (cut values plus gap midpoints).  Every grid
move joins a cut value to the midpoint of an adjacent gap, and membership is
constant on each open gap, so a move lies in the region exactly when both of
its ends do.  A search over grid moves that minimizes turns, then steps,
decides reachability.  Each search state records the axis of the move into
it, so the path's corners are read off the parent chain (the start, each
state where the next move changes axis, and the goal); consecutive corners
are its alternating horizontal and vertical segments, re-validated exactly.
Vertical moves never run along a forbidden x-line, horizontal moves never
along a forbidden y-line.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import InvalidModel, OnForbiddenLine, OutsideRegion, Value
from .projline import Rat, as_rat, format_rat, quote_rats

Point = Tuple[Rat, Rat]


class Rect(Value):
    """A closed axis-aligned rectangle [x0, x1] x [y0, y1]."""

    __slots__ = ("x0", "x1", "y0", "y1")

    def __init__(self, x0: Rat, x1: Rat, y0: Rat, y1: Rat):
        x0, x1, y0, y1 = as_rat(x0), as_rat(x1), as_rat(y0), as_rat(y1)
        if x0 > x1 or y0 > y1:
            raise InvalidModel("rectangle ranges must be nonempty")
        super().__init__(x0, x1, y0, y1)

    def contains(self, p: Point) -> bool:
        return self.x0 <= p[0] <= self.x1 and self.y0 <= p[1] <= self.y1


class Region(Value):
    """A finite union of rectangles; overlaps are allowed."""

    __slots__ = ("rects",)

    def __init__(self, rects: tuple):
        rects = tuple(rects)
        if not rects:
            raise InvalidModel("a region needs at least one rectangle")
        super().__init__(rects)

    def contains(self, p: Point) -> bool:
        return any(r.contains(p) for r in self.rects)


class Segment(Value):
    """A nondegenerate horizontal or vertical segment."""

    __slots__ = ("a", "b")

    def __init__(self, a: Point, b: Point):
        a, b = _as_point(a), _as_point(b)
        if a == b:
            raise InvalidModel("zero-length segment")
        if a[0] != b[0] and a[1] != b[1]:
            raise InvalidModel("segment is neither horizontal nor vertical")
        super().__init__(a, b)

    @property
    def is_vertical(self) -> bool:
        return self.a[0] == self.b[0]

    def as_json(self) -> list:
        return [[format_rat(self.a[0]), format_rat(self.a[1])],
                [format_rat(self.b[0]), format_rat(self.b[1])]]


class SegPath(Value):
    """Alternating axis-parallel segments, consecutive ones sharing a point."""

    __slots__ = ("segments",)

    def __init__(self, segments: tuple):
        segs = tuple(segments)
        for prev, cur in zip(segs, segs[1:]):
            if prev.b != cur.a:
                raise InvalidModel("consecutive segments must share an endpoint")
            if prev.is_vertical == cur.is_vertical:
                raise InvalidModel("consecutive segments must alternate orientation")
        super().__init__(segs)

    def __len__(self):
        return len(self.segments)

    def as_json(self) -> list:
        return [s.as_json() for s in self.segments]


def _as_point(p) -> Point:
    return (as_rat(p[0]), as_rat(p[1]))


def _grid_values(cuts: Iterable[Rat]) -> List[Rat]:
    values = sorted(set(cuts))
    grid = []
    for i, v in enumerate(values):
        grid.append(v)
        if i + 1 < len(values):
            grid.append((v + values[i + 1]) / 2)
    return grid


def validate_path(region: Region, path: SegPath, start, end,
                  forbidden_x: Sequence = (), forbidden_y: Sequence = ()) -> bool:
    """Exact check: endpoints, containment in the union, forbidden avoidance."""
    start, end = _as_point(start), _as_point(end)
    forbidden_x = set(map(as_rat, forbidden_x))
    forbidden_y = set(map(as_rat, forbidden_y))
    if not path.segments:
        return start == end and region.contains(start)
    if path.segments[0].a != start or path.segments[-1].b != end:
        return False
    # per axis k along which a segment runs: the rectangle edges it crosses,
    # and the forbidden values of its other coordinate
    cuts = [sorted({r.x0 for r in region.rects} | {r.x1 for r in region.rects}),
            sorted({r.y0 for r in region.rects} | {r.y1 for r in region.rects})]
    forbidden = (forbidden_y, forbidden_x)
    for seg in path.segments:
        k = int(seg.is_vertical)
        fixed = seg.a[1 - k]
        if fixed in forbidden[k]:
            return False
        lo, hi = sorted((seg.a[k], seg.b[k]))
        stops = [lo] + [c for c in cuts[k] if lo < c < hi] + [hi]
        along = [(u + v) / 2 for u, v in zip(stops, stops[1:])] + stops
        if not all(region.contains((fixed, t) if k else (t, fixed)) for t in along):
            return False
    return True


def find_rect_path(region: Region, start, end,
                   forbidden_x: Sequence = (), forbidden_y: Sequence = ()) -> Optional[SegPath]:
    """A validated rectilinear path from start to end inside the region.

    Vertical segments avoid the forbidden x-values and horizontal segments
    the forbidden y-values.  Returns None when the endpoints lie in distinct
    connected components (an empty path when start equals end).  The search
    minimizes the number of turns, then the number of grid steps, so the
    output is reproducible.
    """
    start, end = _as_point(start), _as_point(end)
    fx = set(map(as_rat, forbidden_x))
    fy = set(map(as_rat, forbidden_y))
    for p, name in ((start, "start"), (end, "end")):
        if not region.contains(p):
            raise OutsideRegion(f"{name} {quote_rats(*p)} is outside the region")
    for p, name in ((start, "start"), (end, "end")):
        if p[0] in fx or p[1] in fy:
            raise OnForbiddenLine(f"{name} {quote_rats(*p)} lies on a forbidden line")
    if start == end:
        return SegPath(())

    xs = _grid_values([r.x0 for r in region.rects] + [r.x1 for r in region.rects]
                      + list(fx) + [start[0], end[0]])
    ys = _grid_values([r.y0 for r in region.rects] + [r.y1 for r in region.rects]
                      + list(fy) + [start[1], end[1]])
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    inside = [[region.contains((x, y)) for y in ys] for x in xs]

    # a state is (i, j, axis): axis of the move into (xs[i], ys[j]),
    # 0 = horizontal, 1 = vertical, -1 at the start
    start_state = (xi[start[0]], yi[start[1]], -1)
    goal = (xi[end[0]], yi[end[1]])
    best = {start_state: (0, 0)}
    parent = {}
    heap = [(0, 0, start_state)]
    while heap:
        turns, steps, state = heapq.heappop(heap)
        if best[state] != (turns, steps):
            continue
        i, j, axis = state
        if (i, j) == goal:
            break
        for ni, nj, naxis in ((i + 1, j, 0), (i - 1, j, 0), (i, j + 1, 1), (i, j - 1, 1)):
            if not (0 <= ni < len(xs) and 0 <= nj < len(ys) and inside[ni][nj]):
                continue
            if (xs[i] in fx) if naxis else (ys[j] in fy):
                continue
            ncost = (turns + (axis not in (-1, naxis)), steps + 1)
            nstate = (ni, nj, naxis)
            if nstate not in best or ncost < best[nstate]:
                best[nstate] = ncost
                parent[nstate] = state
                heapq.heappush(heap, (ncost[0], ncost[1], nstate))
    else:
        return None
    # corners: the goal, each state whose successor turns, and the start
    corners = [state]
    while state in parent:
        prev = parent[state]
        if prev[2] != state[2]:
            corners.append(prev)
        state = prev
    corners = [(xs[i], ys[j]) for i, j, _ in reversed(corners)]
    path = SegPath(tuple(Segment(a, b) for a, b in zip(corners, corners[1:])))
    if not validate_path(region, path, start, end, fx, fy):
        raise AssertionError("planner produced a path that fails validation")
    return path
