"""Rectilinear path planning over rectangle unions, against a flood fill."""

import random
from fractions import Fraction

import pytest

from conicbundle import Rect, Region, SegPath, Segment, find_rect_path, validate_path
from conicbundle.errors import InvalidModel, OnForbiddenLine, OutsideRegion

import support


def region(*quads):
    return Region(tuple(Rect(*q) for q in quads))


L_REGION = region((0, 2, 0, 1), (1, 2, 0, 3))


# -- basic shapes -------------------------------------------------------------

def test_same_point_gives_empty_path():
    path = find_rect_path(L_REGION, (Fraction(1, 2), Fraction(1, 2)),
                          (Fraction(1, 2), Fraction(1, 2)))
    assert path == SegPath(())
    assert validate_path(L_REGION, path, (Fraction(1, 2), Fraction(1, 2)),
                         (Fraction(1, 2), Fraction(1, 2)))


def test_l_shaped_route():
    start = (Fraction(1, 2), Fraction(1, 2))
    end = (Fraction(3, 2), Fraction(5, 2))
    path = find_rect_path(L_REGION, start, end)
    assert path is not None
    assert len(path) == 2
    assert not path.segments[0].is_vertical and path.segments[1].is_vertical
    assert path.segments[0].a == start and path.segments[1].b == end
    assert validate_path(L_REGION, path, start, end)


def test_disconnected_components():
    split = region((0, 1, 0, 1), (3, 4, 3, 4))
    assert find_rect_path(split, (Fraction(1, 2), Fraction(1, 2)),
                          (Fraction(7, 2), Fraction(7, 2))) is None


def test_corner_touching_rectangles_are_connected():
    # Travel through the shared corner along the boundary lines.
    touching = region((0, 1, 0, 1), (1, 2, 1, 2))
    start, end = (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(3, 2))
    path = find_rect_path(touching, start, end)
    assert path is not None
    assert validate_path(touching, path, start, end)
    assert support.grid_reachable(touching, start, end)


def test_corner_blocked_by_forbidden_lines():
    touching = region((0, 1, 0, 1), (1, 2, 1, 2))
    start, end = (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(3, 2))
    blocked = find_rect_path(touching, start, end,
                             forbidden_x=[Fraction(1)], forbidden_y=[Fraction(1)])
    assert blocked is None
    assert not support.grid_reachable(touching, start, end,
                                      forbidden_x=[Fraction(1)], forbidden_y=[Fraction(1)])


# -- preconditions -------------------------------------------------------------

def test_endpoint_outside_region():
    with pytest.raises(OutsideRegion):
        find_rect_path(L_REGION, (Fraction(5), Fraction(5)), (Fraction(1, 2), Fraction(1, 2)))


def test_endpoint_on_forbidden_line():
    with pytest.raises(OnForbiddenLine):
        find_rect_path(L_REGION, (Fraction(1, 2), Fraction(1, 2)),
                       (Fraction(3, 2), Fraction(5, 2)),
                       forbidden_x=[Fraction(1, 2)])


def test_rect_validation():
    with pytest.raises(InvalidModel):
        Rect(1, 0, 0, 1)
    with pytest.raises(InvalidModel):
        Segment((0, 0), (1, 1))
    with pytest.raises(InvalidModel):
        Segment((0, 0), (0, 0))


# -- forbidden lines -----------------------------------------------------------

def test_forbidden_vertical_line_forces_detour():
    # One wide rectangle; the line x = 1 may be crossed horizontally but no
    # vertical segment may run along it.
    wide = region((0, 2, 0, 2))
    start, end = (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(3, 2))
    path = find_rect_path(wide, start, end, forbidden_x=[Fraction(1)])
    assert path is not None
    assert validate_path(wide, path, start, end, forbidden_x=[Fraction(1)])
    for seg in path.segments:
        if seg.is_vertical:
            assert seg.a[0] != Fraction(1)


def test_forbidden_line_can_disconnect():
    # A 1-wide corridor whose only vertical passage sits on the forbidden line.
    corridor = region((0, 3, 0, 1), (1, 1, 1, 3), (0, 3, 3, 4))
    start, end = (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(7, 2))
    assert find_rect_path(corridor, start, end) is not None
    assert find_rect_path(corridor, start, end, forbidden_x=[Fraction(1)]) is None


def test_degenerate_line_region():
    # a zero-height rectangle is still a legal corridor
    line = region((0, 2, 1, 1))
    start, end = (Fraction(0), Fraction(1)), (Fraction(2), Fraction(1))
    path = find_rect_path(line, start, end)
    assert path is not None and len(path) == 1
    assert validate_path(line, path, start, end)
    # but a forbidden y-line through it blocks every horizontal move
    assert find_rect_path(line, (Fraction(0), Fraction(1)), (Fraction(2), Fraction(1)),
                          forbidden_y=[Fraction(2)]) is not None
    with pytest.raises(OnForbiddenLine):
        find_rect_path(line, start, end, forbidden_y=[Fraction(1)])


# -- validation ------------------------------------------------------------------

def test_validate_rejects_escaping_segment():
    path = SegPath((Segment((Fraction(1, 2), Fraction(1, 2)), (Fraction(5), Fraction(1, 2))),))
    assert not validate_path(L_REGION, path, (Fraction(1, 2), Fraction(1, 2)),
                             (Fraction(5), Fraction(1, 2)))


def test_validate_rejects_vertical_segment_leaving_the_region():
    # both ends lie in the region, the middle of the segment does not
    gap = region((0, 1, 0, 1), (0, 1, 2, 3))
    start, end = (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(5, 2))
    assert not validate_path(gap, SegPath((Segment(start, end),)), start, end)


def test_validate_rejects_segments_on_their_forbidden_lines():
    # a vertical segment may cross a forbidden y-line but not run along a
    # forbidden x-line, and a horizontal one the other way round
    half, three_halves = Fraction(1, 2), Fraction(3, 2)
    for start, end, along, crossing in (
            ((three_halves, half), (three_halves, Fraction(5, 2)),
             {"forbidden_x": [three_halves]}, {"forbidden_y": [1]}),
            ((half, half), (three_halves, half), {"forbidden_y": [half]}, {"forbidden_x": [1]})):
        path = SegPath((Segment(start, end),))
        assert validate_path(L_REGION, path, start, end)
        assert validate_path(L_REGION, path, start, end, **crossing)
        assert not validate_path(L_REGION, path, start, end, **along)


def test_validate_rejects_wrong_endpoints():
    path = SegPath((Segment((0, 0), (1, 0)),))
    assert not validate_path(L_REGION, path, (0, 0), (2, 0))


def test_segpath_structural_invariants():
    with pytest.raises(InvalidModel):
        SegPath((Segment((0, 0), (1, 0)), Segment((2, 0), (2, 1))))  # gap
    with pytest.raises(InvalidModel):
        SegPath((Segment((0, 0), (1, 0)), Segment((1, 0), (2, 0))))  # no turn


def test_postcondition_survives_optimize_flag():
    # Under python -O a bare assert vanishes; the planner must still refuse
    # to return a path that fails validation.
    script = "\n".join([
        "from conicbundle import planner",
        "assert False, 'asserts are live: not running under -O'",
        "planner.validate_path = lambda *args: False",
        "try:",
        "    planner.find_rect_path(planner.Region((planner.Rect(0, 2, 0, 1),)), (0, 0), (2, 1))",
        "except AssertionError as exc:",
        "    print('raised:', exc)",
    ])
    proc = support.run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: planner produced a path that fails validation")


# -- oracle agreement ---------------------------------------------------------------

def test_path_finder_agrees_with_flood_fill():
    rng = random.Random(19)
    for trial in range(60):
        reg = support.random_region(rng)
        start = support.random_region_point(rng, reg)
        end = support.random_region_point(rng, reg)
        fx, fy = [], []
        if trial % 3 == 0:
            fx = [Fraction(rng.randint(0, 8))]
            fy = [Fraction(rng.randint(0, 8))]
            if start[0] in fx or end[0] in fx or start[1] in fy or end[1] in fy:
                fx, fy = [], []
        path = find_rect_path(reg, start, end, fx, fy)
        reachable = support.grid_reachable(reg, start, end, fx, fy)
        assert (path is not None) == reachable
        if path is not None:
            assert validate_path(reg, path, start, end, fx, fy)
            for seg in path.segments:
                if seg.is_vertical:
                    assert seg.a[0] not in fx
                else:
                    assert seg.a[1] not in fy


# -- the search against the polyline-merge reference ------------------------------------

def _planner_case(rng):
    """A seeded request: fractional, touching and degenerate rectangles,
    forbidden lines on and off the grid, and endpoints that may coincide,
    leave the region or sit on a forbidden line."""
    def rat(hi=4):
        return Fraction(rng.randint(0, hi * 2), rng.choice((1, 2, 2, 3)))

    rects = []
    for _ in range(rng.randint(1, 4)):
        if rects and rng.random() < 0.6:
            # touch the previous rectangle at an edge or a corner
            x0 = rng.choice((rects[-1].x0, rects[-1].x1))
            y0 = rng.choice((rects[-1].y0, rects[-1].y1))
        else:
            x0, y0 = rat(), rat()
        rects.append(Rect(x0, x0 + rat(2), y0, y0 + rat(2)))
    reg = Region(tuple(rects))

    def endpoint(r):
        if rng.random() < 0.1:
            return (rat(), rat())
        tx, ty = Fraction(rng.randint(0, 4), 4), Fraction(rng.randint(0, 4), 4)
        return (r.x0 + tx * (r.x1 - r.x0), r.y0 + ty * (r.y1 - r.y0))

    start = endpoint(rects[0])
    end = start if rng.random() < 0.05 else endpoint(rng.choice(rects[-2:]))
    grid_x = [r.x0 for r in rects] + [r.x1 for r in rects] + [start[0], end[0]]
    grid_y = [r.y0 for r in rects] + [r.y1 for r in rects] + [start[1], end[1]]
    fx = [rng.choice(grid_x) if rng.random() < 0.3 else rat()
          for _ in range(rng.choice((0, 0, 1, 2)))]
    fy = [rng.choice(grid_y) if rng.random() < 0.3 else rat()
          for _ in range(rng.choice((0, 0, 1, 2)))]
    return reg, start, end, fx, fy


def _planner_outcome(find, *request):
    try:
        path = find(*request)
    except Exception as exc:
        return type(exc)
    return None if path is None else path.as_json()


def test_search_corners_match_the_polyline_merge():
    rng = random.Random(20261019)
    kinds = {"path": 0, "none": 0, "error": 0, "two-turns": 0}
    for _ in range(10_000):
        request = _planner_case(rng)
        got = _planner_outcome(find_rect_path, *request)
        assert got == _planner_outcome(support.reference_find_rect_path, *request), request
        kinds["none" if got is None else "path" if isinstance(got, list) else "error"] += 1
        kinds["two-turns"] += isinstance(got, list) and len(got) >= 3
    # every outcome is well represented, so the agreement covers each of them
    assert min(kinds.values()) >= 200 and min(kinds["path"], kinds["none"]) >= 1000, kinds
