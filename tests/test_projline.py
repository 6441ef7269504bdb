"""Projective line: points, Moebius maps, arcs, configurations, decisions."""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt, log10

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicbundle import (
    Interval,
    IntervalConfig,
    Moebius,
    ProjPoint,
    config_equiv,
    format_rat,
    moebius_from_triples,
    parse_rat,
    realizable_permutations,
    stabilizer,
)
from conicbundle import projline
from conicbundle.errors import (
    ConicBundleError,
    InfiniteStabilizer,
    InvalidModel,
    InvalidTriple,
    ParseError,
)
from conicbundle.projline import (
    INF,
    ONE,
    ZERO,
    _cross_pair,
    _dihedral_maps,
    _factor,
    _legendre,
    _through_standard,
    _walk_key,
    clear_denominators,
    interval_image,
    primitive,
)

import support


def pt(value):
    return ProjPoint.from_rat(Fraction(value))


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
points = st.one_of(st.builds(pt, rationals), st.just(INF))


# -- parsing and formatting --------------------------------------------------

def test_parse_and_format_roundtrip():
    for token in ["0", "5", "-3", "7/3", "-12/5"]:
        assert format_rat(parse_rat(token)) == token


@pytest.mark.parametrize("k", [4300, 4310, 9000, 30000])
def test_format_rat_past_the_digit_limit(k):
    limit = sys.get_int_max_str_digits()
    n = 10 ** k + 123456789
    digits = "1" + "0" * (k - 9) + "123456789"
    assert format_rat(n) == digits
    assert format_rat(Fraction(-n)) == "-" + digits
    assert format_rat(Fraction(n * 10 ** k + 7)) == digits + "0" * (k - 1) + "7"
    assert format_rat(Fraction(-7, n)) == "-7/" + digits
    assert format_rat(Fraction(n, 3)) == digits + "/3"
    assert format_rat(Fraction(n, n + 2)) == (
        support.decimal_digits(n) + "/" + support.decimal_digits(n + 2))
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("bad", ["2/4", "1/0", "3/-5", "a", "1.5", "", "5/", "\u0661/\u0662",
                                 " 3", "3\n", " inf"])
def test_parse_rejects_bad_tokens(bad):
    with pytest.raises(ParseError):
        parse_rat(bad)


def test_parse_error_names_token():
    with pytest.raises(ParseError, match="2/4"):
        parse_rat("2/4")


EDGE = "1" * 37 + "x"  # its repr is the longest that a message quotes whole


@pytest.mark.parametrize("token, message", [
    ("2/4", "non-coprime rational token: '2/4'"),
    ("1/0", "zero denominator in token: '1/0'"),
    ("3/-5", "negative denominator in token: '3/-5'"),
    ("a", "not a rational token: 'a'"),
    (7, "not a rational token: 7"),
    (EDGE, f"not a rational token: '{EDGE}'"),
    (EDGE + "1", "not a rational token: '111111111111111...1111111111111x1' (39 characters)"),
    ("1" + "0" * 4999 + "x",
     "not a rational token: '100000000000000...00000000000000x' (5001 characters)"),
], ids=["non-coprime", "zero-den", "negative-den", "letter", "not-a-string", "edge-whole",
        "edge-cut", "long"])
def test_parse_error_quotes_short_tokens_whole_and_long_ones_cut(token, message):
    with pytest.raises(ParseError) as info:
        parse_rat(token)
    assert str(info.value) == message


# -- exact kernels -----------------------------------------------------------

int_vectors = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4)
wide_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(int_vectors, st.integers(-50, 50).filter(bool))
def test_primitive_is_reduced_and_scale_invariant(ints, scale):
    got = primitive(*ints)
    if not any(ints):
        assert got == tuple(ints)
        return
    assert gcd(*got) == 1
    k = next(i for i, v in enumerate(ints) if v)
    assert got[k] > 0 and not any(got[:k])
    assert all(v * got[k] == g * ints[k] for v, g in zip(ints, got))
    assert primitive(*(scale * v for v in ints)) == got


@given(st.lists(wide_rationals, min_size=1, max_size=4))
def test_clear_denominators_keeps_ratios_and_signs(values):
    got = clear_denominators(values)
    assert all(type(g) is int for g in got)
    assert [(g > 0) - (g < 0) for g in got] == [(v > 0) - (v < 0) for v in values]
    assert len({g / v for g, v in zip(got, values) if v}) <= 1


# -- points ------------------------------------------------------------------

def test_point_normalization():
    assert ProjPoint(2, 4) == ProjPoint(1, 2)
    assert ProjPoint(-2, -4) == ProjPoint(1, 2)
    assert ProjPoint(0, -7) == ProjPoint(0, 1)
    assert ProjPoint(-3, 0) == ProjPoint.infinity()


def test_point_rejects_origin():
    with pytest.raises(ValueError):
        ProjPoint(0, 0)


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_point_normalization_idempotent(u0, u1):
    if u0 == 0 and u1 == 0:
        return
    once = ProjPoint(u0, u1)
    assert ProjPoint(once.u0, once.u1) == once


def test_point_tokens():
    assert ProjPoint.from_token("inf") == INF
    assert ProjPoint.from_token("7/3") == pt(Fraction(7, 3))
    assert INF.to_token() == "inf"
    for padded in (" inf", "inf\n", "INF"):
        with pytest.raises(ParseError):
            ProjPoint.from_token(padded)


# -- Moebius maps ------------------------------------------------------------

def test_apply_identity():
    assert Moebius.identity().apply(ProjPoint(3, 1)) == ProjPoint(3, 1)


def test_apply_swap_sends_infinity_to_zero():
    swap = Moebius(0, 1, 1, 0)
    assert swap.apply(INF) == ZERO


def test_apply_scaled_inversion():
    # (x1 : x2) -> (5 x2 : x1)
    m = Moebius(0, 5, 1, 0)
    assert m.apply(ProjPoint(2, 1)) == ProjPoint(5, 2)


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_moebius_normalization_idempotent(a, b, c, d):
    if a * d - b * c == 0:
        return
    m = Moebius(a, b, c, d)
    again = Moebius(m.a, m.b, m.c, m.d)
    assert (m.a, m.b, m.c, m.d) == (again.a, again.b, again.c, again.d)


@settings(max_examples=60)
@given(points)
def test_group_law_on_points(p):
    rng = random.Random(hash((p.u0, p.u1)) & 0xFFFF)
    m1 = support.random_moebius(rng)
    m2 = support.random_moebius(rng)
    assert support.moebius_compose(m1, m2).apply(p) == m1.apply(m2.apply(p))


def test_inverse_composes_to_identity():
    rng = random.Random(5)
    for _ in range(50):
        m = support.random_moebius(rng)
        inverse = support.moebius_inverse(m)
        assert support.moebius_compose(m, inverse) == Moebius.identity()
        assert support.moebius_compose(inverse, m) == Moebius.identity()


def test_from_triples_identity():
    m = moebius_from_triples(ZERO, ONE, INF, ZERO, ONE, INF)
    assert m == Moebius.identity()


def test_from_triples_one_minus_z():
    m = moebius_from_triples(ZERO, ONE, INF, ONE, ZERO, INF)
    assert m.apply(ZERO) == ONE
    assert m.apply(ONE) == ZERO
    assert m.apply(INF) == INF
    assert m.apply(pt(Fraction(1, 3))) == pt(Fraction(2, 3))


def test_from_triples_worked_example():
    # (1, 2, 3) -> (0, 1, inf), i.e. z -> -(z - 1)/(z - 3)
    m = moebius_from_triples(pt(1), pt(2), pt(3), ZERO, ONE, INF)
    assert m.apply(pt(1)) == ZERO
    assert m.apply(pt(2)) == ONE
    assert m.apply(pt(3)) == INF
    assert m.apply(pt(4)) == pt(-3)


def test_from_triples_rejects_repeats():
    with pytest.raises(InvalidTriple):
        moebius_from_triples(ZERO, ZERO, ONE, ZERO, ONE, INF)
    with pytest.raises(InvalidTriple):
        moebius_from_triples(ZERO, ONE, INF, ZERO, ONE, ONE)


# -- cross ratio -------------------------------------------------------------

def cross_ratio(*quad):
    """cr(p1, p2, p3, p4): the image of p4 under the map sending p1, p2, p3
    to 0, 1, inf, read off the witness filter's integer pair."""
    return ProjPoint(*_cross_pair(*quad))


def test_cross_ratio_normalization():
    t = pt(Fraction(7, 3))
    assert cross_ratio(ZERO, ONE, INF, t) == t


def test_cross_ratio_worked_example():
    assert cross_ratio(pt(1), pt(2), pt(3), pt(4)) == pt(-3)


def random_point(rng, inf_share=0.1):
    if rng.random() < inf_share:
        return INF
    return pt(Fraction(rng.randint(-40, 40), rng.randint(1, 7)))


def distinct_points(rng, n, inf_share=0.1):
    pts = []
    while len(pts) < n:
        p = random_point(rng, inf_share)
        if p not in pts:
            pts.append(p)
    return pts


def test_through_standard_matches_the_fraction_reference():
    rng = random.Random(61)
    for _ in range(500):
        triple = distinct_points(rng, 3, inf_share=0.2)
        assert Moebius(*_through_standard(*triple)) == support.reference_through_standard(*triple)


def test_from_triples_matches_the_composing_reference():
    # the map as the product of two normalized maps through the standard
    # triple, one inverted; repeated points give the same error and message
    rng = random.Random(73)
    through_inf = reversing = 0
    for _ in range(2000):
        p, q = distinct_points(rng, 3, inf_share=0.2), distinct_points(rng, 3, inf_share=0.2)
        m = moebius_from_triples(*p, *q)
        assert m == support.reference_moebius_from_triples(*p, *q), (p, q)
        through_inf += INF in p + q
        reversing += m.a * m.d < m.b * m.c
    assert min(through_inf, reversing) > 500, (through_inf, reversing)
    for _ in range(200):
        p, q = distinct_points(rng, 3, inf_share=0.2), distinct_points(rng, 3, inf_share=0.2)
        i, j = rng.sample(range(3), 2)
        p[i] = p[j]
        for points in ((*p, *q), (*q, *p)):
            with pytest.raises(InvalidTriple) as got:
                moebius_from_triples(*points)
            with pytest.raises(InvalidTriple) as expected:
                support.reference_moebius_from_triples(*points)
            assert str(got.value) == str(expected.value)


def test_cross_ratio_matches_the_map_to_zero_one_inf():
    rng = random.Random(67)
    for i in range(1000):
        triple = distinct_points(rng, 3, inf_share=0.2)
        p4 = triple[i % 3] if i % 4 == 0 else random_point(rng, inf_share=0.2)
        expected = moebius_from_triples(*triple, ZERO, ONE, INF).apply(p4)
        assert cross_ratio(*triple, p4) == expected


def test_cross_ratio_invariance_bulk():
    rng = random.Random(11)
    for _ in range(1000):
        quad = []
        while len(quad) < 4:
            q = pt(Fraction(rng.randint(-30, 30), rng.randint(1, 6)))
            if q not in quad:
                quad.append(q)
        m = support.random_moebius(rng)
        moved = [m.apply(p) for p in quad]
        assert cross_ratio(*moved) == cross_ratio(*quad)


# -- intervals ---------------------------------------------------------------

def test_interval_membership_plain():
    arc = Interval(pt(0), pt(1))
    assert arc.contains(pt(Fraction(1, 2)))
    assert arc.contains(pt(0)) and arc.contains(pt(1))
    assert not arc.contains(pt(2))
    assert not arc.contains(INF)


def test_interval_membership_wrapping():
    arc = Interval(pt(5), pt(-1))
    assert arc.contains(INF)
    assert arc.contains(pt(6))
    assert arc.contains(pt(-2))
    assert not arc.contains(pt(0))
    assert not arc.contains(pt(Fraction(9, 2)))


def test_interior_point_always_interior():
    cases = [Interval(pt(0), pt(1)), Interval(pt(5), pt(-1)),
             Interval(INF, pt(3)), Interval(pt(2), INF)]
    for arc in cases:
        inner = arc.interior_point()
        assert arc.contains(inner) and inner not in (arc.start, arc.end)


@pytest.mark.parametrize("height", [3, 10 ** 3, 10 ** 6])
def test_order_arcs_and_midpoints_match_the_fraction_reference(height):
    # seeded points with inf, 0 and -1 among them: every arc between two of
    # them, through infinity or not, is tested on every point, its ends too
    rng = random.Random(height)
    points = {INF, ZERO, ProjPoint(-1, 1)}
    while len(points) < 14:
        points.add(ProjPoint(rng.randint(-height, height), rng.randint(1, height)))
    points = list(points)
    rng.shuffle(points)
    assert (sorted(points, key=_walk_key)
            == sorted(points, key=support.reference_walk_key))
    for s in points:
        for e in points:
            if s == e:
                continue
            arc = Interval(s, e)
            assert arc.interior_point() == support.reference_interior_point(arc), arc
            assert ([arc.contains(p) for p in points]
                    == [support.reference_contains(arc, p) for p in points]), arc


def test_interval_image_identity():
    arc = Interval(pt(0), pt(1))
    assert interval_image(Moebius.identity(), arc) == arc


def test_interval_image_reflection():
    # z -> 1 - z reverses orientation and fixes [0, 1] as a set.
    m = moebius_from_triples(ZERO, ONE, INF, ONE, ZERO, INF)
    assert m.a * m.d - m.b * m.c < 0
    arc = Interval(pt(0), pt(1))
    image = interval_image(m, arc)
    assert image == arc
    assert image.contains(pt(Fraction(1, 2)))


def test_interval_image_translation():
    m = Moebius(1, 5, 0, 1)
    assert interval_image(m, Interval(pt(0), pt(1))) == Interval(pt(5), pt(6))


def test_interval_image_is_pointwise_image():
    rng = random.Random(3)
    for _ in range(60):
        lo, hi = sorted(rng.sample(range(-9, 9), 2))
        arc = Interval(pt(lo), pt(hi))
        m = support.random_moebius(rng)
        image = interval_image(m, arc)
        for k in range(7):
            sample = pt(Fraction(lo * (6 - k) + hi * k, 6))
            assert image.contains(m.apply(sample))
        # points outside the arc land outside the image arc
        complement = Interval(arc.end, arc.start)
        assert not image.contains(m.apply(complement.interior_point()))


# -- configurations ----------------------------------------------------------

def test_config_canonical_order_independent_of_input_order():
    a = IntervalConfig.from_rat_pairs([(2, 3), (0, 1)])
    b = IntervalConfig.from_rat_pairs([(0, 1), (2, 3)])
    assert a == b
    assert [arc.start for arc in a.intervals] == [pt(0), pt(2)]


def test_config_rejects_overlap_and_shared_boundary():
    with pytest.raises(ValueError):
        IntervalConfig.from_rat_pairs([(0, 2), (1, 3)])
    with pytest.raises(ValueError):
        IntervalConfig.from_rat_pairs([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        IntervalConfig((Interval(pt(0), pt(3)), Interval(pt(1), pt(2))))


def test_config_canonical_start_with_wrap():
    # The arc through infinity is listed at its first boundary after infinity.
    wrap = Interval(pt(5), pt(-3))
    plain = Interval(pt(0), pt(1))
    config = IntervalConfig((plain, wrap))
    assert config.intervals[0] == wrap
    assert config.boundary_points() == [pt(-3), pt(0), pt(1), pt(5)]


POOL = list(dict.fromkeys([INF] + [pt(Fraction(n, d)) for n in range(-6, 7) for d in (1, 2)]))


def random_arc_list(rng):
    """r = 0-6 arcs with ends in POOL, a small set of points with infinity: valid
    configurations cut from one walk at a random offset (so some arcs wrap
    round infinity), then some arcs reversed, moved or given a shared end,
    which makes nested, overlapping and touching arcs."""
    r = rng.randint(0, 6)
    walk = sorted(rng.sample(POOL, 2 * r), key=_walk_key)
    shift = rng.randrange(2 * r) if r else 0
    walk = walk[shift:] + walk[:shift]
    ends = [[walk[2 * i], walk[2 * i + 1]] for i in range(r)]
    for _ in range(rng.choice((0, 0, 1, 2))):
        if not ends:
            break
        e = rng.choice(ends)
        move = rng.random()
        if move < 0.4:
            e.reverse()
        elif move < 0.8:
            e[rng.randrange(2)] = rng.choice(POOL)
        else:
            e[rng.randrange(2)] = rng.choice(rng.choice(ends))
    arcs = [Interval(s, e) for s, e in ends if s != e]
    rng.shuffle(arcs)
    return arcs


def test_config_walk_matches_the_pairwise_reference():
    # Same reject, same canonical order and same boundary walk as the
    # pairwise disjointness check followed by a sort.
    rng = random.Random(43)
    accepted = rejected = wrapped = 0
    for _ in range(10000):
        arcs = random_arc_list(rng)
        try:
            expected = support.reference_interval_config(arcs)
        except InvalidModel:
            with pytest.raises(InvalidModel):
                IntervalConfig(tuple(arcs))
            rejected += 1
            continue
        config = IntervalConfig(tuple(arcs))
        assert config.intervals == expected, arcs
        ends = [arc.start for arc in arcs] + [arc.end for arc in arcs]
        assert config.boundary_points() == sorted(ends, key=_walk_key), arcs
        accepted += 1
        wrapped += any(arc.contains(INF) for arc in arcs)
    assert min(accepted, rejected) > 2500 and wrapped > 1000, (accepted, rejected, wrapped)


def test_config_walk_matches_the_hashing_reference():
    # Comparing neighbours of the sorted walk finds the same repeats, and
    # every other place of it the same arcs, as a set of the points and
    # dict.fromkeys of the arcs; errors carry the same message.
    rng = random.Random(47)
    seen = Counter()
    for _ in range(10000):
        arcs = random_arc_list(rng)
        try:
            expected = support.reference_interval_walk(arcs)
        except InvalidModel as exc:
            with pytest.raises(InvalidModel) as got:
                IntervalConfig(tuple(arcs))
            assert str(got.value) == str(exc), arcs
            seen["repeated" if "distinct" in str(exc) else "overlapping"] += 1
            continue
        config = IntervalConfig(tuple(arcs))
        assert (config.intervals, tuple(config.boundary_points())) == expected, arcs
        seen["valid"] += 1
        seen["wrapped"] += any(arc.contains(INF) and arc.start != INF for arc in arcs)
    assert min(seen.values()) > 1000 and len(seen) == 4, seen


def test_single_arc_witnesses_keep_the_straight_then_swapped_order():
    # For r = 1 the candidates are the map matching the ends straight, then
    # the one swapping them, both sending interior point to interior point.
    rng = random.Random(47)
    arcs = [Interval(INF, ZERO), Interval(ZERO, INF), Interval(pt(3), pt(-2))]
    configs = [IntervalConfig((arc,)) for arc in arcs]
    configs += [support.random_config(rng, 1, low=-20, high=20) for _ in range(20)]
    for c1 in configs:
        for c2 in configs:
            got = list(projline._equiv_candidates(c1, c2))
            assert got == support.oracle_equiv_all(c1, c2), (c1, c2)
            assert [nu for _, nu in got] == [(0,), (0,)]


def test_config_equiv_self_identity():
    config = IntervalConfig.from_rat_pairs([(0, 1), (2, 3)])
    witness, nu = config_equiv(config, config, (0, 1))
    assert witness == Moebius.identity()
    assert nu == (0, 1)


def test_config_equiv_swap_exists_for_two_intervals():
    config = IntervalConfig.from_rat_pairs([(0, 1), (2, 3)])
    got = config_equiv(config, config, (1, 0))
    assert got is not None
    assert support.witness_maps_config(got[0], config, config, got[1])


def test_config_equiv_generic_three_intervals_rigid():
    config = support.random_config(random.Random(23), 3)
    assert config_equiv(config, config, (1, 0, 2)) is None
    assert realizable_permutations(config).keys() == {(0, 1, 2)}


def test_config_equiv_different_r_is_no():
    c1 = IntervalConfig.from_rat_pairs([(0, 1)])
    c2 = IntervalConfig.from_rat_pairs([(0, 1), (2, 3)])
    assert config_equiv(c1, c2) is None


def test_config_equiv_single_intervals_always_equivalent():
    rng = random.Random(9)
    for _ in range(25):
        c1 = support.random_config(rng, 1)
        c2 = support.random_config(rng, 1)
        got = config_equiv(c1, c2)
        assert got is not None
        assert support.witness_maps_config(got[0], c1, c2, got[1])


def test_config_equiv_agrees_with_oracle_small():
    rng = random.Random(17)
    for _ in range(40):
        r = rng.choice((1, 2, 3))
        c1 = support.random_config(rng, r, low=-20, high=20, dens=(1, 2))
        if rng.random() < 0.5:
            m = support.random_moebius(rng)
            c2 = c1.apply(m)
        else:
            c2 = support.random_config(rng, r, low=-20, high=20, dens=(1, 2))
        ours = config_equiv(c1, c2)
        oracle = support.oracle_equiv(c1, c2)
        assert (ours is None) == (oracle is None)
        if ours is not None:
            assert support.witness_maps_config(ours[0], c1, c2, ours[1])


def test_config_image_under_moebius_keeps_membership():
    rng = random.Random(31)
    config = support.random_config(rng, 3)
    m = support.random_moebius(rng)
    image = config.apply(m)
    for arc in config.intervals:
        assert any(target.contains(m.apply(arc.interior_point())) for target in image.intervals)


# -- realizable permutations -------------------------------------------------

def test_realizable_r1_trivial():
    config = IntervalConfig.from_rat_pairs([(0, 1)])
    assert set(realizable_permutations(config)) == {(0,)}


def test_realizable_r2_full_group():
    rng = random.Random(41)
    for _ in range(20):
        config = support.random_config(rng, 2)
        assert set(realizable_permutations(config)) == {(0, 1), (1, 0)}


def test_realizable_r3_enumeration_and_subgroup():
    config = IntervalConfig.from_rat_pairs([(0, 1), (2, 3), (4, 5)])
    perms = realizable_permutations(config)
    oracle = {nu for _, nu in support.oracle_equiv_all(config, config)}
    assert set(perms) == oracle
    # closure under composition and inverse
    for nu in perms:
        inverse = tuple(sorted(range(3), key=lambda i: nu[i]))
        assert inverse in perms
        for mu in perms:
            composed = tuple(nu[mu[i]] for i in range(3))
            assert composed in perms


def test_realizable_symmetric_config_sees_the_swap():
    config = IntervalConfig.from_rat_pairs([(-5, -4), (-1, 1), (4, 5)])
    perms = realizable_permutations(config)
    assert (2, 1, 0) in perms
    assert support.witness_maps_config(perms[(2, 1, 0)], config, config, (2, 1, 0))


def test_config_with_infinite_boundary():
    arc_inf = Interval(INF, pt(-3))
    plain = Interval(pt(0), pt(1))
    config = IntervalConfig((plain, arc_inf))
    assert config.intervals[0] == arc_inf  # infinity opens the walk
    shift = Moebius(1, 1, 0, 1)  # z -> z + 1 fixes infinity
    moved = config.apply(shift)
    assert any(arc.contains(INF) for arc in moved.intervals)
    got = config_equiv(config, moved)
    assert got is not None
    assert support.witness_maps_config(got[0], config, moved, got[1])


def test_realizable_order_three_orbit_config():
    # Orbit of [3/7, 4/7] under z -> 1/(1 - z), symmetrized by z -> 1 - z.
    config = IntervalConfig.from_rat_pairs([
        (Fraction(3, 7), Fraction(4, 7)),
        (Fraction(7, 4), Fraction(7, 3)),
        (Fraction(-4, 3), Fraction(-3, 4)),
    ])
    perms = realizable_permutations(config)
    assert len(perms) == 6


# -- stabilizer --------------------------------------------------------------

def test_stabilizer_three_points_is_symmetric_group():
    maps = stabilizer([ZERO, ONE, INF])
    assert len(maps) == 6
    images = {tuple(sorted((m.apply(ZERO).to_token(), m.apply(ONE).to_token(),
                            m.apply(INF).to_token()))) for m in maps}
    assert images == {("0", "1", "inf")}


def test_stabilizer_four_points_is_klein_group():
    # Any 4-point set admits the three double transpositions (they preserve
    # the cross-ratio), so the stabilizer has order 4 even generically.
    pts = [pt(0), pt(1), pt(2), pt(5)]
    maps = stabilizer(pts)
    assert len(maps) == 4
    assert Moebius.identity() in maps
    perms = set()
    for m in maps:
        images = tuple(m.apply(p) for p in pts)
        perms.add(tuple(pts.index(q) for q in images))
    assert perms == {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}


def test_stabilizer_generic_five_points_trivial():
    maps = stabilizer([pt(0), pt(1), pt(2), pt(5), pt(11)])
    assert maps == [Moebius.identity()]


def test_stabilizer_symmetric_four_points():
    maps = stabilizer([pt(-1), pt(0), pt(1), INF])
    negate = Moebius(-1, 0, 0, 1)
    assert negate in maps
    assert len(maps) >= 2
    # closed under composition
    for m1 in maps:
        for m2 in maps:
            assert support.moebius_compose(m1, m2) in maps


# Generators of cyclic subgroups of PGL_2(Q), keyed by their order.
CYCLIC_GENERATORS = {2: Moebius(0, 1, 1, 0), 3: Moebius(0, 1, -1, -1),
                     4: Moebius(1, 1, -1, 1), 6: Moebius(1, 1, -1, 0)}


def _orbit_union(rng, g, orbits):
    pts = set()
    for _ in range(orbits):
        p = pt(Fraction(rng.randint(-30, 30), rng.randint(1, 5)))
        while p not in pts:
            pts.add(p)
            p = g.apply(p)
    return pts


def test_stabilizer_matches_oracle():
    rng = random.Random(29)
    cases = []
    for order, g in CYCLIC_GENERATORS.items():
        for _ in range(8):
            pts = _orbit_union(rng, g, rng.randint(-(-3 // order), 10 // order))
            if len(pts) >= 3:
                h = support.random_moebius(rng)
                cases.append(({h.apply(p) for p in pts}, order))
    for n in range(3, 11):
        for _ in range(4):
            pts = {pt(Fraction(rng.randint(-30, 30), rng.randint(1, 5))) for _ in range(n)}
            if rng.random() < 0.4:
                pts.add(INF)
            cases.append((pts, 1))
    for pts, order in cases:
        maps = stabilizer(pts)
        assert maps == support.oracle_stabilizer(pts)
        assert len(maps) % order == 0


def _dihedral_cases():
    """(src, dst) pairs of cyclically ordered lists: random self and
    unrelated pairs, conjugated cyclic orbits, Moebius images listed rotated
    and reversed, and images with one point moved."""
    rng = random.Random(71)
    cases = []
    for n in range(3, 13):
        for _ in range(6):
            src = sorted(distinct_points(rng, n), key=_walk_key)
            dst = sorted(distinct_points(rng, n), key=_walk_key)
            cases += [(src, src, True), (src, dst, False)]
            m = support.random_moebius(rng)
            image = [m.apply(p) for p in src]
            k = rng.randrange(n)
            image = image[k:] + image[:k]
            cases.append((src, image[::-1] if rng.random() < 0.5 else image, True))
            if n > 3:
                j = rng.randrange(3, n)
                moved = image[:j] + [random_point(rng)] + image[j + 1:]
                if len(set(moved)) == n:
                    cases.append((src, moved, False))
    for g in CYCLIC_GENERATORS.values():
        for _ in range(6):
            h = support.random_moebius(rng)
            pts = sorted({h.apply(p) for p in _orbit_union(rng, g, rng.randint(1, 3))},
                         key=_walk_key)
            if len(pts) >= 3:
                cases.append((pts, pts, True))
    return cases


def _built(src, dst):
    """The maps of _dihedral_maps, each built from its target triple."""
    return [moebius_from_triples(*src[:3], *t) for _, _, t in _dihedral_maps(src, dst)]


def test_dihedral_maps_match_the_map_building_reference():
    equivalent = 0
    for src, dst, known in _dihedral_cases():
        n = len(src)
        for k, sign, t in _dihedral_maps(src, dst):
            assert t == [dst[(k + sign * i) % n] for i in range(3)], (src, dst, k, sign)
        maps = _built(src, dst)
        assert maps == list(support.reference_dihedral_maps(src, dst))
        assert not known or maps
        equivalent += bool(maps)
    assert equivalent >= 100


def _paired(points, shift):
    """The config whose arcs join neighbouring points of the walk from
    its place shift on; with shift 1 the last arc wraps round."""
    walk = sorted(points, key=_walk_key)
    walk = walk[shift:] + walk[:shift]
    return IntervalConfig(tuple(Interval(walk[i], walk[i + 1]) for i in range(0, len(walk), 2)))


def _paired_cases():
    """(c1, c2) from each dihedral case with an even number of points, and
    single arcs from the first two points of every case: source and target
    each paired at walk shift 0 and at shift 1."""
    for src, dst, _ in _dihedral_cases():
        sides = [(src[:2], dst[:2])] + ([(src, dst)] if len(src) % 2 == 0 else [])
        for a, b in sides:
            for s1 in (0, 1):
                for s2 in (0, 1):
                    yield _paired(a, s1), _paired(b, s2)


def test_equiv_candidates_match_the_reference_stream():
    # The maps of the reference dihedral search, each kept when building
    # every image arc finds it among the target's arcs; for r = 1 each
    # arc's interior point joins its ends as a third point.
    seen = Counter()
    for c1, c2 in _paired_cases():
        b1, b2 = c1.boundary_points(), c2.boundary_points()
        if c1.r == 1:
            b1.append(support.reference_interior_point(c1.intervals[0]))
            b2.append(support.reference_interior_point(c2.intervals[0]))
        got = list(projline._equiv_candidates(c1, c2))
        assert got == [(m, nu) for m in support.reference_dihedral_maps(b1, b2)
                       if (nu := support.reference_match_intervals(m, c1, c2))], (c1, c2)
        wraps = tuple(c.boundary_points()[0] != c.intervals[0].start for c in (c1, c2))
        seen[c1.r > 1, wraps, bool(got)] += 1
    # every wrap on either side, with and without a witness; a single arc
    # always has one
    assert len(seen) == 12 and min(seen.values()) >= 15, seen


def test_witness_searches_build_one_map_per_map_returned(monkeypatch):
    built = []

    def counting(*triples):
        built.append(triples)
        return moebius_from_triples(*triples)

    monkeypatch.setattr(projline, "moebius_from_triples", counting)
    returned = 0
    for c1, c2 in _paired_cases():
        returned += len(list(projline._equiv_candidates(c1, c2)))
    for src, _, _ in _dihedral_cases():
        returned += len(stabilizer(src))
    assert 0 < returned == len(built)


def test_stabilizer_maps_are_distinct_and_in_matrix_order():
    # _dihedral_maps never finds a map twice, so stabilizer sorts without
    # a dedupe; the symmetric fixtures above and every dihedral case.
    cases = [[ZERO, ONE, INF], [pt(0), pt(1), pt(2), pt(5)], [pt(-1), pt(0), pt(1), INF]]
    cases += [src for src, _, _ in _dihedral_cases()]
    symmetric = 0
    for pts in cases:
        keys = [(m.a, m.b, m.c, m.d) for m in stabilizer(pts)]
        assert keys == sorted(set(keys))
        symmetric += len(keys) > 1
    assert symmetric >= 20
    for src, dst, _ in _dihedral_cases():
        maps = _built(src, dst)
        assert len(set(maps)) == len(maps)


def test_realizable_permutations_needs_an_interval():
    with pytest.raises(ConicBundleError, match="need at least one interval"):
        realizable_permutations(IntervalConfig(()))
    with pytest.raises(ValueError):
        realizable_permutations(IntervalConfig(()))


def test_stabilizer_too_few_points():
    with pytest.raises(InfiniteStabilizer):
        stabilizer([ZERO, ONE])


# -- factoring and Legendre's theorem ---------------------------------------------

def is_prime_by_trial(p):
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def test_factor_is_a_prime_factorization():
    rng = random.Random(41)
    cases = [1, 2, 2153, 2161, 2155 ** 2, 2161 ** 2, 2161 * 2179, 2 ** 33, 3 ** 20 * 99991,
             9999999929, 99991 ** 2, 99991 * 99971, 99989 * 99961, 2161 ** 3, 10 ** 10]
    for n in cases + [rng.randint(1, 10 ** 10) for _ in range(60)]:
        product = 1
        for p, e in _factor(n).items():
            assert is_prime_by_trial(p) and e >= 1, (n, p)
            product *= p ** e
        assert product == n


@pytest.mark.parametrize("tight", [False, True], ids=["default-budget", "tight-budget"])
def test_factor_matches_sympy_factorint(monkeypatch, tight):
    # An oracle that shares no code with _factor, on seeded n up to 10^14:
    # prime powers, semiprimes (both primes past trial division, so Pollard
    # rho splits them), mixed products and plain random values.  Under the
    # tight budget part of them run past it; wherever _factor answers, the
    # two agree.
    sympy = pytest.importorskip("sympy")
    if tight:
        monkeypatch.setattr(projline, "_RHO_BUDGET", 40)
    rng = random.Random(43)
    ns = []
    for _ in range(40):
        p = sympy.nextprime(rng.randint(2, 10 ** rng.randint(1, 7)))
        ns.append(p ** rng.randint(1, max(1, int(14 / log10(p)))))
        q, r = (sympy.nextprime(rng.randint(2200, 10 ** 7)) for _ in range(2))
        ns += [q * r, q * r * rng.randint(1, 10 ** 14 // (q * r)), rng.randint(1, 10 ** 14)]
    ns = [n for n in ns if n <= 10 ** 14]
    answered = 0
    for n in ns:
        got = _factor(n)
        if got is not None:
            assert got == sympy.factorint(n), n
            answered += 1
    if tight:
        assert 20 < answered < len(ns) - 20, (answered, len(ns))
    else:
        assert answered == len(ns) >= 150


def _sympy_conic_point(diop, coefficients, orders):
    """The first point that diop_ternary_quadratic gives, in one of the given
    orders of the coefficients, that is a nonzero solution of the form."""
    from sympy.abc import x, y, z
    for order in orders:
        a, b, c = (coefficients[i] for i in order)
        solution = diop(a * x ** 2 + b * y ** 2 + c * z ** 2)
        if solution is None or None in solution:
            continue
        point = [0, 0, 0]
        for i, v in zip(order, solution):
            point[i] = int(v)
        if any(point) and sum(k * v * v for k, v in zip(coefficients, point)) == 0:
            return tuple(point)
    return None


def test_legendre_matches_sympy_diop_ternary_quadratic():
    # An oracle that shares no code with _legendre, both ways: a True needs a
    # point from sympy, checked exactly on the form, and a False needs sympy to
    # find none.  Seeded forms at heights 30, 10^3 and 10^6, half of them with
    # a planted point (the third coefficient then reaches about 10^18).  sympy
    # 1.14 can miss a point in one order of the coefficients (for -21, -73, 129,
    # which has (16, 15, 13), it finds none; for 129, -21, -73 it finds
    # (37, 68, 33)) and returns non-solutions for some forms with a common
    # factor (3 x^2 - y^2 + 21 z^2 gives (1, 3, 0)), so only checked points
    # count and a True tries every order.  Forms whose factoring runs past the
    # budget answer None: they are skipped and counted.
    diop = pytest.importorskip("sympy.solvers.diophantine.diophantine").diop_ternary_quadratic
    orders = list(permutations(range(3)))
    rng = random.Random(45)
    big = (2 ** 89 - 1) * (2 ** 107 - 1)  # past the primality proof's range
    forms = [(1, 1, -1370), (1, 1, -3), (-21, -73, 129), (1, 1, 1), (1, -1, -big), (3, -big, 5)]
    for _ in range(80):
        height = rng.choice((30, 10 ** 3, 10 ** 6))
        a, b, c = (rng.choice((-1, 1)) * rng.randint(1, height) for _ in range(3))
        if rng.random() < 0.5:
            c = -(a * rng.randint(0, height) ** 2 + b * rng.randint(1, height) ** 2) or c
        forms.append((a, b, c))
    verdicts = Counter()
    for form in forms:
        verdict = _legendre(*form)
        if verdict is not None:
            point = _sympy_conic_point(diop, form, orders if verdict else orders[:1])
            assert (point is not None) == verdict, (form, point)
        verdicts[verdict] += 1
    assert verdicts[None] == 2, verdicts
    assert min(verdicts[True], verdicts[False]) >= 25, verdicts


def test_factor_gives_up_past_its_budget():
    # two primes near 2^40: Pollard rho needs about 2^20 steps
    p, q = 1099511627791, 1099511628401
    assert is_prime_by_trial(p) and is_prime_by_trial(q)
    assert _factor(p * q) is None
    assert _factor((2 ** 89 - 1) * (2 ** 107 - 1)) is None
    assert _legendre(1, 1, -p * q) is None
