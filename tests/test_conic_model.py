"""Canonical models y^2 + z^2 = Q(x): invariants and decision procedures."""

import random
from fractions import Fraction

import pytest

from conicbundle import (
    ConicModel,
    IntervalConfig,
    MarkedModel,
    Moebius,
    ProjPoint,
    SurfPoint,
    decide_birational,
    decide_marked_iso,
    decide_very_transitive,
    on_surface,
    very_transitive_verdict,
)
from conicbundle.conic_model import (
    RULE_ALL_PERMS,
    RULE_AT_MOST_TWO,
    RULE_NO_HOMEO_PAIR,
    RULE_ONE_PAIR_FAIL,
    RULE_ONE_PAIR_SWAP,
    RULE_TOO_MANY,
    homeo_types_from_counts,
    interval_image,
)
from conicbundle.errors import InvalidModel, NotOnSurface

import support


def cfg(*pairs):
    return IntervalConfig.from_rat_pairs(pairs)


def marked(roots, mark_xs=()):
    model = ConicModel(tuple(Fraction(a) for a in roots))
    marks = tuple(SurfPoint(Fraction(x), 0, 0) for x in mark_xs)
    return MarkedModel(model, marks)


# -- construction ------------------------------------------------------------

def test_q_at_matches_fraction_product():
    rng = random.Random(61)
    for r in (1, 2, 3):
        for _ in range(30):
            height = rng.choice((8, 10 ** 3, 10 ** 6))
            roots = set()
            while len(roots) < 2 * r:
                roots.add(Fraction(rng.randint(-height, height), rng.randint(1, 12)))
            model = ConicModel(tuple(sorted(roots)))
            xs = list(model.roots) + [0, -3, 10 ** 6, Fraction(-1, 7)]
            xs += [Fraction(rng.randint(-height, height), rng.randint(1, height)) for _ in range(10)]
            for x in xs:
                assert model.q_at(x) == support.reference_q_at(model, x), (model, x)


def test_model_validation():
    with pytest.raises(InvalidModel):
        ConicModel((Fraction(0),))
    with pytest.raises(InvalidModel):
        ConicModel((Fraction(1), Fraction(0)))
    with pytest.raises(InvalidModel):
        ConicModel((Fraction(0), Fraction(0)))


# -- interval image and sign law ----------------------------------------------

def test_interval_image_roundtrip_examples():
    assert interval_image(ConicModel((0, 1))) == cfg((0, 1))
    assert interval_image(ConicModel((0, 1, 2, 3))) == cfg((0, 1), (2, 3))


def test_interval_image_roundtrip_random():
    rng = random.Random(7)
    for _ in range(40):
        config = support.random_config(rng, rng.choice((1, 2, 3)))
        assert interval_image(support.config_model(config)) == config


def test_sign_alternation_oracle():
    rng = random.Random(13)
    for _ in range(30):
        model = support.random_model(rng, rng.choice((1, 2, 3)))
        gaps = [model.roots[0] - 1]
        gaps += [(a + b) / 2 for a, b in zip(model.roots, model.roots[1:])]
        gaps += [model.roots[-1] + 1]
        signs = [1 if model.q_at(x) > 0 else -1 for x in gaps]
        assert signs[0] == -1 and signs[-1] == -1
        assert all(s1 == -s2 for s1, s2 in zip(signs, signs[1:]))


# -- surface membership -------------------------------------------------------

def test_on_surface_examples():
    model = ConicModel((0, 1))
    assert on_surface(model, SurfPoint(Fraction(1, 2), Fraction(1, 2), 0))
    assert not on_surface(model, SurfPoint(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    assert on_surface(model, SurfPoint(0, 0, 0))
    assert model.q_at(Fraction(1, 2)) == Fraction(1, 4)
    assert model.q_at(2) == -2


# -- component index of a mark, read through mark_counts -------------------------

def test_component_index_examples():
    model = ConicModel((0, 1, 2, 3))
    assert MarkedModel(model, (SurfPoint(0, 0, 0),)).mark_counts() == (1, 0)
    assert MarkedModel(model, (SurfPoint(2, 0, 0),)).mark_counts() == (0, 1)
    # Q(5/2) = 15/16 > 0 but is not a sum of two rational squares, so no
    # exact point sits over x = 5/2 itself; sample the interiors through
    # fibers that do carry rational points.
    assert model.q_at(Fraction(5, 2)) == Fraction(15, 16)
    interior = support.model_fibers_with_points(model, 4)
    assert interior
    counts = MarkedModel(model, tuple(interior)).mark_counts()
    assert all(counts) and sum(counts) == len(interior)


def test_component_index_interior_of_second_interval():
    model = ConicModel((0, 1, 2, 7))
    points = support.model_fibers_with_points(model, 4)
    inner = [p for p in points if 2 < p.x < 7]
    assert inner, "no rational fiber point found in the second interval"
    for p in inner:
        assert MarkedModel(model, (p,)).mark_counts() == (0, 1)


def test_component_index_rejects_off_surface():
    # x = 1/2 lies over the interval, but (1, 1) is off its fiber circle
    model = ConicModel((0, 1))
    with pytest.raises(NotOnSurface):
        MarkedModel(model, (SurfPoint(Fraction(1, 2), 1, 1),))


def test_component_index_matches_the_interval_scan():
    # marks at both ends of every interval, on rational fiber points and on
    # spun copies of those points, against the interval scan
    rng = random.Random(331)
    checked = 0
    for r in (1, 2, 3, 4):
        for trial in range(6):
            model = (support.random_model(rng, r) if trial % 2
                     else support.config_model(support.random_config(rng, r, -12, 12)))
            marks = [SurfPoint(a, 0, 0) for a in model.roots]
            for p in support.model_fibers_with_points(model, 2 * r):
                c, s = support.reference_rotation_from_param(
                    Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                marks += [p, SurfPoint(p.x, c * p.y - s * p.z, s * p.y + c * p.z)]
            marks = list(dict.fromkeys(marks))
            rng.shuffle(marks)
            expected = [0] * r
            for p in marks:
                expected[support.reference_component_index(model, p) - 1] += 1
            assert MarkedModel(model, tuple(marks)).mark_counts() == tuple(expected), model
            checked += len(marks)
    assert checked >= 200, checked


# -- marked models and topology types ------------------------------------------

def test_marked_homeo_types():
    def types(m):
        return homeo_types_from_counts(m.mark_counts())
    assert types(marked((0, 1, 2, 3))) == ("S2", "S2")
    assert types(marked((0, 1, 2, 3), (0,))) == ("N1", "S2")
    assert types(marked((0, 1, 2, 3, 4, 5), (0, 1))) == ("N2", "S2", "S2")
    assert types(marked((0, 1, 2, 3, 4, 5), (0, 1, 2))) == ("N2", "N1", "S2")


def test_marked_model_rejects_duplicate_marks():
    with pytest.raises(InvalidModel):
        marked((0, 1), (0, 0))


def test_marked_model_rejects_off_surface_mark():
    model = ConicModel((0, 1))
    with pytest.raises(NotOnSurface):
        MarkedModel(model, (SurfPoint(5, 1, 1),))


# -- birational decision --------------------------------------------------------

def test_decide_birational_reflexive():
    model = ConicModel((0, 1, 2, 3))
    assert decide_birational(model, model) == Moebius.identity()


def test_decide_birational_translation():
    m1 = ConicModel((0, 1, 2, 3))
    m2 = ConicModel((5, 6, 7, 8))
    witness = decide_birational(m1, m2)
    assert witness is not None
    assert witness.apply(ProjPoint.from_rat(0)).to_token() in ("5", "8")
    assert support.witness_maps_config(
        witness, interval_image(m1), interval_image(m2),
        support.oracle_equiv(interval_image(m1), interval_image(m2))[1])


def test_decide_birational_cross_ratio_obstruction():
    m1 = ConicModel((0, 1, 2, 3))
    m2 = ConicModel((0, 1, 2, 4))
    ours = decide_birational(m1, m2)
    oracle = support.oracle_equiv(interval_image(m1), interval_image(m2))
    assert (ours is None) == (oracle is None)
    assert ours is None  # frozen oracle outcome: the cross-ratios differ


def test_decide_birational_equivalence_relation():
    # reflexive; symmetric via witness inversion; transitive via composition
    rng = random.Random(3)
    models = [support.random_model(rng, 2) for _ in range(6)]
    images = {m: interval_image(m) for m in models}
    for a in models:
        assert decide_birational(a, a) is not None
        for b in models:
            ab = decide_birational(a, b)
            ba = decide_birational(b, a)
            assert (ab is None) == (ba is None)
            if ab is None:
                continue
            back = support.oracle_equiv(images[b], images[a])
            assert back is not None
            back_map = support.moebius_inverse(ab)
            nu_back = support._verify_by_membership(back_map, images[b], images[a])
            assert nu_back is not None
            assert support.witness_maps_config(back_map, images[b], images[a], nu_back)
            for c in models:
                bc = decide_birational(b, c)
                if bc is not None:
                    composed = support.moebius_compose(bc, ab)
                    nu_ac = support._verify_by_membership(composed, images[a], images[c])
                    assert nu_ac is not None
                    assert decide_birational(a, c) is not None


# -- marked isomorphism certificate ---------------------------------------------

def test_decide_marked_iso_identical():
    m = marked((0, 1, 2, 3), (0, 2))
    nu, witness = decide_marked_iso(m, m)
    assert nu == (0, 1)
    assert witness == Moebius.identity()


def test_decide_marked_iso_needs_swap():
    m1 = marked((0, 1, 2, 3), (0,))
    m2 = marked((0, 1, 2, 3), (2,))
    result = decide_marked_iso(m1, m2)
    assert result is not None
    nu, witness = result
    assert nu == (1, 0)
    assert support.witness_maps_config(
        witness, interval_image(m1.model), interval_image(m2.model), nu)


def test_decide_marked_iso_generic_r3_transposition_blocked():
    rng = random.Random(91)
    config = support.random_config(rng, 3)
    model = support.config_model(config)
    a, b = model.roots[0], model.roots[2]
    m1 = MarkedModel(model, (SurfPoint(a, 0, 0),))
    m2 = MarkedModel(model, (SurfPoint(b, 0, 0),))
    assert decide_marked_iso(m1, m2) is None


def test_decide_marked_iso_counts_must_match():
    m1 = marked((0, 1, 2, 3), (0, 1))
    m2 = marked((0, 1, 2, 3), (0,))
    assert decide_marked_iso(m1, m2) is None


# -- very-transitivity decision table --------------------------------------------

def test_very_transitive_r_le_2():
    for roots, marks in (((0, 1), ()), ((0, 1), (0,)), ((0, 1, 2, 3), (0, 2)),
                         ((0, 1, 2, 3), ())):
        verdict = decide_very_transitive(marked(roots, marks))
        assert verdict.very_transitive
        assert verdict.rule == RULE_AT_MOST_TWO
        assert verdict.component_wise


def test_very_transitive_r3_distinct_types():
    verdict = decide_very_transitive(marked((0, 1, 2, 3, 4, 5), (0, 2, 3)))
    # counts (1, 2, 0): no homeomorphic pair
    assert verdict.very_transitive and verdict.rule == RULE_NO_HOMEO_PAIR


def test_very_transitive_r3_one_pair_symmetric_yes():
    m = marked((-5, -4, -1, 1, 4, 5), (-5, 5))
    verdict = decide_very_transitive(m)
    assert verdict.very_transitive and verdict.rule == RULE_ONE_PAIR_SWAP
    assert verdict.witnesses


def test_very_transitive_r3_one_pair_generic_no():
    m = marked((0, 1, 2, 3, 4, 6), (0, 2))
    verdict = decide_very_transitive(m)
    assert not verdict.very_transitive and verdict.rule == RULE_ONE_PAIR_FAIL
    assert verdict.not_two_transitive
    assert verdict.component_wise  # r = 3 still transitive on components


def test_very_transitive_r3_all_spheres_full_group_yes():
    config = IntervalConfig.from_rat_pairs([
        (Fraction(3, 7), Fraction(4, 7)),
        (Fraction(7, 4), Fraction(7, 3)),
        (Fraction(-4, 3), Fraction(-3, 4)),
    ])
    verdict = very_transitive_verdict(config, (0, 0, 0))
    assert verdict.very_transitive and verdict.rule == RULE_ALL_PERMS
    assert len(verdict.witnesses) == 6


def test_very_transitive_r4_no():
    verdict = decide_very_transitive(marked((0, 1, 2, 3, 4, 5, 6, 7)))
    assert not verdict.very_transitive
    assert verdict.rule == RULE_TOO_MANY
    assert verdict.not_two_transitive
    assert not verdict.component_wise


def test_very_transitive_invariant_under_coordinate_change():
    rng = random.Random(57)
    for _ in range(25):
        r = rng.choice((1, 2, 3, 4))
        config = support.random_config(rng, r)
        counts = tuple(rng.choice((0, 1, 2)) for _ in range(r))
        base = very_transitive_verdict(config, counts)
        m = support.random_moebius(rng)
        moved = config.apply(m)
        nu = []
        from conicbundle.projline import interval_image as arc_image
        for arc in config.intervals:
            nu.append(moved.intervals.index(arc_image(m, arc)))
        moved_counts = [0] * r
        for i in range(r):
            moved_counts[nu[i]] = counts[i]
        other = very_transitive_verdict(moved, tuple(moved_counts))
        assert other.very_transitive == base.very_transitive
        assert other.component_wise == base.component_wise
