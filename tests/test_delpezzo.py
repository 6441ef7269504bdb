"""Double-conic del Pezzo models, their images and the Geiser involution."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conicbundle import (
    BiconicModel,
    BinQuadForm,
    BiPoint,
    Interval,
    IntervalConfig,
    ProjPoint,
    biconic_from_config,
    biconic_interval_image,
    distinct_foliations_witness,
    fiber_points,
    geiser,
    on_biconic,
    second_fibration,
)
from conicbundle import cli
from conicbundle.delpezzo import _CONIC_BOUND, _conic_point, _fiber_quadratic, resultant
from conicbundle.projline import _legendre, clear_denominators, primitive
from conicbundle.errors import (
    ImageIsWholeLine,
    InvalidModel,
    IrrationalBoundary,
    MoveInfinityFirst,
    NotOnSurface,
    TooManyIntervals,
    Unsupported,
)

import support


def cfg(*pairs):
    return IntervalConfig.from_rat_pairs(pairs)


def unit_interval_model():
    return biconic_from_config(cfg((0, 1)))


# -- forms ---------------------------------------------------------------------

def test_form_roots_rational():
    roots = BinQuadForm(-1, 1, 0).rational_roots()
    assert set(roots) == {ProjPoint(0, 1), ProjPoint(1, 1)}
    assert BinQuadForm(-1, 0, -1).rational_roots() == []
    assert ProjPoint.infinity() in BinQuadForm(0, 1, -1).rational_roots()


def test_resultant_detects_shared_roots():
    f = BinQuadForm(1, 0, -1)      # roots 1, -1
    g = BinQuadForm(1, -2, 1)      # double root 1
    h = BinQuadForm(1, 0, -4)      # roots 2, -2
    assert resultant(f, g) == 0
    assert resultant(f, h) != 0


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def reference_resultant(f, g):
    # The 4x4 Sylvester determinant by cofactor expansion along the first row.
    rows = [
        [f.al, f.be, f.ga, Fraction(0)],
        [Fraction(0), f.al, f.be, f.ga],
        [g.al, g.be, g.ga, Fraction(0)],
        [Fraction(0), g.al, g.be, g.ga],
    ]
    total = Fraction(0)
    for col in range(4):
        if rows[0][col] == 0:
            continue
        minor = [[rows[r][c] for c in range(4) if c != col] for r in range(1, 4)]
        total += (-1) ** col * rows[0][col] * _det3(minor)
    return total


coefficients = st.fractions(min_value=-30, max_value=30, max_denominator=7)
forms = st.tuples(coefficients, coefficients, coefficients).filter(any).map(
    lambda c: BinQuadForm(*c))


@given(forms, forms)
def test_resultant_matches_sylvester_determinant(f, g):
    assert resultant(f, g) == reference_resultant(f, g)


@given(forms, st.integers(-6, 6), st.integers(-6, 6).filter(bool))
def test_resultant_vanishes_on_a_shared_root(f, a, b):
    # g = (b x - a y)^2 has the single root (a : b)
    g = BinQuadForm(b * b, -2 * a * b, a * a)
    shares = f.al * a * a + f.be * a * b + f.ga * b * b == 0
    assert (resultant(f, g) == 0) == shares


def reference_fiber_points(model, t, want):
    # fiber_points as it was when it chose the pencil's two axes as the first
    # pair, in index order, whose determinant with the base point is nonzero.
    c1, c2, c3 = primitive(*clear_denominators(support.reference_values_at(model, t)))
    base = _conic_point(c1, c2, c3)
    if base is None:
        return []
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    basis = next((axes[i], axes[j]) for i in range(3) for j in range(i + 1, 3)
                 if _det3([list(base), list(axes[i]), list(axes[j])]) != 0)
    points = [BiPoint(base, t)]
    for u, v in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2),
                 (3, 1), (1, 3), (3, -1), (1, -3), (3, 2), (2, 3), (3, -2), (2, -3)):
        d = tuple(u * basis[0][i] + v * basis[1][i] for i in range(3))
        fd = c1 * d[0] ** 2 + c2 * d[1] ** 2 + c3 * d[2] ** 2
        ld = 2 * (c1 * base[0] * d[0] + c2 * base[1] * d[1] + c3 * base[2] * d[2])
        candidate = tuple(fd * base[i] - ld * d[i] for i in range(3))
        if all(value == 0 for value in candidate):
            continue
        pt = BiPoint(candidate, t)
        if pt not in points and on_biconic(model, pt):
            points.append(pt)
        if len(points) >= want:
            break
    return points


@pytest.mark.parametrize("config, ts", [
    (((0, 1),), ("0", "1/2", "2/5", "1")),
    (((-2, 2),), ("0", "-1", "1", "2/5", "-2")),
    (((0, 1), (2, 3)), ("1/3", "2")),
    (((-3, -1), (1, 3)), ("7/3", "-7/3")),
])
def test_fiber_points_match_determinant_axis_choice(config, ts):
    model = biconic_from_config(cfg(*config))
    for token in ts:
        t = ProjPoint.from_token(token)
        expected = reference_fiber_points(model, t, 8)
        assert fiber_points(model, t, want=8) == expected
        assert expected


def test_fiber_points_reference_cases_cover_every_axis_choice():
    # the last nonzero coordinate of the base point is 0, 1 and 2 among the
    # fibers above
    lasts = set()
    for config, token in (((0, 1), "0"), ((-2, 2), "0"), ((0, 1), "1/2")):
        base = fiber_points(biconic_from_config(cfg(config)), ProjPoint.from_token(token))[0]
        lasts.add(max(i for i in range(3) if base.xyz[i]))
    assert lasts == {0, 1, 2}


def test_model_invariant_rejects_shared_and_double_roots():
    with pytest.raises(InvalidModel):
        BiconicModel(BinQuadForm(1, 0, -1), BinQuadForm(1, -2, 1), BinQuadForm(-1, 0, -1), 1)
    with pytest.raises(InvalidModel):
        BiconicModel(BinQuadForm(-1, 1, 0), BinQuadForm(1, 0, -1), BinQuadForm(-1, 0, -1), 1)


# -- constructor ------------------------------------------------------------------

def test_constructor_reproduces_worked_forms():
    model = unit_interval_model()
    assert (model.m1.al, model.m1.be, model.m1.ga) == (-1, 1, 0)
    assert (model.m2.al, model.m2.be, model.m2.ga) == (-1, 0, -1)
    assert (model.m3.al, model.m3.be, model.m3.ga) == (-1, 0, -2)
    assert model.k == 1
    assert biconic_interval_image(model) == cfg((0, 1))


def test_constructor_empty_config():
    model = biconic_from_config(IntervalConfig(()))
    assert model.k == 0
    assert biconic_interval_image(model) == IntervalConfig(())


def test_constructor_three_intervals():
    config = cfg((0, 1), (2, 3), (4, 5))
    model = biconic_from_config(config)
    assert model.k == 3
    assert biconic_interval_image(model) == config
    # six singular fibres: all six roots of m1 m2 m3 are real here
    roots = []
    for f in model.forms:
        roots.extend(f.rational_roots())
    assert len(set(roots)) == 6


def test_constructor_rejects_too_many_or_infinite():
    with pytest.raises(TooManyIntervals):
        biconic_from_config(cfg((0, 1), (2, 3), (4, 5), (6, 7)))
    for arc in (("5", "-1"), ("inf", "0"), ("0", "inf")):
        config = IntervalConfig((Interval(*map(ProjPoint.from_token, arc)),))
        with pytest.raises(MoveInfinityFirst):
            biconic_from_config(config)


def test_constructor_roundtrip_random():
    rng = random.Random(15)
    for k in (0, 1, 2, 3):
        for _ in range(8):
            config = (IntervalConfig(()) if k == 0
                      else support.random_config(rng, k, low=-30, high=30))
            model = biconic_from_config(config)
            assert biconic_interval_image(model) == config


def test_image_wrapping_through_infinity():
    # m1 positive near infinity: the image is the closed arc from 1 to -1
    # running through the point at infinity.
    model = BiconicModel(BinQuadForm(1, 0, -1), BinQuadForm(-1, 0, -1),
                         BinQuadForm(-1, 0, -2), 1)
    image = biconic_interval_image(model)
    assert image.r == 1
    arc = image.intervals[0]
    assert arc.contains(ProjPoint.infinity())
    assert arc.contains(ProjPoint(2, 1))
    assert not arc.contains(ProjPoint(0, 1))


def test_image_error_paths():
    with pytest.raises(ImageIsWholeLine):
        biconic_interval_image(BiconicModel(
            BinQuadForm(1, 0, 1), BinQuadForm(-1, 0, -2), BinQuadForm(-1, 0, -3), 0))
    with pytest.raises(IrrationalBoundary):
        biconic_interval_image(BiconicModel(
            BinQuadForm(1, 0, -2), BinQuadForm(-1, 0, -1), BinQuadForm(-1, 0, -3), 1))


def random_biconic_form(rng, shape):
    """A form with two random rational roots, a root at infinity (al = 0),
    no real root, or a random discriminant (often an irrational pair)."""
    def q():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
    sign = rng.choice((1, -1))
    if shape == "roots":
        a, b = q(), q()
        return BinQuadForm(sign, -sign * (a + b), sign * a * b)
    if shape == "infinity":
        return BinQuadForm(0, rng.choice((1, -1)) * rng.randint(1, 4), q())
    if shape == "none":
        return BinQuadForm(sign, 0, sign * rng.randint(1, 5))
    return BinQuadForm(sign * rng.randint(1, 3), rng.randint(-4, 4), rng.randint(-4, 4))


def test_image_matches_the_run_walk_reference():
    # Built models give every k often; random forms give roots at infinity,
    # arcs through it, forms without real roots and both errors.
    rng = random.Random(41)
    models = [biconic_from_config(support.random_config(rng, k, low=-12, high=12))
              for k in range(4) for _ in range(40)]
    shapes = ("roots", "roots", "roots", "infinity", "none", "random")
    while len(models) < 2500:
        try:
            models.append(BiconicModel(*(random_biconic_form(rng, rng.choice(shapes))
                                         for _ in range(3)), 0))
        except InvalidModel:
            pass
    seen = Counter()
    for model in models:
        seen["rootless"] += all(f.disc < 0 for f in model.forms)
        try:
            expected = support.reference_biconic_interval_image(model)
        except (ImageIsWholeLine, IrrationalBoundary) as exc:
            with pytest.raises(type(exc)):
                biconic_interval_image(model)
            seen[type(exc).__name__] += 1
            continue
        assert biconic_interval_image(model) == expected, model
        seen[expected.r, any(arc.contains(ProjPoint.infinity()) for arc in expected.intervals)] += 1
    assert all(seen[k, False] >= 40 for k in range(4)), seen
    assert all(seen[k] for k in ((1, True), (2, True), "rootless",
                                 "ImageIsWholeLine", "IrrationalBoundary")), seen


def test_membership_example():
    model = unit_interval_model()
    assert on_biconic(model, BiPoint((3, 0, 1), ProjPoint(1, 2)))
    assert not on_biconic(model, BiPoint((1, 0, 1), ProjPoint(1, 2)))


# -- Geiser involution ---------------------------------------------------------------

def test_geiser_worked_example():
    model = unit_interval_model()
    p = BiPoint((3, 0, 1), ProjPoint(1, 2))
    image = geiser(model, p)
    assert image.xyz == (3, 0, 1)
    assert image.t == ProjPoint(2, 5)
    assert on_biconic(model, image)
    assert geiser(model, image) == p


def test_geiser_rejects_off_surface():
    with pytest.raises(NotOnSurface):
        geiser(unit_interval_model(), BiPoint((1, 1, 1), ProjPoint(1, 2)))


def test_geiser_fixes_ramification_point():
    # Forms with no cross terms: the fiber quadratic over (1 : 2 : 0) has a
    # double root, i.e. the point sits on the branch locus.
    model = biconic_from_config(cfg((-2, 2)))
    assert (model.m1.al, model.m1.be, model.m1.ga) == (-1, 0, 4)
    p = BiPoint((1, 2, 0), ProjPoint(0, 1))
    assert on_biconic(model, p)
    assert geiser(model, p) == p


def test_geiser_involution_random_points():
    # Many fibers have no rational points at all (the conic can fail to be
    # solvable over Q even with real points), so scan a ladder of fibers and
    # use the ones that do.
    configs = [cfg((0, 1)), cfg((-2, 2)), cfg((0, 1), (2, 3)),
               cfg((-3, -1), (1, 3)), cfg((0, 1), (2, 3), (4, 5))]
    checked = 0
    for config in configs:
        model = biconic_from_config(config)
        for arc in biconic_interval_image(model).intervals:
            lo, hi = arc.start.to_rat(), arc.end.to_rat()
            for den in (2, 3, 4, 5):
                for num in range(1, den):
                    t = ProjPoint.from_rat(lo + Fraction(num, den) * (hi - lo))
                    for p in fiber_points(model, t, want=3):
                        q = geiser(model, p)
                        assert q.xyz == p.xyz
                        assert on_biconic(model, q)
                        assert geiser(model, q) == p
                        checked += 1
    assert checked >= 40


def test_geiser_root_at_infinity_branch():
    # Hand-built model whose image touches infinity: over t = (1:0) the
    # plane point (5:3:4) has fiber quadratic 25ab - 66b^2 with second
    # root (66:25).
    model = BiconicModel(BinQuadForm(1, 1, -1), BinQuadForm(-1, 0, -1),
                         BinQuadForm(-1, 0, -2), 1)
    p = BiPoint((5, 3, 4), ProjPoint(1, 0))
    assert on_biconic(model, p)
    q = geiser(model, p)
    assert q.t == ProjPoint(66, 25)
    assert geiser(model, q) == p


def test_geiser_double_root_at_infinity_is_fixed():
    model = BiconicModel(BinQuadForm(1, 0, -1), BinQuadForm(-1, 0, -1),
                         BinQuadForm(-1, 0, -2), 1)
    p = BiPoint((5, 3, 4), ProjPoint(1, 0))
    assert on_biconic(model, p)
    assert geiser(model, p) == p


def test_geiser_singular_fiber_point_moves_between_boundaries():
    # Over the boundary parameter t = 0 the fiber degenerates to the single
    # real point (1:0:0); its Geiser image sits over the other boundary.
    model = unit_interval_model()
    p = BiPoint((1, 0, 0), ProjPoint(0, 1))
    assert on_biconic(model, p)
    q = geiser(model, p)
    assert q.xyz == (1, 0, 0)
    assert q.t == ProjPoint(1, 1)
    assert geiser(model, q) == p


def _geiser_case(rng):
    """A model and a point on it whose fiber quadratic is
    k (b0 a - a0 b)(b1 a - a1 b), with t = (a0 : b0) and image (a1 : b1): m1
    and m2 are random and m3 is solved from the quadratic.  t is (1:0) or
    (0:1) at least two times in three, the roots coincide a fifth of the
    time, and k = 0 makes the quadratic vanish.  None when the forms are not
    a model."""
    def root():
        return rng.choice([(1, 0), (0, 1), (rng.randint(-5, 5), rng.randint(1, 5))])
    x, y = rng.randint(-4, 4), rng.randint(-4, 4)
    z = rng.choice([-3, -2, -1, 1, 2, 3])
    (a0, b0), k = root(), rng.randint(-3, 3)
    a1, b1 = (a0, b0) if rng.random() < 0.2 else root()
    target = (k * b0 * b1, -k * (b0 * a1 + a0 * b1), k * a0 * a1)
    m1, m2 = ([rng.randint(-4, 4) for _ in range(3)] for _ in range(2))
    m3 = [Fraction(q - x * x * u - y * y * v, z * z) for q, u, v in zip(target, m1, m2)]
    try:
        model = BiconicModel(BinQuadForm(*m1), BinQuadForm(*m2), BinQuadForm(*m3), 0)
        p = BiPoint((x, y, z), ProjPoint(a0, b0))
        return model, p, ProjPoint(a1, b1) if k else None
    except InvalidModel:  # a zero form, a double root or a shared root
        return None


def test_geiser_vieta_matches_the_branch_reference():
    rng = random.Random(20260)
    seen = Counter()
    while seen["points"] < 10_000:
        case = _geiser_case(rng)
        if case is None:
            continue
        model, p, image = case
        seen["points"] += 1
        try:  # the reference raises NotOnSurface off the surface
            expected = support.reference_geiser(model, p)
        except Unsupported:
            with pytest.raises(Unsupported):
                geiser(model, p)
            seen["unsupported"] += 1
            continue
        assert geiser(model, p) == expected
        assert expected.t == image
        seen["infinity"] += p.t == ProjPoint(1, 0)
        seen["zero"] += p.t == ProjPoint(0, 1)
        seen["fixed"] += image == p.t
    assert min(seen.values()) >= 100, seen


def _scaled(model, factor):
    return BiconicModel(*(BinQuadForm(factor * f.al, factor * f.be, factor * f.ga)
                          for f in model.forms), model.k)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ImageIsWholeLine, IrrationalBoundary, NotOnSurface, Unsupported) as exc:
        return type(exc)


def test_a_common_factor_changes_nothing():
    # The same surface written with all nine coefficients times a common
    # factor, positive or negative, with or without a denominator.
    rng = random.Random(8)
    ts = (ProjPoint(0, 1), ProjPoint(1, 0), ProjPoint(1, 3), ProjPoint(-2, 1))
    cases = [(unit_interval_model(), BiPoint((3, 0, 1), ProjPoint(1, 2)))]
    cases += [(biconic_from_config(support.random_config(rng, k, low=-12, high=12)), None)
              for k in (1, 2, 3) for _ in range(5)]
    while len(cases) < 160:
        case = _geiser_case(rng)
        if case is not None:
            cases.append(case[:2])
    seen = Counter()
    for model, p in cases:
        points = [p, BiPoint(p.xyz, ProjPoint(p.t.u0 + 1, p.t.u1))] if p else []
        fibers = {t: fiber_points(model, t) for t in ts}
        points += [q for pts in fibers.values() for q in pts[:2]]
        image = _outcome(biconic_interval_image, model)
        geisers = [_outcome(geiser, model, q) for q in points]
        for factor in (Fraction(3, 7), -2, Fraction(5, 12), Fraction(-1, 9)):
            scaled = _scaled(model, factor)
            assert _outcome(biconic_interval_image, scaled) == image
            assert [_outcome(geiser, scaled, q) for q in points] == geisers
            assert [on_biconic(scaled, q) for q in points] == [on_biconic(model, q)
                                                               for q in points]
            assert {t: fiber_points(scaled, t) for t in ts} == fibers
        seen[image if isinstance(image, type) else "image"] += 1
        seen.update(g if isinstance(g, type) else "geiser" for g in geisers)
        seen["fiber points"] += sum(map(len, fibers.values()))
    assert all(seen[k] for k in ("image", ImageIsWholeLine, IrrationalBoundary, "geiser",
                                 NotOnSurface, Unsupported, "fiber points")), seen


def test_the_biconic_layer_evaluates_integers():
    model = _scaled(unit_interval_model(), Fraction(3, 7))
    assert model.m1.al == Fraction(-3, 7)
    for values in (model.values_at(ProjPoint(1, 2)), model.values_at(ProjPoint(2, 3)),
                   _fiber_quadratic(model, (3, 0, 1)), _fiber_quadratic(model, (1, 2, 3))):
        assert all(type(v) is int for v in values), values


def test_bipoint_json_roundtrip():
    p = BiPoint((3, 0, 1), ProjPoint(1, 2))
    assert cli._bipoint(p.as_json(), "point") == p
    model = {"m1": ["-1", "1", "0"], "m2": ["-1", "0", "-1"], "m3": ["-1", "0", "-2"], "k": 1}
    assert cli._biconic(model, "model") == unit_interval_model()


# -- second fibration -------------------------------------------------------------

def test_second_fibration_of_worked_point():
    model = unit_interval_model()
    assert second_fibration(model, BiPoint((3, 0, 1), ProjPoint(1, 2))) == ProjPoint(2, 5)


def test_second_fibration_constant_on_ramification():
    model = biconic_from_config(cfg((-2, 2)))
    p = BiPoint((1, 2, 0), ProjPoint(0, 1))
    assert second_fibration(model, p) == p.t


def test_distinct_foliations_witness():
    for config in (cfg((0, 1)), cfg((0, 1), (2, 3))):
        model = biconic_from_config(config)
        p1, p2 = distinct_foliations_witness(model)
        assert p1.t == p2.t
        assert second_fibration(model, p1) != second_fibration(model, p2)


@pytest.mark.parametrize("m1, image", [
    ((1, -2, -3), [["3", "-1"]]),      # an arc through infinity
    ((0, 1, 3), [["-3", "inf"]]),      # an arc ending at infinity
])
def test_distinct_foliations_witness_on_arcs_through_infinity(m1, image):
    model = BiconicModel(BinQuadForm(*m1), BinQuadForm(-1, 0, -1),
                         BinQuadForm(-1, 0, -2), 1)
    assert biconic_interval_image(model).as_json() == image
    p1, p2 = distinct_foliations_witness(model)
    assert p1.t == p2.t
    assert on_biconic(model, p1) and on_biconic(model, p2)
    assert second_fibration(model, p1) != second_fibration(model, p2)


def test_distinct_foliations_witness_reads_r_from_the_image():
    # the declared k is not trusted: k = 3 on a one-arc model still finds a
    # witness, and k = 1 on a model with empty real part is refused
    p1, p2 = distinct_foliations_witness(
        BiconicModel(BinQuadForm(-1, 1, 0), BinQuadForm(-1, 0, -1), BinQuadForm(-1, 0, -2), 3))
    assert p1.t == p2.t
    empty = biconic_from_config(IntervalConfig(()))
    with pytest.raises(Unsupported):
        distinct_foliations_witness(BiconicModel(empty.m1, empty.m2, empty.m3, 1))


def test_distinct_foliations_needs_real_points():
    with pytest.raises(Unsupported):
        distinct_foliations_witness(biconic_from_config(IntervalConfig(())))


def test_fiber_points_all_on_surface():
    model = biconic_from_config(cfg((0, 1), (2, 3)))
    # the fiber over 1/2 is a conic without rational points (descent mod 5)
    assert fiber_points(model, ProjPoint(1, 2), want=6) == []
    t = ProjPoint(1, 3)
    pts = fiber_points(model, t, want=6)
    assert len(pts) >= 2
    for p in pts:
        assert p.t == t
        assert on_biconic(model, p)


# -- rational points on a fiber conic ---------------------------------------------

def reference_conic_point(c1, c2, c3):
    # _conic_point before the solvability test and the shell walk: every cell
    # of [0, h] x [-h, h]^2, keeping those on the shell max(x, |y|, |z|) = h.
    for h in range(1, _CONIC_BOUND + 1):
        for x in range(0, h + 1):
            for y in range(-h, h + 1):
                for z in range(-h, h + 1):
                    if max(x, abs(y), abs(z)) != h:
                        continue
                    if x == 0 and y == 0 and z == 0:
                        continue
                    if c1 * x * x + c2 * y * y + c3 * z * z == 0:
                        return (x, y, z)
    return None


def test_conic_point_matches_reference_on_conics_with_small_points():
    # each conic is built through a point of height <= 5, so the reference
    # stops early; both must return the same first point
    rng = random.Random(37)
    checked = 0
    while checked < 300:
        x, y, z = (rng.randint(0, 5) for _ in range(3))
        c1, c2 = rng.choice([-1, 1]) * rng.randint(1, 40), rng.choice([-1, 1]) * rng.randint(1, 40)
        rest = -(c1 * x * x + c2 * y * y)
        if z == 0 or rest == 0 or rest % (z * z):
            continue
        c3 = rest // (z * z)
        assert _conic_point(c1, c2, c3) == reference_conic_point(c1, c2, c3), (c1, c2, c3)
        checked += 1


def test_conic_point_matches_reference_on_small_coefficients():
    for c1, c2, c3 in ((1, -1, 1), (1, 1, -2), (1, 1, -3), (2, -3, 1), (3, 5, -7),
                       (1, 0, -1), (0, 0, 5), (5, 3, -2), (-2, -3, 7)):
        assert _conic_point(c1, c2, c3) == reference_conic_point(c1, c2, c3), (c1, c2, c3)


def test_legendre_no_point_means_the_box_is_empty():
    # every ordered triple of nonzero coefficients up to 30 in absolute value;
    # a box point, up to signs, is a nonzero (x, y, z) in [0, 20]^3
    squares = [v * v for v in range(_CONIC_BOUND + 1)]
    coefs = [c for c in range(-30, 31) if c]
    for c1 in coefs:
        for c2 in coefs:
            pair_values = {c1 * a + c2 * b for a in squares for b in squares if a or b}
            flat = 0 in pair_values
            for c3 in coefs:
                verdict = _legendre(c1, c2, c3)
                assert verdict is not None, (c1, c2, c3)
                has_point = flat or any(-c3 * s in pair_values for s in squares[1:])
                assert verdict or not has_point, (c1, c2, c3)


def test_legendre_agrees_with_checked_solutions():
    # -21 x^2 - 73 y^2 + 129 z^2 = 0 at (16, 15, 13)
    assert -21 * 16 ** 2 - 73 * 15 ** 2 + 129 * 13 ** 2 == 0
    assert _legendre(-21, -73, 129) is True
    assert _legendre(1, 1, 1) is False and _legendre(-2, -3, -5) is False
    assert _legendre(1, 1, -3) is False  # -1 is not a square mod 3


def test_conic_point_misses_a_point_outside_the_box():
    # x^2 + y^2 - 1370 z^2 = 0 has (1, 37, 1), but no point with all three
    # coordinates up to 20: then z != 0 and x^2 + y^2 <= 800 < 1370
    assert 1 + 37 ** 2 - 1370 == 0
    assert _legendre(1, 1, -1370) is True
    assert _conic_point(1, 1, -1370) is None


def test_conic_point_searches_when_factoring_gives_up():
    big = (2 ** 89 - 1) * (2 ** 107 - 1)  # past the primality proof's range
    assert _legendre(1, -1, big) is None
    assert _conic_point(1, -1, big) == reference_conic_point(1, -1, big) == (1, -1, 0)
