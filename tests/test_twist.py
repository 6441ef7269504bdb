"""Twisting maps: rotations, charts, interpolation, synthesis, verification."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from conicbundle import (
    ConicModel,
    RatPoly,
    Rotation,
    SurfPoint,
    TwistMap,
    apply_twist,
    chart_param,
    choose_base_rotation,
    interpolate,
    inverse_twist,
    on_surface,
    rotation_between,
    rotation_from_param,
    synthesize_twist,
    tangent_coefficient,
    twist_from_rotations,
    verify_twist,
)
from conicbundle.errors import (
    ChartPole,
    DuplicateNode,
    EmptyOrSingularFiber,
    FiberMismatch,
    NotOnFiber,
    PinCollision,
    SingularFiberTarget,
)
from conicbundle import cli
from conicbundle import twist as tw
from conicbundle.polynomial import solve_linear
from conicbundle.projline import ladder
from conicbundle.twist import (
    _rational_circle_point,
    identity_param,
    ladder_fibers,
    rotation_supply,
    sample_surface_points,
)

import support

QUARTER = Rotation(Fraction(0), Fraction(1))
HALF = Rotation(Fraction(-1), Fraction(0))
SPIN35 = Rotation(Fraction(3, 5), Fraction(4, 5))


def unit_model():
    return ConicModel((0, 1))


# -- polynomials ---------------------------------------------------------------

def test_ratpoly_arithmetic_and_eval():
    p = RatPoly((1, 2))       # 1 + 2x
    q = RatPoly((0, 0, 1))    # x^2
    assert (p * q).coeffs == (0, 0, 1, 2)
    assert (p + q).coeffs == (1, 2, 1)
    assert (p - p).is_zero
    assert p.evaluate(Fraction(1, 2)) == 2
    assert q.derivative().coeffs == (0, 2)
    assert RatPoly((1, 0, 0)).coeffs == (1,)  # trailing zeros trimmed
    assert (p.degree, RatPoly.one().degree, (p - p).degree) == (1, 0, -1)


def test_ratpoly_from_roots():
    q = RatPoly.from_roots([0, 1], scale=-1)
    assert q.evaluate(Fraction(1, 2)) == Fraction(1, 4)
    assert q.evaluate(2) == -2


def random_fraction(rng, height):
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def test_evaluate_matches_fraction_horner():
    rng = random.Random(41)
    polys = [RatPoly.zero(), RatPoly.one(), RatPoly.constant(Fraction(-7, 3))]
    for _ in range(150):
        height = rng.choice((6, 10 ** 3, 10 ** 6))
        polys.append(RatPoly(tuple(random_fraction(rng, height)
                                   for _ in range(rng.randint(1, 15)))))
    xs = [0, 1, -1, 5, -12, Fraction(1, 2), Fraction(-7, 3), Fraction(10 ** 6, 999983)]
    for poly in polys:
        for x in xs + [random_fraction(rng, rng.choice((9, 10 ** 6))) for _ in range(4)]:
            assert poly.evaluate(x) == support.reference_evaluate(poly, x), (poly, x)
    assert max(p.degree for p in polys) == 14
    # the cached integer form stays out of equality and hashing
    poly = polys[-1]
    twin = RatPoly(poly.coeffs)
    assert poly == twin and hash(poly) == hash(twin) and repr(poly) == repr(twin)


# -- rotations -----------------------------------------------------------------

def test_rotation_validates_circle():
    with pytest.raises(ValueError):
        Rotation(Fraction(1, 2), Fraction(1, 2))


def test_rotation_circle_check_matches_fraction_reference():
    rng = random.Random(43)
    pairs = [(Fraction(3, 5), Fraction(3, 5)),    # equal denominators, off the circle
             (Fraction(3, 5), Fraction(4, 7)),    # unequal denominators
             (Fraction(3, 5), Fraction(2, 5)), (Fraction(1, 2), Fraction(1, 2)),
             (Fraction(3, 5), Fraction(4, 5)), (Fraction(-5, 13), Fraction(12, 13)),
             (Fraction(6, 10), Fraction(-8, 10)), (0, 1), (1, 0), (-1, 0), (0, -1),
             (1, 1), (0, 0), (2, 0), (Fraction(1, 5), Fraction(1, 5))]
    for _ in range(400):
        p, q = rng.randint(-60, 60), rng.randint(1, 60)
        h = p * p + q * q
        a, b = q * q - p * p, 2 * p * q
        pairs += [(Fraction(a, h), Fraction(b, h)),                # on the circle
                  (Fraction(a + rng.choice((-1, 1)), h), Fraction(b, h)),
                  (Fraction(b, h), Fraction(a, h + rng.randint(1, 3))),
                  (random_fraction(rng, 12), random_fraction(rng, 12))]
    accepted = 0
    for c, s in pairs:
        expected = support.reference_on_unit_circle(c, s)
        try:
            Rotation(c, s)
            got = True
        except ValueError:
            got = False
        assert got == expected, (c, s)
        accepted += got
    assert 400 < accepted < len(pairs) - 400


def test_rotation_kernels_match_fraction_reference():
    rng = random.Random(47)
    lams = [0, 1, -1, Fraction(1, 2), Fraction(-3, 7), 10 ** 6, Fraction(1, 10 ** 6)]
    lams += [random_fraction(rng, rng.choice((9, 10 ** 3, 10 ** 6))) for _ in range(200)]
    rotations = []
    for lam in lams:
        rot = rotation_from_param(lam)
        assert (rot.c, rot.s) == support.reference_rotation_from_param(lam), lam
        rotations.append(rot)
    for _ in range(200):
        r1, r2 = rng.choice(rotations), rng.choice(rotations)
        assert (r1.compose(r2).c, r1.compose(r2).s) == support.reference_compose(r1, r2)
        y, z = random_fraction(rng, 10 ** 3), rng.choice((0, 3, random_fraction(rng, 50)))
        assert r1.apply(y, z) == support.reference_apply(r1, y, z), (r1, y, z)


def test_rotation_between_identity():
    model = unit_model()
    frm = (Fraction(1, 2), Fraction(0))
    assert rotation_between(model, Fraction(1, 2), frm, frm) == Rotation.identity()


def test_rotation_between_quarter_turn():
    model = unit_model()
    rot = rotation_between(model, Fraction(1, 2), (Fraction(1, 2), 0), (0, Fraction(1, 2)))
    assert rot == QUARTER


def test_rotation_between_antipodal():
    model = unit_model()
    rot = rotation_between(model, Fraction(1, 2), (Fraction(1, 2), 0), (Fraction(-1, 2), 0))
    assert rot == HALF


def test_rotation_between_errors():
    model = unit_model()
    with pytest.raises(EmptyOrSingularFiber):
        rotation_between(model, 0, (0, 0), (0, 0))
    with pytest.raises(NotOnFiber):
        rotation_between(model, Fraction(1, 2), (1, 0), (Fraction(1, 2), 0))


# -- chart ----------------------------------------------------------------------

def test_chart_param_examples():
    assert chart_param(Rotation.identity(), Rotation.identity()) == 0
    assert chart_param(Rotation.identity(), QUARTER) == 1
    with pytest.raises(ChartPole):
        chart_param(Rotation.identity(), HALF)


def test_chart_roundtrip():
    rng = random.Random(2)
    pool = [Rotation.identity(), QUARTER, SPIN35, SPIN35.inverse(),
            Rotation(Fraction(5, 13), Fraction(12, 13))]
    for base in pool:
        for phi in pool:
            rel = base.inverse().compose(phi)
            if rel == HALF:
                continue
            lam = chart_param(base, phi)
            assert base.compose(rotation_from_param(lam)) == phi
    assert rng  # keep the import honest


def test_identity_param_matches_chart():
    for base in (Rotation.identity(), SPIN35):
        assert base.compose(rotation_from_param(identity_param(base))).is_identity


# -- base rotation choice ---------------------------------------------------------

def test_choose_base_default_is_identity():
    assert choose_base_rotation([]) == Rotation.identity()


def test_choose_base_skips_conflicts():
    # (-1, 0) knocks out the identity; (-3/5, -4/5) knocks out (3/5, 4/5).
    required = {HALF, Rotation(Fraction(-3, 5), Fraction(-4, 5))}
    base = choose_base_rotation(required)
    assert base == Rotation(Fraction(5, 13), Fraction(12, 13))


def test_choose_base_postcondition():
    required = {Rotation.identity(), QUARTER}
    base = choose_base_rotation(required)
    pole = Rotation(-base.c, -base.s)
    assert not pole.is_identity and pole not in required


def test_rotation_supply_is_on_circle():
    supply = rotation_supply()
    seen = set()
    for _ in range(8):
        rot = next(supply)
        assert rot.c ** 2 + rot.s ** 2 == 1
        assert rot not in seen
        seen.add(rot)


# -- interpolation ------------------------------------------------------------------

def test_interpolate_linear():
    poly = interpolate([(0, 0), (Fraction(1, 2), 1)])
    assert poly.coeffs == (0, 2)


def test_interpolate_value_plus_slope():
    poly = interpolate([(0, 0, 3)])
    assert poly.coeffs == (0, 3)


def test_interpolate_all_zero_data():
    assert interpolate([(0, 0), (1, 0), (2, 0)]).is_zero


def test_interpolate_hermite_mixed():
    # p(0) = 1, p'(0) = 0, p(1) = 2 -> 1 + x^2
    poly = interpolate([(0, 1, 0), (1, 2)])
    assert poly.coeffs == (1, 0, 1)
    assert poly.derivative().evaluate(0) == 0


def test_interpolate_duplicate_node():
    # a repeated x is refused whether a value or a jet comes first
    for nodes in ([(0, 1), (0, 2)], [(2, 1), (2, 1, 3)], [(2, 1, 3), (2, 1)]):
        with pytest.raises(DuplicateNode):
            interpolate(nodes)


def _random_nodes(rng, equations, height, jet_share):
    def rat():
        return Fraction(rng.randint(-height, height), rng.randint(1, height))
    nodes, xs = [], set()
    while equations > 0:
        x = rat()
        if x in xs:
            continue
        xs.add(x)
        if equations > 1 and rng.random() < jet_share:
            nodes.append((x, rat(), rat()))
            equations -= 2
        else:
            nodes.append((x, rat()))
            equations -= 1
    return nodes


def test_interpolate_random_agreement():
    # Exact agreement with the divided-difference oracle: values only, mixed
    # jets and jets only, up to 14 equations, heights up to 10^6.
    rng = random.Random(8)
    cases = [[], [(0, 0, 0)], [(Fraction(-7, 3), 5, Fraction(2, 9))]]
    for _ in range(150):
        cases.append(_random_nodes(rng, rng.randint(1, 14), rng.choice((6, 10 ** 3, 10 ** 6)),
                                   rng.choice((0, 0.5, 1))))
    for nodes in cases:
        poly = interpolate(nodes)
        assert poly == support.hermite_interpolate(nodes)
        assert poly.degree < sum(len(node) - 1 for node in nodes)
        for node in nodes:
            assert poly.evaluate(node[0]) == node[1]
            if len(node) > 2:
                assert poly.derivative().evaluate(node[0]) == node[2]


def _random_entry(rng, height):
    # mixed denominators, with ints and zeros among the Fractions
    roll = rng.random()
    if roll < 0.15:
        return 0
    if roll < 0.3:
        return rng.randint(-height, height)
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def _solve_agrees(rows, rhs):
    x = solve_linear(rows, rhs)
    assert x == support.reference_solve_linear(rows, rhs)
    assert all(type(v) is Fraction for v in x)
    for row, b in zip(rows, rhs):
        assert sum(Fraction(a) * v for a, v in zip(row, x)) == b
    return x


def test_solve_linear_random_agreement():
    # Exact agreement with the Fraction Gauss-Jordan reference on square
    # systems of every size from 0 to 14 at heights up to 10^6.
    rng = random.Random(11)
    solved = 0
    for n in list(range(15)) * 8:
        height = rng.choice((6, 10 ** 3, 10 ** 6))
        rows = [[_random_entry(rng, height) for _ in range(n)] for _ in range(n)]
        rhs = [_random_entry(rng, height) for _ in range(n)]
        try:
            support.reference_solve_linear(rows, rhs)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                solve_linear(rows, rhs)
            continue
        _solve_agrees(rows, rhs)
        solved += 1
    assert solved > 100


def test_solve_linear_row_swap_and_negative_pivot():
    # a zero leading entry forces a swap; then a negative first pivot
    assert _solve_agrees([[0, 1], [2, 3]], [Fraction(5, 7), -1]) == [Fraction(-11, 7), Fraction(5, 7)]
    assert _solve_agrees([[-3, Fraction(1, 2)], [1, -2]], [1, Fraction(1, 3)]) == \
        [Fraction(-13, 33), Fraction(-4, 11)]
    # the diagonal entry is zero at both elimination steps, so both swap rows
    _solve_agrees([[0, 0, Fraction(3, 2)], [Fraction(1, 3), 2, 1], [2, 13, 7]], [1, Fraction(2, 9), 3])


@pytest.mark.parametrize("rows", [
    [[0, 1, 2], [0, 3, 4], [0, Fraction(1, 2), 6]],                     # zero column
    [[1, 2, 3], [Fraction(-1, 2), -1, Fraction(-3, 2)], [4, 5, 7]],     # proportional rows
    [[1, 2, 3], [4, 5, 6], [5, 7, 9]],                                  # row 3 = row 1 + row 2
])
def test_solve_linear_singular(rows):
    with pytest.raises(ValueError, match="singular"):
        solve_linear(rows, [1, 2, 3])
    with pytest.raises(ValueError, match="singular"):
        support.reference_solve_linear(rows, [1, 2, 3])


# -- synthesis ----------------------------------------------------------------------

def test_synthesize_single_pair_quarter_turn():
    model = unit_model()
    p = SurfPoint(Fraction(1, 2), Fraction(1, 2), 0)
    q = SurfPoint(Fraction(1, 2), 0, Fraction(1, 2))
    twist = synthesize_twist(model, [(p, q)])
    assert twist.base == Rotation.identity()
    assert twist.lam.coeffs == (1,)
    assert apply_twist(model, twist, p) == q
    # the constant quarter turn acts as (x, y, z) -> (x, -z, y)
    other = SurfPoint(0, 0, 0)
    assert apply_twist(model, twist, other) == other
    r = SurfPoint(Fraction(1, 2), 0, Fraction(-1, 2))
    assert apply_twist(model, twist, r) == SurfPoint(Fraction(1, 2), Fraction(1, 2), 0)


def test_synthesize_pair_with_pin():
    model = unit_model()
    p = SurfPoint(Fraction(1, 2), Fraction(1, 2), 0)
    q = SurfPoint(Fraction(1, 2), 0, Fraction(1, 2))
    twist = synthesize_twist(model, [(p, q)], pins=[Fraction(0)])
    assert twist.lam.coeffs == (0, 2)
    assert twist.fiber_rotation(0).is_identity
    assert apply_twist(model, twist, p) == q


def test_synthesize_identity_from_pins_only():
    model = unit_model()
    twist = synthesize_twist(model, [], pins=[Fraction(1, 4), Fraction(3, 4)])
    assert twist.lam.is_zero
    assert twist.base == Rotation.identity()
    for p in sample_surface_points(model):
        assert apply_twist(model, twist, p) == p


def test_synthesize_error_cases():
    model = unit_model()
    p = SurfPoint(Fraction(1, 2), Fraction(1, 2), 0)
    q = SurfPoint(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))  # Q(1/3) = 2/9
    with pytest.raises(FiberMismatch):
        synthesize_twist(model, [(p, q)])
    with pytest.raises(PinCollision):
        synthesize_twist(model, [(p, SurfPoint(Fraction(1, 2), 0, Fraction(1, 2)))],
                         pins=[Fraction(1, 2)])
    with pytest.raises(EmptyOrSingularFiber):
        synthesize_twist(model, [], pins=[Fraction(2)])
    with pytest.raises(SingularFiberTarget):
        twist_from_rotations(model, [(Fraction(0), QUARTER)])
    with pytest.raises(DuplicateNode):
        twist_from_rotations(model, [(Fraction(1, 2), QUARTER), (Fraction(1, 2), HALF)])


def test_synthesize_antipodal_forces_nontrivial_base():
    model = unit_model()
    p = SurfPoint(Fraction(1, 2), Fraction(1, 2), 0)
    q = SurfPoint(Fraction(1, 2), Fraction(-1, 2), 0)
    twist = synthesize_twist(model, [(p, q)])
    assert twist.base == SPIN35  # identity is unusable: its pole is the half turn
    assert apply_twist(model, twist, p) == q


def test_pins_at_singular_fiber_parameters_allowed():
    model = unit_model()
    p = SurfPoint(Fraction(1, 2), Fraction(1, 2), 0)
    q = SurfPoint(Fraction(1, 2), 0, Fraction(1, 2))
    twist = synthesize_twist(model, [(p, q)], pins=[Fraction(0), Fraction(1)])
    assert twist.fiber_rotation(0).is_identity
    assert twist.fiber_rotation(1).is_identity
    assert apply_twist(model, twist, SurfPoint(1, 0, 0)) == SurfPoint(1, 0, 0)


def test_synthesize_random_transport():
    rng = random.Random(77)
    spins = [Rotation.identity(), QUARTER, SPIN35, SPIN35.inverse(), HALF,
             Rotation(Fraction(5, 13), Fraction(12, 13))]
    for _ in range(20):
        model = support.random_model(rng, rng.choice((1, 2, 3)))
        fibers = support.model_fibers_with_points(model, 6)
        if not fibers:
            continue
        chosen = fibers[:rng.randint(1, len(fibers))]
        pairs = []
        for p in chosen:
            y, z = rng.choice(spins).apply(p.y, p.z)
            pairs.append((p, SurfPoint(p.x, y, z)))
        pins = [a for a in model.roots[:2] if all(a != p.x for p, _ in pairs)][:1]
        twist = synthesize_twist(model, pairs, pins=pins)
        for p, q in pairs:
            assert apply_twist(model, twist, p) == q
        for b in pins:
            assert twist.fiber_rotation(b).is_identity
        assert verify_twist(model, twist).passed


# -- jets ------------------------------------------------------------------------

def test_jet_value_and_slope():
    model = unit_model()
    twist = synthesize_twist(model, [], jets=[(Fraction(1, 2), Fraction(3))])
    assert twist.fiber_rotation(Fraction(1, 2)).is_identity
    assert tangent_coefficient(twist, Fraction(1, 2)) == 6  # 2 * mu0


def test_jet_with_nontrivial_base():
    model = unit_model()
    p = SurfPoint(Fraction(1, 2), Fraction(1, 2), 0)
    q = SurfPoint(Fraction(1, 2), Fraction(-1, 2), 0)
    twist = synthesize_twist(model, [(p, q)], jets=[(Fraction(1, 4), Fraction(2))])
    assert twist.base != Rotation.identity()
    assert twist.fiber_rotation(Fraction(1, 4)).is_identity
    assert tangent_coefficient(twist, Fraction(1, 4)) == 4


def test_jet_finite_difference_spot_check():
    model = unit_model()
    mu = Fraction(5, 2)
    twist = synthesize_twist(model, [], jets=[(Fraction(1, 2), mu)])
    kappa = tangent_coefficient(twist, Fraction(1, 2))
    assert kappa == 2 * mu
    h = 1e-6
    lam = twist.lam

    def sine(xf):
        lv = float(lam.evaluate(Fraction(xf).limit_denominator(10 ** 12)))
        c0, s0 = float(twist.base.c), float(twist.base.s)
        return (s0 * (1 - lv * lv) + c0 * 2 * lv) / (1 + lv * lv)

    fd = (sine(0.5 + h) - sine(0.5 - h)) / (2 * h)
    assert abs(fd - float(kappa)) <= 1e-3 * abs(float(kappa))


def reference_tangent_coefficient(twist, x0):
    # The quotient rule on the degree-2d numerator and denominator polynomials.
    lam = twist.lam
    one = RatPoly.one()
    numer = twist.base.s * (one - lam * lam) + twist.base.c * (2 * lam)
    denom = one + lam * lam
    derivative = numer.derivative() * denom - numer * denom.derivative()
    x0 = Fraction(x0)
    return derivative.evaluate(x0) / (denom.evaluate(x0) ** 2)


def test_tangent_coefficient_matches_quotient_rule():
    rng = random.Random(17)
    supply = rotation_supply()
    bases = [next(supply) for _ in range(5)]
    bases += [Rotation(-b.s, b.c) for b in bases] + [b.inverse() for b in bases]
    for _ in range(200):
        degree = rng.randint(0, 5)
        lam = RatPoly(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                            for _ in range(degree + 1)))
        twist = TwistMap(rng.choice(bases), lam)
        x0 = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        assert tangent_coefficient(twist, x0) == reference_tangent_coefficient(twist, x0)


def test_jet_collision_with_pair():
    model = unit_model()
    p = SurfPoint(Fraction(1, 2), Fraction(1, 2), 0)
    q = SurfPoint(Fraction(1, 2), 0, Fraction(1, 2))
    with pytest.raises(PinCollision):
        synthesize_twist(model, [(p, q)], jets=[(Fraction(1, 2), Fraction(1))])


# -- fiber sampling -----------------------------------------------------------------

def reference_circle_point(rho):
    # The circle scan over every s up to isqrt(n), before it stopped at isqrt(n // 2).
    rho = Fraction(rho)
    if rho < 0:
        return None
    if rho == 0:
        return Fraction(0), Fraction(0)
    n = rho.numerator * rho.denominator
    if n > 10 ** 10:
        return None
    root = isqrt(n)
    for s in range(root + 1):
        rest = n - s * s
        t = isqrt(rest)
        if t * t == rest:
            return Fraction(s, rho.denominator), Fraction(t, rho.denominator)
    return None


def test_circle_scan_matches_reference_on_every_small_integer():
    for n in range(-3, 20001):
        assert _rational_circle_point(Fraction(n)) == reference_circle_point(n), n


def test_circle_scan_matches_reference_on_random_rationals():
    rng = random.Random(23)
    for _ in range(600):
        den = rng.randint(1, 120)
        if rng.random() < 0.5:
            # a sum of two squares over a square, so that hits are common
            rho = Fraction(rng.randint(0, 300) ** 2 + rng.randint(0, 300) ** 2, den * den)
        else:
            rho = Fraction(rng.randint(-10, 10 ** 5), den)
        assert _rational_circle_point(rho) == reference_circle_point(rho), rho


@pytest.mark.parametrize("n", [
    9999999929,         # a prime = 1 mod 4 above the trial bound: a hit
    9999999967,         # a prime = 3 mod 4 above the trial bound: a miss
    99991 ** 2,         # p^2 with p = 3 mod 4: a hit
    99991 * 99971,      # p q with p = q = 3 mod 4, both above the bound: rho, a miss
    99989 * 99961,      # p q with p = q = 1 mod 4, both above the bound: rho, a hit
], ids=["prime-1-mod-4", "prime-3-mod-4", "prime-square", "rho-miss", "rho-hit"])
def test_circle_scan_matches_reference_past_trial_division(n):
    for rho in (Fraction(n), Fraction(1, n)):
        assert _rational_circle_point(rho) == reference_circle_point(rho), rho


def test_circle_scan_matches_reference_on_random_large_integers():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(20001, 10 ** 10)
        assert _rational_circle_point(Fraction(n)) == reference_circle_point(n), n


def reference_sample_surface_points(model, per_interval=2):
    # The sampler before the shared ladder, with its own ladder and filter.
    points = [SurfPoint(a, 0, 0) for a in model.roots]
    spin = Rotation(Fraction(3, 5), Fraction(4, 5))
    for i in range(model.r):
        lo, hi = model.roots[2 * i], model.roots[2 * i + 1]
        found = 0
        for den in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16):
            if found >= per_interval:
                break
            for num in range(1, den):
                x = lo + Fraction(num, den) * (hi - lo)
                p = tw.find_fiber_point(model, x)
                if p is not None and p.y * p.y + p.z * p.z > 0:
                    y2, z2 = spin.apply(p.y, p.z)
                    points.extend([p, SurfPoint(x, y2, z2)])
                    found += 1
                    break
    return points


def test_sample_surface_points_matches_reference(monkeypatch):
    # Same list, repeated fibers included, from the same point searches in
    # the same order.
    searched = []
    search = tw.find_fiber_point

    def recording(model, x):
        searched.append(x)
        return search(model, x)

    monkeypatch.setattr(tw, "find_fiber_point", recording)
    rng = random.Random(29)
    repeats = 0
    for _ in range(20):
        height = rng.choice((8, 50, 500, 5000))
        model = support.random_model(rng, rng.randint(1, 3), -height, height)
        searched.clear()
        expected = reference_sample_surface_points(model)
        expected_searches = list(searched)
        searched.clear()
        assert sample_surface_points(model) == expected
        assert searched == expected_searches
        xs = [p.x for p in expected[2 * model.r:]]
        repeats += len(xs) != 2 * len(set(xs))
    assert repeats > 0


def test_ladder_rungs():
    lo, hi = Fraction(-3, 2), Fraction(7)
    rungs = list(ladder(lo, hi))
    assert [len(rung) + 1 for rung in rungs] == [2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16]
    assert rungs[0] == [Fraction(11, 4)]
    assert all(lo < x < hi for rung in rungs for x in rung)
    assert all(rung == sorted(rung) for rung in rungs)


def test_ladder_matches_fraction_reference():
    rng = random.Random(53)
    ends = [(Fraction(-3, 2), Fraction(7)), (Fraction(0), Fraction(1)), (-5, -2)]
    for _ in range(100):
        height = rng.choice((8, 10 ** 3, 10 ** 6))
        lo = random_fraction(rng, height)
        ends.append((lo, lo + Fraction(rng.randint(1, height), rng.randint(1, height))))
    for lo, hi in ends:
        assert list(ladder(lo, hi)) == support.reference_ladder(lo, hi), (lo, hi)


def test_find_fiber_point_matches_fraction_reference():
    # The integer miss path against Q(x) as a Fraction product fed to the
    # Fraction circle search: hits, misses, root fibers and empty fibers.
    rng = random.Random(59)
    for _ in range(40):
        height = rng.choice((8, 50, 500, 5000))
        model = support.random_model(rng, rng.randint(1, 3), -height, height)
        xs = list(model.roots) + [model.roots[0] - 1, model.roots[-1] + Fraction(1, 3)]
        for lo, hi in zip(model.roots[::2], model.roots[1::2]):
            xs += [x for rung in ladder(lo, hi) for x in rung]
        hits = 0
        for x in xs:
            got = _rational_circle_point(support.reference_q_at(model, x))
            expected = None if got is None else SurfPoint(x, *got)
            assert tw.find_fiber_point(model, x) == expected, (model, x)
            hits += expected is not None
        assert hits >= len(model.roots)


def test_ladder_fibers_take_first_point_of_each_rung():
    model = ConicModel((0, 1, 3, 7))
    for lo, hi in ((0, 1), (3, 7)):
        fibers = list(ladder_fibers(model, Fraction(lo), Fraction(hi)))
        assert fibers
        for p in fibers:
            assert lo < p.x < hi and on_surface(model, p) and p.y ** 2 + p.z ** 2 > 0
            rung = next(r for r in ladder(Fraction(lo), Fraction(hi)) if p.x in r)
            assert all(tw.find_fiber_point(model, x) is None for x in rung[:rung.index(p.x)])


# -- application and verification ---------------------------------------------------

def test_apply_twist_preserves_surface_and_fiber():
    rng = random.Random(4)
    model = support.random_model(rng, 2)
    twist = TwistMap(SPIN35, RatPoly((Fraction(1, 3), Fraction(2, 5))))
    for p in sample_surface_points(model):
        image = apply_twist(model, twist, p)
        assert image.x == p.x
        assert on_surface(model, image)


def test_apply_twist_rejects_off_surface():
    from conicbundle.errors import NotOnSurface
    with pytest.raises(NotOnSurface):
        apply_twist(unit_model(), TwistMap(Rotation.identity(), RatPoly.zero()),
                    SurfPoint(5, 1, 1))


def test_orthogonality_identity_symbolic():
    for coeffs in ((), (1,), (0, 2), (Fraction(1, 3), Fraction(-2, 7), 1)):
        lam = RatPoly(coeffs)
        one = RatPoly.one()
        lhs = (one - lam * lam) * (one - lam * lam) + (2 * lam) * (2 * lam)
        rhs = (one + lam * lam) * (one + lam * lam)
        assert (lhs - rhs).is_zero


def test_verify_twist_passes_on_synthesized():
    model = ConicModel((0, 1, 2, 3))
    fibers = support.model_fibers_with_points(model, 2)
    pairs = [(p, SurfPoint(p.x, *SPIN35.apply(p.y, p.z))) for p in fibers]
    report = verify_twist(model, synthesize_twist(model, pairs))
    assert report.passed and not report.failures


def test_postcondition_survives_optimize_flag():
    # Under python -O a bare assert vanishes; the synthesis postcondition
    # must still reject an interpolant that misses its pinned fiber.
    script = "\n".join([
        "from fractions import Fraction",
        "from conicbundle import ConicModel, RatPoly, twist",
        "assert False, 'asserts are live: not running under -O'",
        "interpolate = twist.interpolate",
        "twist.interpolate = lambda nodes: interpolate(nodes) + RatPoly.one()",
        "try:",
        "    twist.synthesize_twist(ConicModel((0, 1)), [], pins=[Fraction(1, 2)])",
        "except AssertionError as exc:",
        "    print('raised:', exc)",
    ])
    proc = support.run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: twist moves the pinned fiber")


def test_inverse_twist_composes_to_identity():
    rng = random.Random(21)
    model = ConicModel((-2, -1, 1, 2))
    points = sample_surface_points(model)
    assert len(points) >= 8
    checked = 0
    for _ in range(15):
        lam = RatPoly(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)))
        twist = TwistMap(SPIN35, lam)
        inv = inverse_twist(twist)
        for p in points:
            assert apply_twist(model, inv, apply_twist(model, twist, p)) == p
            checked += 1
    assert checked >= 100


def test_twist_json_roundtrip():
    twist = TwistMap(SPIN35, RatPoly((0, 2)))
    assert twist.as_json() == {"base": {"c": "3/5", "s": "4/5"}, "lambda": ["0", "2"]}
    assert cli._twist(twist.as_json(), "twist") == twist


def test_twist_group_property_on_samples():
    # Composing twists matches the twist synthesized from composed rotations.
    model = unit_model()
    fibers = support.model_fibers_with_points(model, 2)
    rots_a = [(p.x, QUARTER) for p in fibers]
    rots_b = [(p.x, SPIN35) for p in fibers]
    twist_a = twist_from_rotations(model, rots_a)
    twist_b = twist_from_rotations(model, rots_b)
    composed = twist_from_rotations(
        model, [(p.x, SPIN35.compose(QUARTER)) for p in fibers])
    for p in fibers:
        via_pair = apply_twist(model, twist_b, apply_twist(model, twist_a, p))
        assert apply_twist(model, composed, p) == via_pair
