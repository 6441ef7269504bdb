"""Twisting maps: rotations, charts, interpolation, synthesis, verification."""

import random
from collections import Counter
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
    PinCollision,
    SingularFiberTarget,
)
from conicbundle import cli
from conicbundle import projline as pj
from conicbundle import twist as tw
from conicbundle.polynomial import solve_linear
from conicbundle.projline import ladder
from conicbundle.twist import (
    _circle_solution,
    ladder_fibers,
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
    assert q.ratio_at(Fraction(5, 3), derivative=True) == (10, 3)
    assert RatPoly((1, 0, 0)).coeffs == (1,)  # trailing zeros trimmed
    assert ((p - p).coeffs, RatPoly.one().coeffs, RatPoly.zero().coeffs) == ((), (1,), ())


def random_fraction(rng, height):
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def test_evaluate_matches_fraction_horner():
    rng = random.Random(41)
    polys = [RatPoly.zero(), RatPoly.one(), RatPoly((Fraction(-7, 3),))]
    for _ in range(150):
        height = rng.choice((6, 10 ** 3, 10 ** 6))
        polys.append(RatPoly(tuple(random_fraction(rng, height)
                                   for _ in range(rng.randint(1, 15)))))
    xs = [0, 1, -1, 5, -12, Fraction(1, 2), Fraction(-7, 3), Fraction(10 ** 6, 999983)]
    for poly in polys:
        for x in xs + [random_fraction(rng, rng.choice((9, 10 ** 6))) for _ in range(4)]:
            assert poly.evaluate(x) == support.reference_evaluate(poly, x), (poly, x)
            slope = support.reference_evaluate(support.reference_derivative(poly), x)
            assert Fraction(*poly.ratio_at(x, derivative=True)) == slope, (poly, x)
    assert max(len(p.coeffs) - 1 for p in polys) == 14
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


def test_fiber_rotation_matches_fraction_reference():
    # 300 random twist maps, their bases from Gaussian integers q + ip (with
    # p > 0, as -z is the same rotation), every tenth the half turn q = 0 and
    # every tenth the identity p = 0
    rng = random.Random(59)
    for trial in range(300):
        q, p = rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 10 ** 4)
        if trial % 10 == 0:
            q = 0
        elif trial % 10 == 1:
            q, p = p, 0
        norm = q * q + p * p
        base = Rotation(Fraction(q * q - p * p, norm), Fraction(2 * p * q, norm))
        lam = RatPoly(tuple(random_fraction(rng, 10 ** 7) for _ in range(rng.randint(1, 12))))
        twist = TwistMap(base, lam)
        x = random_fraction(rng, rng.choice((9, 10 ** 3)))
        rot = twist.fiber_rotation(x)
        assert (rot.c, rot.s) == support.reference_fiber_rotation(twist, x), (twist, x)
        again = Rotation(rot.c, rot.s)
        assert again == rot and hash(again) == hash(rot)
        assert rot.q > 0 or (rot.q, rot.p) == (0, 1)
        pole = rot.compose(HALF)
        with pytest.raises(ChartPole) as info:
            chart_param(rot, pole)
        assert f"'c': '{pj.format_rat(pole.c)}', 's': '{pj.format_rat(pole.s)}'" in str(info.value)


def _kind(rot):
    return {Rotation.identity(): "identity", HALF: "half turn"}.get(rot, "rotation")


def test_membership_and_transport_match_the_fraction_references():
    # The integer kernels of on_surface and of synthesize_twist's transport
    # against their Fraction forms: points on and off the surface, zero and
    # negative coordinates, root fibers and fibers with Q < 0, and transports
    # on circles that on_surface has accepted (the identity, the half turn
    # and other rotations), at heights 6, 10^3 and 10^6.
    rng, spins = random.Random(71), random.Random(73)
    kinds, members = Counter(), Counter()
    for _ in range(150):
        height = rng.choice((6, 10 ** 3, 10 ** 6))
        model, p = support.model_through_point(rng, rng.randint(1, 3), height)
        source = (p.y, p.z)
        turned = support.reference_apply(rotation_from_param(random_fraction(rng, height)), *source)
        off = (p.y + Fraction(rng.choice((-1, 1)), rng.randint(1, height)), p.z)
        root = rng.choice(model.roots)
        outside = model.roots[-1] + random_fraction(rng, height) ** 2 + 1
        targets = [source, (-p.y, -p.z), turned]
        targets += [support.reference_apply(rotation_from_param(random_fraction(spins, height)),
                                            *source) for _ in range(5)]
        num, den = model.q_ratio(p.x)
        for to in targets if num > 0 else ():
            assert on_surface(model, p) and on_surface(model, SurfPoint(p.x, *to))
            got = tw._transport(num, den, source, to)
            assert got == support.reference_rotation_between(model, p.x, source, to), \
                (model, p, to)
            kinds[_kind(got)] += 1
        for x, (y, z) in [(p.x, source), (p.x, turned), (p.x, off), (root, (0, 0)),
                          (root, source), (outside, source)]:
            point = SurfPoint(x, y, z)
            member = on_surface(model, point)
            assert member == support.reference_on_surface(model, point), (model, point)
            members[member] += 1
    assert sum(kinds.values()) >= 1000 and min(kinds.values()) >= 40 and len(kinds) == 3, kinds
    assert min(members.values()) >= 300, members


def test_transport_errors_quote_long_values_like_the_reference():
    # Transports of 4,000-digit points on a 4,000-digit model succeed and
    # agree with the Fraction reference.  Their errors are synthesize_twist's,
    # whose messages tests/test_cli.py checks for long values.
    rng = random.Random(72)
    half = Fraction(1, 2)
    cases = [(unit_model(), half, (half, 0), (0, half))]  # a quarter turn
    big_model, p = support.model_through_point(rng, 1, 10 ** 4000, 0)
    for spin in (Rotation.identity(), SPIN35, HALF):
        cases.append((big_model, p.x, (p.y, p.z), support.reference_apply(spin, p.y, p.z)))
    kinds = Counter()
    for model, x, frm, to in cases:
        assert on_surface(model, SurfPoint(x, *frm)) and on_surface(model, SurfPoint(x, *to))
        got = tw._transport(*model.q_ratio(x), frm, to)
        assert got == support.reference_rotation_between(model, x, frm, to)
        kinds[_kind(got)] += 1
    assert kinds == {"identity": 1, "half turn": 1, "rotation": 2}, kinds


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
    # the identity's parameter in the chart of base = q + ip is -p/q
    for base in (Rotation.identity(), SPIN35, SPIN35.inverse(), QUARTER):
        lam = chart_param(base, Rotation.identity())
        assert lam == Fraction(-base.p, base.q)
        assert base.compose(rotation_from_param(lam)).is_identity


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


def test_base_family_is_on_circle():
    # choose_base_rotation walks psi(k/(k + 1)), k = 0, 1, ..., and takes
    # each one once the poles of those before it are required
    required, seen = set(), set()
    for k in range(8):
        rot = rotation_from_param(Fraction(k, k + 1))
        assert rot.c ** 2 + rot.s ** 2 == 1
        assert choose_base_rotation(required) == rot
        assert rot not in seen
        seen.add(rot)
        required.add(Rotation(-rot.c, -rot.s))


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
    assert poly.ratio_at(0, derivative=True)[0] == 0


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


def _nine_digit_nodes(rng):
    # x = 0 half the time, negative x half the time, nine-digit denominators,
    # and jets beside plain values
    def nine():
        return Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(10 ** 8, 10 ** 9 - 1))
    xs, size = ({0} if rng.random() < 0.5 else set()), rng.randint(2, 6)
    while len(xs) < size:
        xs.add(-abs(nine()) if rng.random() < 0.5 else nine())
    return [(x, nine(), nine()) if rng.random() < 0.5 else (x, nine()) for x in sorted(xs)]


def test_interpolate_random_agreement():
    # Exact agreement with the divided-difference oracle: values only, mixed
    # jets and jets only, up to 14 equations, heights up to 10^6; then x = 0
    # (every power of x but the first vanishes), negative x and nine-digit
    # denominators, with jets beside plain values.
    rng = random.Random(8)
    cases = [[], [(0, 0, 0)], [(Fraction(-7, 3), 5, Fraction(2, 9))]]
    for _ in range(150):
        cases.append(_random_nodes(rng, rng.randint(1, 14), rng.choice((6, 10 ** 3, 10 ** 6)),
                                   rng.choice((0, 0.5, 1))))
    cases += [[(0, 1)], [(0, 0, 5)], [(0, 1, 0), (-1, 2)], [(-3, 1, 2), (0, -1)],
              [(Fraction(-1, 123456789), 3, -2), (0, 1), (Fraction(7, 999999999), 5, 1)]]
    cases += [_nine_digit_nodes(rng) for _ in range(40)]
    assert sum(node[0] == 0 and len(node) > 2 for nodes in cases[-40:] for node in nodes) > 5
    for nodes in cases:
        poly = interpolate(nodes)
        assert poly == support.hermite_interpolate(nodes)
        assert len(poly.coeffs) - 1 < sum(len(node) - 1 for node in nodes)
        for node in nodes:
            assert poly.evaluate(node[0]) == node[1]
            if len(node) > 2:
                assert Fraction(*poly.ratio_at(node[0], derivative=True)) == node[2]


def test_interpolate_matches_sympy_on_values():
    # sympy.interpolate, which shares no code with the library or with the
    # divided-difference oracle, on value-only nodes: 1-6 nodes at heights 6,
    # 10^3 and 10^9, x = 0 in half the cases, and negative x.
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(31)
    zero_nodes = 0
    for _ in range(30):
        height = rng.choice((6, 10 ** 3, 10 ** 9))
        xs = {0} if rng.random() < 0.5 else set()
        xs |= {random_fraction(rng, height) for _ in range(rng.randint(1, 6) - len(xs))}
        nodes = [(x, random_fraction(rng, height)) for x in sorted(xs)]
        expected = sympy.Poly(sympy.interpolate(
            [(sympy.Rational(x.numerator, x.denominator), sympy.Rational(v.numerator, v.denominator))
             for x, v in nodes], t), t).all_coeffs()[::-1]
        expected = [Fraction(int(c.p), int(c.q)) for c in expected]
        while expected and expected[-1] == 0:
            expected.pop()
        assert interpolate(nodes).coeffs == tuple(expected), nodes
        zero_nodes += 0 in xs
    assert zero_nodes >= 10


def test_interpolate_hands_integer_rows_to_solve_linear(monkeypatch):
    systems = []

    def recording(rows, rhs):
        systems.append(rows)
        return solve_linear(rows, rhs)

    monkeypatch.setattr(tw, "solve_linear", recording)
    nodes = [(0, 1, 2), (Fraction(-3, 7), 5), (Fraction(2, 123456789), Fraction(1, 3), 4)]
    assert interpolate(nodes) == support.hermite_interpolate(nodes)
    assert len(systems) == 1 and len(systems[0]) == 5
    assert all(type(v) is int for row in systems[0] for v in row)


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


# A quarter turn over each fiber of the unit model, as a (source, target)
# pair for synthesize_twist: Q(1/2) = 1/4 and Q(1/3) = 2/9.
FIBER_PAIRS = {
    Fraction(1, 2): (SurfPoint(Fraction(1, 2), Fraction(1, 2), 0),
                     SurfPoint(Fraction(1, 2), 0, Fraction(1, 2))),
    Fraction(1, 3): (SurfPoint(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
                     SurfPoint(Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3))),
}


def _twist_via(entry, model, xs, pins=(), jets=()):
    """The twist with a quarter turn over each x of xs, prescribed as
    rotations or transported as point pairs."""
    if entry == "rotations":
        return twist_from_rotations(model, [(x, QUARTER) for x in xs], pins=pins, jets=jets)
    return synthesize_twist(model, [FIBER_PAIRS[x] for x in xs], pins=pins, jets=jets)


@pytest.mark.parametrize("entry", ["rotations", "pairs"])
@pytest.mark.parametrize("xs, pins, jets, error, message", [
    ([Fraction(1, 2), Fraction(1, 2)], (), (),
     DuplicateNode, "two rotations prescribed over x = 1/2"),
    ([Fraction(1, 2)], (), [(Fraction(1, 2), 1)],
     PinCollision, "jet node x = 1/2 collides with a transported fiber"),
    ([], (), [(Fraction(1, 4), 1), (Fraction(1, 4), 2)],
     DuplicateNode, "two jets prescribed at x = 1/4"),
    ([], (), [(Fraction(2), 1)], EmptyOrSingularFiber, "jet fiber Q(2) <= 0"),
    ([], (), [(Fraction(0), 1)], EmptyOrSingularFiber, "jet fiber Q(0) <= 0"),
    ([], [Fraction(-1, 3)], (),
     EmptyOrSingularFiber, "pin x = -1/3 is outside the interval image"),
    ([Fraction(1, 2)], [Fraction(1, 2)], (),
     PinCollision, "pin x = 1/2 collides with a transported fiber"),
    # nodes are checked before jets, and jets before pins
    ([Fraction(1, 2), Fraction(1, 2)], (), [(Fraction(2), 1)],
     DuplicateNode, "two rotations prescribed over x = 1/2"),
    ([Fraction(1, 3)], [Fraction(1, 3)], [(Fraction(1, 3), 1)],
     PinCollision, "jet node x = 1/3 collides with a transported fiber"),
    ([], [Fraction(3)], [(Fraction(2), 1)], EmptyOrSingularFiber, "jet fiber Q(2) <= 0"),
])
def test_twist_constraint_errors(entry, xs, pins, jets, error, message):
    with pytest.raises(error) as got:
        _twist_via(entry, unit_model(), xs, pins, jets)
    assert type(got.value) is error and str(got.value) == message


@pytest.mark.parametrize("entry", ["rotations", "pairs"])
def test_twist_drops_repeated_pins_and_pins_on_jet_fibers(entry):
    # a pin on a root is allowed, Q = 0 there
    model, jets = unit_model(), [(Fraction(1, 4), Fraction(1))]
    plain = _twist_via(entry, model, [Fraction(1, 2)], [Fraction(0)], jets)
    for pins in ([Fraction(0), Fraction(0)], [Fraction(0), Fraction(1, 4)],
                 [Fraction(1, 4), Fraction(0), Fraction(1, 4), Fraction(0)]):
        assert _twist_via(entry, model, [Fraction(1, 2)], pins, jets) == plain
    assert _twist_via(entry, model, [Fraction(1, 2)], [], jets) != plain


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
    d = support.reference_derivative
    derivative = d(numer) * denom - numer * d(denom)
    x0 = Fraction(x0)
    return derivative.evaluate(x0) / (denom.evaluate(x0) ** 2)


def test_tangent_coefficient_matches_quotient_rule():
    rng = random.Random(17)
    bases = [rotation_from_param(Fraction(k, k + 1)) for k in range(5)]
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


def circle_point(rho):
    got = _circle_solution(rho.numerator, rho.denominator)
    return got and (Fraction(got[0], rho.denominator), Fraction(got[1], rho.denominator))


def test_circle_scan_matches_reference_on_every_small_integer():
    for n in range(-3, 20001):
        assert circle_point(Fraction(n)) == reference_circle_point(n), n


def test_circle_scan_matches_reference_on_random_rationals():
    rng = random.Random(23)
    for _ in range(600):
        den = rng.randint(1, 120)
        if rng.random() < 0.5:
            # a sum of two squares over a square, so that hits are common
            rho = Fraction(rng.randint(0, 300) ** 2 + rng.randint(0, 300) ** 2, den * den)
        else:
            rho = Fraction(rng.randint(-10, 10 ** 5), den)
        assert circle_point(rho) == reference_circle_point(rho), rho


@pytest.mark.parametrize("n", [
    9999999929,         # a prime = 1 mod 4 above the trial bound: a hit
    9999999967,         # a prime = 3 mod 4 above the trial bound: a miss
    99991 ** 2,         # p^2 with p = 3 mod 4: a hit
    99991 * 99971,      # p q with p = q = 3 mod 4, both above the bound: rho, a miss
    99989 * 99961,      # p q with p = q = 1 mod 4, both above the bound: rho, a hit
], ids=["prime-1-mod-4", "prime-3-mod-4", "prime-square", "rho-miss", "rho-hit"])
def test_circle_scan_matches_reference_past_trial_division(n):
    for rho in (Fraction(n), Fraction(1, n)):
        assert circle_point(rho) == reference_circle_point(rho), rho


def test_circle_scan_matches_reference_on_random_large_integers():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(20001, 10 ** 10)
        assert circle_point(Fraction(n)) == reference_circle_point(n), n


@pytest.mark.parametrize("n", [
    2 ** 3 * 5 ** 3 * 13 ** 2 * 17 * 29 * 37,  # 3,082,729,000: 96 Gaussian products
    2 * 5 * 13 * 17 * 29 * 37 * 41 * 53,       # seven split primes: 128 products
    *[2 ** k for k in range(34)],
    3 ** 2 * 5, 7 ** 2 * 13 * 17, 11 ** 4 * 5 ** 2, 19 ** 2 * 2 ** 5 * 9973,
    4999 ** 2 * 397, 3 ** 20,                  # 4999 = 3 mod 4, 397 = 1 mod 4
    3 * 5 ** 2, 7 ** 3 * 13,                   # an odd power of 3 mod 4: misses
    10 ** 10, 10 ** 10 - 1, 10 ** 10 + 1,      # the cutoff edges
    0,                                         # a root fiber: the origin
], ids=str)
def test_circle_point_matches_reference_where_the_factorization_is_rich(n):
    assert circle_point(Fraction(n)) == reference_circle_point(n), n


def test_circle_solution_matches_sympy_sum_of_squares():
    # An oracle that shares no code with the Gaussian kernel: the least s of
    # s^2 + t^2 = n, or no representation at all, as sympy finds them.
    sum_of_squares = pytest.importorskip("sympy.solvers.diophantine.diophantine").sum_of_squares
    rng = random.Random(61)
    split, inert = [5, 13, 17, 29, 37, 41, 53, 97, 101, 9973], [3, 7, 11, 19, 4999, 99991]
    ns = [2 ** k for k in range(34)]
    ns += [q ** k for q in inert for k in range(1, 21) if q ** k <= 10 ** 10]
    while len(ns) < 160:
        # factor-rich: split primes, a power of 2 and of a 3 mod 4 prime
        n = 2 ** rng.randint(0, 5) * rng.choice(inert) ** rng.randint(0, 3)
        for p in rng.sample(split, rng.randint(1, 5)):
            n *= p ** rng.randint(1, 3)
        if n <= 10 ** 10:
            ns.append(n)
    ns += [rng.randint(1, 10 ** 10) for _ in range(30)]
    misses = 0
    for n in ns:
        # sympy yields each representation once, as a sorted pair
        least = min((s for s, _ in sum_of_squares(n, 2, zeros=True)), default=None)
        expected = None if least is None else (least, isqrt(n - least * least))
        assert _circle_solution(n, 1) == expected, n
        misses += expected is None
    assert 40 < misses < len(ns) - 40, misses


@pytest.mark.parametrize("n", [99989 * 99961, 99991 * 99971, 99989 * 99961 * 4])
def test_circle_point_past_the_factoring_budget_is_the_scans(monkeypatch, n):
    # With no Pollard rho steps allowed, _factor gives up on p q with both
    # primes past trial division, and the circle search falls back to its scan.
    monkeypatch.setattr(pj, "_RHO_BUDGET", 0)
    assert pj._factor(n) is None
    assert circle_point(Fraction(n)) == reference_circle_point(n), n


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
    # Same list, repeated fibers included, from the reference's point
    # searches in the same order, less every revisit of a fiber: the
    # intervals are disjoint, so a repeated x is a revisit within one walk.
    searched = []
    search = tw.find_fiber_point

    def recording(model, x):
        searched.append(x)
        return search(model, x)

    monkeypatch.setattr(tw, "find_fiber_point", recording)
    rng = random.Random(29)
    repeats = revisits = 0
    for _ in range(20):
        height = rng.choice((8, 50, 500, 5000))
        model = support.random_model(rng, rng.randint(1, 3), -height, height)
        searched.clear()
        expected = reference_sample_surface_points(model)
        expected_searches = list(dict.fromkeys(searched))
        revisits += len(searched) - len(expected_searches)
        searched.clear()
        assert sample_surface_points(model) == expected
        assert searched == expected_searches
        xs = [p.x for p in expected[2 * model.r:]]
        repeats += len(xs) != 2 * len(set(xs))
    assert repeats > 0 and revisits > 0


def test_a_ladder_walk_searches_each_fiber_once(monkeypatch):
    # The whole walk yields the first point of every rung that has one, a
    # revisited fiber's point again, from one search per distinct fiber.
    searched = []
    search = tw.find_fiber_point

    def recording(model, x):
        searched.append(x)
        return search(model, x)

    rng = random.Random(31)
    models = [ConicModel((0, 1)), ConicModel((0, 1, 3, 7))]
    models += [support.random_model(rng, rng.randint(1, 3), -50, 50) for _ in range(10)]
    revisited_hits = 0
    for model in models:
        for lo, hi in zip(model.roots[::2], model.roots[1::2]):
            expected = [p for rung in ladder(lo, hi)
                        for p in [next(filter(None, (search(model, x) for x in rung)), None)]
                        if p is not None]
            monkeypatch.setattr(tw, "find_fiber_point", recording)
            searched.clear()
            assert list(ladder_fibers(model, lo, hi)) == expected
            monkeypatch.setattr(tw, "find_fiber_point", search)
            assert len(searched) == len(set(searched)), (model, lo, hi)
            revisited_hits += len(expected) - len({p.x for p in expected})
    assert revisited_hits > 0


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
            got = circle_point(support.reference_q_at(model, x))
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


def _random_roots(rng, r, height):
    roots = set()
    while len(roots) < 2 * r:
        roots.add(random_fraction(rng, height))
    return ConicModel(tuple(sorted(roots)))


def _inside(rng, model):
    """A parameter strictly inside one of the model's intervals, Q > 0 there."""
    i = rng.randrange(model.r)
    lo, hi = model.roots[2 * i], model.roots[2 * i + 1]
    den = rng.randint(2, 16)
    return lo + (hi - lo) * Fraction(rng.randint(1, den - 1), den)


def _sphere_points(rng, model, want):
    """Up to want points of the r = 1 model on distinct fibers with Q > 0:
    the unit-sphere points (1 - s^2 - t^2, 2s, 2t) / (1 + s^2 + t^2), (s, t)
    != (0, 0), scaled by the radius about the centre of [a, b]."""
    a, b = model.roots
    centre, radius = (a + b) / 2, (b - a) / 2
    points = {}
    for _ in range(4 * want):
        s, t = random_fraction(rng, 9), random_fraction(rng, 9)
        if s or t:
            n = 1 + s * s + t * t
            x = centre + radius * (1 - s * s - t * t) / n
            points.setdefault(x, SurfPoint(x, radius * 2 * s / n, radius * 2 * t / n))
    return list(points.values())[:want]


def _constraint_request(rng):
    """One seeded request (model, pairs, nodes, pins, jets): point pairs for
    synthesize_twist, or pairs None and rotation nodes for
    twist_from_rotations.  r = 1-3, roots of height up to 10^6, and 0-12
    constraints of mixed kinds; a pin may sit on a root, repeat, or fall on
    a jet fiber."""
    r, height = rng.choice((1, 2, 3)), rng.choice((9, 10 ** 3, 10 ** 6))
    n_nodes, n_pins, n_jets = (rng.randint(0, 4) for _ in range(3))
    spins = [QUARTER, HALF, SPIN35, Rotation.identity(),
             rotation_from_param(random_fraction(rng, height))]
    pairs, nodes, pins = None, [], []
    if rng.random() < 0.5:
        if r == 1:
            model = _random_roots(rng, 1, height)
            points = _sphere_points(rng, model, n_nodes)
        elif height == 9:
            model = support.random_model(rng, r)
            points = support.model_fibers_with_points(model, n_nodes)
        else:  # one point, built with the model; on a root it is a pin
            model, point = support.model_through_point(rng, r, height)
            points = [point] if model.q_at(point.x) else []
            pins = [] if points else [point.x]
        pairs = [(p, SurfPoint(p.x, *rng.choice(spins).apply(p.y, p.z))) for p in points]
    else:
        model = _random_roots(rng, r, height)
        nodes = [(x, rng.choice(spins)) for x in {_inside(rng, model) for _ in range(n_nodes)}]
    taken = {x for x, _ in nodes} | {p.x for p, _ in pairs or ()}
    jets = {}
    for x0 in (_inside(rng, model) for _ in range(n_jets)):
        if x0 not in taken:
            jets[x0] = random_fraction(rng, height)
    candidates = [*model.roots, *jets, *(_inside(rng, model) for _ in range(4))]
    pins += [b for b in (rng.choice(candidates) for _ in range(n_pins)) if b not in taken]
    return model, pairs, nodes, pins, list(jets.items())


def test_synthesized_twists_meet_every_constraint():
    # Synthesis returns the exact interpolant unchecked; this holds it to
    # every prescribed rotation, transported pair, pin and jet.
    rng = random.Random(31)
    met = Counter()
    for _ in range(240):
        model, pairs, nodes, pins, jets = _constraint_request(rng)
        if pairs is None:
            twist = twist_from_rotations(model, nodes, pins=pins, jets=jets)
        else:
            twist = synthesize_twist(model, pairs, pins=pins, jets=jets)
        for x, rot in nodes:
            assert twist.fiber_rotation(x) == rot
        for p, q in pairs or ():
            assert twist.fiber_rotation(p.x).apply(p.y, p.z) == (q.y, q.z)
        for b in pins:
            assert twist.fiber_rotation(b).is_identity
        for x0, mu0 in jets:
            assert twist.fiber_rotation(x0).is_identity
            assert tangent_coefficient(twist, x0) == 2 * mu0
        met.update(nodes=len(nodes), pairs=len(pairs or ()), pins=len(pins), jets=len(jets))
    assert min(met.values()) >= 150, met


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
