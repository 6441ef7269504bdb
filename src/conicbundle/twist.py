"""Fiberwise rotation automorphisms of a conic-bundle model.

A twisting map acts on the model y^2 + z^2 = Q(x) by rotating every fiber
circle: (x, y, z) -> (x, R(x).(y, z)) where R(x) is a rotation depending
rationally on x.  Here R(x) = R0 * psi(lambda(x)) for a fixed rational base
rotation R0 and the rational parametrization psi(t) of the circle with pole
at (-1, 0); lambda is a polynomial, so the map is defined for every real x
and is exactly invertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .conic_model import ConicModel, SurfPoint, on_surface
from .errors import (
    ChartPole,
    DuplicateNode,
    EmptyOrSingularFiber,
    FiberMismatch,
    InvalidModel,
    NotOnFiber,
    NotOnSurface,
    PinCollision,
    SingularFiberTarget,
)
from .polynomial import RatPoly, solve_linear
from .projline import Rat, _legendre, format_rat, ladder


@dataclass(frozen=True)
class Rotation:
    """A rational rotation (c, s) with c^2 + s^2 = 1."""

    c: Rat
    s: Rat

    def __post_init__(self):
        c, s = (v if isinstance(v, Fraction) else Fraction(v) for v in (self.c, self.s))
        # c^2 + s^2 = 1 in integers: with c = a/h and s = b/k in lowest terms,
        # a^2 k^2 + b^2 h^2 = h^2 k^2 makes h^2 divide a^2 k^2, so h | k, and
        # k | h alike; hence h = k and a^2 + b^2 = h^2, and conversely.
        h = c.denominator
        if s.denominator != h or c.numerator ** 2 + s.numerator ** 2 != h * h:
            raise InvalidModel(f"({c}, {s}) is not on the unit circle")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s", s)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(Fraction(1), Fraction(0))

    @property
    def is_identity(self) -> bool:
        return self.c == 1 and self.s == 0

    def compose(self, other: "Rotation") -> "Rotation":
        # c and s share their denominator, so (a/h, b/h)(a'/k, b'/k) is
        # ((aa' - bb')/hk, (ba' + ab')/hk).
        a, b, h = self.c.numerator, self.s.numerator, self.c.denominator
        a2, b2, k = other.c.numerator, other.s.numerator, other.c.denominator
        return Rotation(Fraction(a * a2 - b * b2, h * k), Fraction(b * a2 + a * b2, h * k))

    def inverse(self) -> "Rotation":
        return Rotation(self.c, -self.s)

    def apply(self, y: Rat, z: Rat) -> Tuple[Rat, Rat]:
        # (c y - s z, s y + c z) over the one denominator h * y2 * z2.
        a, b, h = self.c.numerator, self.s.numerator, self.c.denominator
        y1, y2 = y.as_integer_ratio()
        z1, z2 = z.as_integer_ratio()
        u, v, w = y1 * z2, z1 * y2, h * y2 * z2
        return Fraction(a * u - b * v, w), Fraction(b * u + a * v, w)

    def as_json(self) -> dict:
        return {"c": format_rat(self.c), "s": format_rat(self.s)}


def rotation_from_param(lam: Rat) -> Rotation:
    """psi(lam) = ((1 - lam^2)/(1 + lam^2), 2 lam/(1 + lam^2)), which is
    ((q^2 - p^2)/(q^2 + p^2), 2pq/(q^2 + p^2)) for lam = p/q."""
    p, q = Fraction(lam).as_integer_ratio()
    h = q * q + p * p
    return Rotation(Fraction(q * q - p * p, h), Fraction(2 * p * q, h))


def rotation_between(model: ConicModel, x: Rat, frm: Tuple[Rat, Rat],
                     to: Tuple[Rat, Rat]) -> Rotation:
    """The rotation of the fiber circle over x sending frm to to."""
    rho = model.q_at(x)
    if rho <= 0:
        raise EmptyOrSingularFiber(f"Q({x}) = {rho} <= 0")
    y, z = Fraction(frm[0]), Fraction(frm[1])
    v, w = Fraction(to[0]), Fraction(to[1])
    if y * y + z * z != rho:
        raise NotOnFiber(f"({y}, {z}) is not on the circle of radius^2 {rho}")
    if v * v + w * w != rho:
        raise NotOnFiber(f"({v}, {w}) is not on the circle of radius^2 {rho}")
    return Rotation((y * v + z * w) / rho, (y * w - z * v) / rho)


def chart_param(base: Rotation, phi: Rotation) -> Rat:
    """The parameter lam with base * psi(lam) = phi (tangent half-angle)."""
    rel = base.inverse().compose(phi)
    if rel.c == -1:
        raise ChartPole(f"{phi} sits at the excluded point of the chart")
    return rel.s / (1 + rel.c)


def identity_param(base: Rotation) -> Rat:
    """The parameter whose fiber rotation is the identity."""
    return chart_param(base, Rotation.identity())


def rotation_supply() -> Iterator[Rotation]:
    """Deterministic supply: the identity, then the Pythagorean family."""
    yield Rotation.identity()
    k = 1
    while True:
        h = 2 * k * k + 2 * k + 1
        yield Rotation(Fraction(2 * k + 1, h), Fraction(2 * k * k + 2 * k, h))
        k += 1


def choose_base_rotation(required: Iterable[Rotation]) -> Rotation:
    """First supply rotation whose chart pole avoids id and all required ones."""
    needed = set(required)
    for candidate in rotation_supply():
        pole = Rotation(-candidate.c, -candidate.s)
        if not pole.is_identity and pole not in needed:
            return candidate
    raise AssertionError("unreachable: the supply is infinite")


def interpolate(nodes: Sequence) -> RatPoly:
    """Minimal-degree polynomial through values and optional derivatives.

    Nodes are (x, value) or (x, value, derivative) with pairwise distinct x.
    """
    xs = []
    equations = []
    rhs = []
    for node in nodes:
        x, value = Fraction(node[0]), Fraction(node[1])
        deriv = Fraction(node[2]) if len(node) > 2 and node[2] is not None else None
        if x in xs:
            raise DuplicateNode(f"repeated interpolation node x = {x}")
        xs.append(x)
        equations.append(("v", x, value))
        if deriv is not None:
            equations.append(("d", x, deriv))
    n = len(equations)
    if n == 0:
        return RatPoly.zero()
    rows = []
    for kind, x, target in equations:
        if kind == "v":
            rows.append([x ** j for j in range(n)])
        else:
            rows.append([(j * x ** (j - 1)) if j >= 1 else Fraction(0) for j in range(n)])
        rhs.append(target)
    return RatPoly(tuple(solve_linear(rows, rhs)))


@dataclass(frozen=True)
class TwistMap:
    """base rotation R0 and interpolant lambda; fiber map R0 * psi(lambda(x))."""

    base: Rotation
    lam: RatPoly

    def fiber_rotation(self, x: Rat) -> Rotation:
        return self.base.compose(rotation_from_param(self.lam.evaluate(x)))

    def as_json(self) -> dict:
        return {"base": self.base.as_json(), "lambda": self.lam.as_json()}


def twist_from_rotations(model: ConicModel, rotation_nodes: Sequence,
                         pins: Sequence = (), jets: Sequence = ()) -> TwistMap:
    """Twist realizing prescribed fiber rotations, pinned fibers and jets.

    rotation_nodes: pairs (x, Rotation) on fibers with Q(x) > 0, distinct x.
    pins: fiber parameters in the interval image whose rotation must be the
    identity.  jets: pairs (x0, mu0) demanding the identity rotation at x0
    together with tangent coefficient 2*mu0 (the x-derivative of the sine
    entry of the fiber rotation).
    """
    node_xs = []
    rotations = []
    for x, rot in rotation_nodes:
        x = Fraction(x)
        if model.q_at(x) <= 0:
            raise SingularFiberTarget(f"Q({x}) <= 0: no circle to rotate")
        if x in node_xs:
            raise DuplicateNode(f"two rotations prescribed over x = {x}")
        node_xs.append(x)
        rotations.append(rot)

    jet_list = []
    jet_xs = []
    for x0, mu0 in jets:
        x0, mu0 = Fraction(x0), Fraction(mu0)
        if x0 in node_xs:
            raise PinCollision(f"jet node x = {x0} collides with a transported fiber")
        if x0 in jet_xs:
            raise DuplicateNode(f"two jets prescribed at x = {x0}")
        if model.q_at(x0) <= 0:
            raise EmptyOrSingularFiber(f"jet fiber Q({x0}) <= 0")
        jet_xs.append(x0)
        jet_list.append((x0, mu0))

    pin_list = []
    for b in pins:
        b = Fraction(b)
        if b in node_xs:
            raise PinCollision(f"pin x = {b} collides with a transported fiber")
        if model.q_at(b) < 0:
            raise EmptyOrSingularFiber(f"pin x = {b} is outside the interval image")
        if b not in pin_list and b not in jet_xs:
            pin_list.append(b)

    base = choose_base_rotation(rotations)
    lam_id = identity_param(base)
    nodes = [(x, chart_param(base, rot)) for x, rot in zip(node_xs, rotations)]
    nodes += [(x0, lam_id, 2 * mu0 / (1 + base.c)) for x0, mu0 in jet_list]
    nodes += [(b, lam_id) for b in pin_list]
    twist = TwistMap(base, interpolate(nodes))

    for x, rot in zip(node_xs, rotations):
        if twist.fiber_rotation(x) != rot:
            raise AssertionError(f"twist misses the prescribed rotation over x = {x}")
    for b in pin_list:
        if not twist.fiber_rotation(b).is_identity:
            raise AssertionError(f"twist moves the pinned fiber x = {b}")
    for x0, mu0 in jet_list:
        if not twist.fiber_rotation(x0).is_identity:
            raise AssertionError(f"twist moves the jet fiber x = {x0}")
        if tangent_coefficient(twist, x0) != 2 * mu0:
            raise AssertionError(f"twist misses the prescribed jet at x = {x0}")
    return twist


def synthesize_twist(model: ConicModel, pairs: Sequence,
                     pins: Sequence = (), jets: Sequence = ()) -> TwistMap:
    """Twist transporting each point pair within its fiber, with pins and jets.

    pairs: (p, q) surface points with p.x = q.x and Q(p.x) > 0, the fiber
    parameters pairwise distinct.  pins and jets as in twist_from_rotations.
    """
    rotation_nodes = []
    for p, q in pairs:
        if not on_surface(model, p):
            raise NotOnSurface(f"source point ({p.x}, {p.y}, {p.z}) is off the surface")
        if not on_surface(model, q):
            raise NotOnSurface(f"target point ({q.x}, {q.y}, {q.z}) is off the surface")
        if p.x != q.x:
            raise FiberMismatch(f"pair spans two fibers: x = {p.x} vs x = {q.x}")
        if model.q_at(p.x) <= 0:
            raise SingularFiberTarget(f"Q({p.x}) <= 0: transport needs a circle")
        rotation_nodes.append((p.x, rotation_between(model, p.x, (p.y, p.z), (q.y, q.z))))
    return twist_from_rotations(model, rotation_nodes, pins=pins, jets=jets)


def apply_twist(model: ConicModel, twist: TwistMap, p: SurfPoint) -> SurfPoint:
    """Rotate the point within its fiber; exact and surface-preserving."""
    if not on_surface(model, p):
        raise NotOnSurface(f"({p.x}, {p.y}, {p.z}) is not on the surface")
    y, z = twist.fiber_rotation(p.x).apply(p.y, p.z)
    return SurfPoint(p.x, y, z)


def inverse_twist(twist: TwistMap) -> TwistMap:
    """The exact inverse: invert the base and negate the interpolant."""
    return TwistMap(twist.base.inverse(), -twist.lam)


def tangent_coefficient(twist: TwistMap, x0: Rat) -> Rat:
    """d/dx of the sine entry of the fiber rotation, evaluated at x0.

    At a fiber where the rotation is the identity this is the coefficient
    kappa of the linearized action [y] -> [y] - kappa [x] on the blown-up
    directions.
    """
    # The sine entry is (s (1 - l^2) + 2 c l) / (1 + l^2) with l = lambda(x)
    # and (c, s) the base rotation; its l-derivative is
    # (2 c (1 - l^2) - 4 s l) / (1 + l^2)^2, times lambda'(x) by the chain rule.
    x0 = Fraction(x0)
    lam = twist.lam.evaluate(x0)
    c, s = twist.base.c, twist.base.s
    return (twist.lam.derivative().evaluate(x0)
            * (2 * c * (1 - lam * lam) - 4 * s * lam) / (1 + lam * lam) ** 2)


_CIRCLE_BOUND = 10 ** 10  # largest num * den of rho the circle search tries


def _circle_solution(num: int, den: int) -> Optional[Tuple[int, int]]:
    # Integers (s, t) with s^2 + t^2 = num * den, i.e. the point (s/den, t/den)
    # on y^2 + z^2 = num/den (lowest terms, den > 0), if the bounded search
    # finds one; there is one exactly when n = num * den is a sum of two
    # integer squares.
    if num <= 0:
        return (0, 0) if num == 0 else None
    n = num * den
    if n > _CIRCLE_BOUND or _legendre(1, 1, -n) is False:
        return None
    # The first hit has s <= t, else (t, s) came first; so s^2 <= n / 2.
    for s in range(isqrt(n // 2) + 1):
        rest = n - s * s
        t = isqrt(rest)
        if t * t == rest:
            return s, t
    return None


def find_fiber_point(model: ConicModel, x: Rat) -> Optional[SurfPoint]:
    """A rational surface point over x, when the fiber circle has one.

    A miss is decided on the integers of Q(x) and builds no Fraction."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    num, den = model.q_ratio(x)
    g = gcd(num, den)
    num, den = num // g, den // g
    got = _circle_solution(num, den)
    if got is None:
        return None
    return SurfPoint(x, Fraction(got[0], den), Fraction(got[1], den))


def ladder_fibers(model: ConicModel, lo: Rat, hi: Rat) -> Iterator[SurfPoint]:
    """The first rational fiber point on each rung of ladder(lo, hi); for
    consecutive roots lo < hi each lies on a circle, as Q > 0 between them.
    Two rungs can share a fiber (2/4 = 1/2)."""
    for rung in ladder(lo, hi):
        for x in rung:
            p = find_fiber_point(model, x)
            if p is not None:
                yield p
                break


def sample_surface_points(model: ConicModel) -> list:
    """Deterministic rational sample: the root points, then the first two
    ladder fibers of each interval, each point with its spun copy."""
    points = [SurfPoint(a, 0, 0) for a in model.roots]
    spin = Rotation(Fraction(3, 5), Fraction(4, 5))
    for lo, hi in zip(model.roots[::2], model.roots[1::2]):
        for p in islice(ladder_fibers(model, lo, hi), 2):
            points += [p, SurfPoint(p.x, *spin.apply(p.y, p.z))]
    return points


@dataclass(frozen=True)
class TwistReport:
    """Outcome of the exactness certificate for a twisting map."""

    passed: bool
    failures: tuple
    points_checked: int

    def as_json(self) -> dict:
        return {"passed": self.passed, "failures": list(self.failures),
                "points_checked": self.points_checked}


def verify_twist(model: ConicModel, twist: TwistMap) -> TwistReport:
    """Certify membership preservation and invertibility on sampled points.

    The base rotation R0 is on the unit circle by construction (`Rotation`
    rejects any other), and psi(lambda(x)) is a rotation for every lambda,
    so neither needs a check here.
    """
    failures = []
    inv = inverse_twist(twist)
    points = sample_surface_points(model)
    for p in points:
        y, z = twist.fiber_rotation(p.x).apply(p.y, p.z)
        if not on_surface(model, SurfPoint(p.x, y, z)):
            failures.append(f"membership broken over x = {p.x}")
            continue
        if inv.fiber_rotation(p.x).apply(y, z) != (p.y, p.z):
            failures.append(f"inverse does not undo the twist over x = {p.x}")
    return TwistReport(not failures, tuple(failures), len(points))
