"""Fiberwise rotation automorphisms of a conic-bundle model.

A twisting map acts on the model y^2 + z^2 = Q(x) by rotating every fiber
circle: (x, y, z) -> (x, R(x).(y, z)) where R(x) is a rotation depending
rationally on x.  Here R(x) = R0 * psi(lambda(x)) for a fixed rational base
rotation R0 and the rational parametrization psi(t) of the circle with pole
at (-1, 0); lambda is a polynomial, so the map is defined for every real x
and is exactly invertible.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import isqrt
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .conic_model import ConicModel, SurfPoint, on_circle, on_surface
from .errors import (
    ChartPole,
    DuplicateNode,
    EmptyOrSingularFiber,
    FiberMismatch,
    InvalidModel,
    NotOnSurface,
    PinCollision,
    SingularFiberTarget,
    Value,
)
from .polynomial import RatPoly, solve_linear
from .projline import (Rat, _factor, as_rat, as_ratio, format_rat, ladder, primitive, quote_rat,
                       quote_rats)


class Rotation(Value):
    """A rational rotation c + is, held as the primitive Gaussian integer
    z = q + ip (q > 0, or z = i) with c + is = z^2 / (q^2 + p^2).  By Hilbert
    90 for Q(i)/Q every rotation is such a z and every z != 0 a rotation, so
    no arithmetic below checks the circle; p/q is the half-angle tangent."""

    __slots__ = ("q", "p")

    def __init__(self, c: Rat, s: Rat):
        """The rotation (c, s); the one check that c^2 + s^2 = 1."""
        # c^2 + s^2 = 1 in integers: with c = a/h and s = b/k in lowest terms,
        # a^2 k^2 + b^2 h^2 = h^2 k^2 makes h^2 divide a^2 k^2, so h | k, and
        # k | h alike; hence h = k and a^2 + b^2 = h^2, and conversely.
        (a, h), (b, k) = as_ratio(c), as_ratio(s)
        if k != h or a * a + b * b != h * h:
            raise InvalidModel(f"{quote_rats(c, s)} is not on the unit circle")
        # z = (h + a) + ib: (h + a)^2 - b^2 = 2a(h + a) and N(z) = 2h(h + a)
        super().__init__(*Rotation._of(h + a, b)._key)

    @classmethod
    def _of(cls, q: int, p: int) -> "Rotation":
        """The rotation of z = q + ip, unchecked; z = 0 (c = -1, a half-turn transport) is i."""
        rot = cls.__new__(cls)
        Value.__init__(rot, *(primitive(q, p) if q or p else (0, 1)))
        return rot

    @staticmethod
    def identity() -> "Rotation":
        return Rotation._of(1, 0)

    @property
    def is_identity(self) -> bool:
        return self.p == 0

    c = property(lambda self: Fraction(self.q ** 2 - self.p ** 2, self.q ** 2 + self.p ** 2))
    s = property(lambda self: Fraction(2 * self.q * self.p, self.q ** 2 + self.p ** 2))

    def compose(self, other: "Rotation") -> "Rotation":
        return Rotation._of(*_gauss_mul((self.q, self.p), (other.q, other.p)))

    def inverse(self) -> "Rotation":
        return Rotation._of(self.q, -self.p)

    def apply(self, y: Rat, z: Rat) -> Tuple[Rat, Rat]:
        # (c y - s z, s y + c z) over one denominator, c = a/h and s = b/h unreduced
        a, b, h = self.q ** 2 - self.p ** 2, 2 * self.q * self.p, self.q ** 2 + self.p ** 2
        (y1, y2), (z1, z2) = y.as_integer_ratio(), z.as_integer_ratio()
        u, v, w = y1 * z2, z1 * y2, h * y2 * z2
        return Fraction(a * u - b * v, w), Fraction(b * u + a * v, w)

    def as_json(self) -> dict:
        return {"c": format_rat(self.c), "s": format_rat(self.s)}


def rotation_from_param(lam: Rat) -> Rotation:
    """psi(lam) = ((1 - lam^2)/(1 + lam^2), 2 lam/(1 + lam^2)), the Gaussian
    integer q + ip for lam = p/q."""
    p, q = as_ratio(lam)
    return Rotation._of(q, p)


def _transport(num: int, den: int, frm: Tuple[Rat, Rat], to: Tuple[Rat, Rat]) -> Rotation:
    # Unchecked.  (v + iw)(y - iz) = rho (c + is) for rho = num/den; rho (1 + c + is),
    # 0 exactly for the half turn, times den y2 z2 v2 w2 > 0 is an integer multiple of z.
    (y1, y2), (z1, z2) = frm[0].as_integer_ratio(), frm[1].as_integer_ratio()
    (v1, v2), (w1, w2) = to[0].as_integer_ratio(), to[1].as_integer_ratio()
    yv, zw = y2 * v2, z2 * w2
    return Rotation._of(num * yv * zw + den * (y1 * v1 * zw + z1 * w1 * yv),
                        den * (y1 * w1 * z2 * v2 - z1 * v1 * y2 * w2))


def chart_param(base: Rotation, phi: Rotation) -> Rat:
    """The parameter lam with base * psi(lam) = phi: p/q of conj(z_base) z_phi."""
    rel = base.inverse().compose(phi)
    if rel.q == 0:
        raise ChartPole(f"rotation {phi.as_json()} sits at the excluded point of the chart")
    return Fraction(rel.p, rel.q)


def choose_base_rotation(required: Iterable[Rotation]) -> Rotation:
    """The first base (k + 1) + ik, k = 0, 1, ..., whose chart pole, the
    rotation i z, is not required.  No pole is the identity."""
    needed = set(required)
    return next(Rotation._of(k + 1, k) for k in count() if Rotation._of(-k, k + 1) not in needed)


def interpolate(nodes: Sequence) -> RatPoly:
    """Minimal-degree polynomial through values and optional derivatives.

    Nodes are (x, value) or (x, value, derivative) with pairwise distinct x.
    """
    n = sum(2 if len(node) > 2 and node[2] is not None else 1 for node in nodes)
    if n == 0:
        return RatPoly.zero()
    xs, rows, rhs = [], [], []
    for node in nodes:
        x, value = as_rat(node[0]), as_rat(node[1])
        deriv = as_rat(node[2]) if len(node) > 2 and node[2] is not None else None
        if x in xs:
            raise DuplicateNode(f"repeated interpolation node x = {quote_rat(x)}")
        xs.append(x)
        # the rows of x^j and j x^(j - 1), and their targets, times q^(n - 1) for x = p/q
        p, q = x.as_integer_ratio()
        row = [p ** j * q ** (n - 1 - j) for j in range(n)]
        rows.append(row)
        rhs.append(value * row[0])
        if deriv is not None:
            rows.append([0, *(j * v for j, v in enumerate(row[:-1], 1))])
            rhs.append(deriv * row[0])
    return RatPoly(tuple(solve_linear(rows, rhs)))


class TwistMap(Value):
    """base rotation R0 and interpolant lambda; fiber map R0 * psi(lambda(x))."""

    __slots__ = ("base", "lam")

    def fiber_rotation(self, x: Rat) -> Rotation:
        # psi(num/den) is the Gaussian integer den + i num
        num, den = self.lam.ratio_at(x)
        return Rotation._of(*_gauss_mul((self.base.q, self.base.p), (den, num)))

    def as_json(self) -> dict:
        return {"base": self.base.as_json(), "lambda": self.lam.as_json()}


def twist_from_rotations(model: ConicModel, rotation_nodes: Sequence,
                         pins: Sequence = (), jets: Sequence = ()) -> TwistMap:
    """Twist realizing prescribed fiber rotations, pinned fibers and jets.

    rotation_nodes: pairs (x, Rotation) on fibers with Q(x) > 0, distinct x.
    pins: fiber parameters in the interval image whose rotation must be the
    identity.  jets: pairs (x0, mu0) demanding the identity rotation at x0
    together with tangent coefficient 2*mu0, which is 2 lambda'/(1 + lambda^2)
    there: the jet row asks lambda'(x0) = mu0 (1 + lambda(x0)^2).
    """
    rotations = {}  # x -> its Rotation, in the order given
    for x, rot in rotation_nodes:
        x = as_rat(x)
        if model.q_ratio(x)[0] <= 0:
            raise SingularFiberTarget(f"Q({quote_rat(x)}) <= 0: no circle to rotate")
        if x in rotations:
            raise DuplicateNode(f"two rotations prescribed over x = {quote_rat(x)}")
        rotations[x] = rot

    jet_mus = {}
    for x0, mu0 in jets:
        x0, mu0 = as_rat(x0), as_rat(mu0)
        if x0 in rotations:
            raise PinCollision(f"jet node x = {quote_rat(x0)} collides with a transported fiber")
        if x0 in jet_mus:
            raise DuplicateNode(f"two jets prescribed at x = {quote_rat(x0)}")
        if model.q_ratio(x0)[0] <= 0:
            raise EmptyOrSingularFiber(f"jet fiber Q({quote_rat(x0)}) <= 0")
        jet_mus[x0] = mu0

    pinned = {}  # a repeated pin, or one on a jet fiber, adds nothing
    for b in pins:
        b = as_rat(b)
        if b in rotations:
            raise PinCollision(f"pin x = {quote_rat(b)} collides with a transported fiber")
        if model.q_ratio(b)[0] < 0:
            raise EmptyOrSingularFiber(f"pin x = {quote_rat(b)} is outside the interval image")
        if b not in jet_mus:
            pinned[b] = None

    base = choose_base_rotation(rotations.values())
    lam_id = chart_param(base, Rotation.identity())
    nodes = [(x, chart_param(base, rot)) for x, rot in rotations.items()]
    nodes += [(x0, lam_id, mu0 * (1 + lam_id * lam_id)) for x0, mu0 in jet_mus.items()]
    nodes += [(b, lam_id) for b in pinned]
    twist = TwistMap(base, interpolate(nodes))

    for x, rot in rotations.items():
        if twist.fiber_rotation(x) != rot:
            raise AssertionError(f"twist misses the prescribed rotation over x = {x}")
    for b in pinned:
        if not twist.fiber_rotation(b).is_identity:
            raise AssertionError(f"twist moves the pinned fiber x = {b}")
    for x0, mu0 in jet_mus.items():
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
        num, den = model.q_ratio(p.x)  # once per pair; a target off p's fiber reads its own
        same = q.x == p.x
        for role, point, fiber in (("source", p, (num, den)),
                                   ("target", q, (num, den) if same else model.q_ratio(q.x))):
            if not on_circle(*fiber, point.y, point.z):
                raise NotOnSurface(f"{role} point {quote_rats(point.x, point.y, point.z)}"
                                   " is off the surface")
        if not same:
            raise FiberMismatch(f"pair spans two fibers: x = {quote_rat(p.x)}"
                                f" vs x = {quote_rat(q.x)}")
        if num <= 0:
            raise SingularFiberTarget(f"Q({quote_rat(p.x)}) <= 0: transport needs a circle")
        rotation_nodes.append((p.x, _transport(num, den, (p.y, p.z), (q.y, q.z))))
    return twist_from_rotations(model, rotation_nodes, pins=pins, jets=jets)


def apply_twist(model: ConicModel, twist: TwistMap, p: SurfPoint) -> SurfPoint:
    """Rotate the point within its fiber; exact and surface-preserving."""
    if not on_surface(model, p):
        raise NotOnSurface(f"{quote_rats(p.x, p.y, p.z)} is not on the surface")
    y, z = twist.fiber_rotation(p.x).apply(p.y, p.z)
    return SurfPoint(p.x, y, z)


def inverse_twist(twist: TwistMap) -> TwistMap:
    """The exact inverse: invert the base and negate the interpolant."""
    return TwistMap(twist.base.inverse(), -twist.lam)


def tangent_coefficient(twist: TwistMap, x0: Rat) -> Rat:
    """d/dx of the sine entry of the fiber rotation, evaluated at x0.

    At a fiber where the rotation is the identity this is the coefficient
    kappa of the linearized action [y] -> [y] - kappa [x] on the blown-up
    directions.  The fiber rotation q + ip has angle theta0 + 2 atan lambda(x),
    so kappa = 2 cos theta lambda'/(1 + lambda^2), cos theta = (q^2 - p^2)/(q^2 + p^2).
    """
    num, den = twist.lam.ratio_at(x0)
    dnum, dden = twist.lam.ratio_at(x0, derivative=True)
    q, p = _gauss_mul((twist.base.q, twist.base.p), (den, num))  # fiber_rotation, unreduced
    return Fraction(2 * (q * q - p * p) * dnum * den * den,
                    (q * q + p * p) * dden * (den * den + num * num))


_CIRCLE_BOUND = 10 ** 10  # largest num * den of rho the circle search tries


def _circle_solution(num: int, den: int) -> Optional[Tuple[int, int]]:
    # The least s, with its t, such that s^2 + t^2 = num * den and
    # 0 <= s <= t: the point (s/den, t/den) on y^2 + z^2 = num/den (lowest
    # terms, den > 0), or None when n = num * den is past the bound or not a
    # sum of two integer squares.
    if num <= 0:
        return (0, 0) if num == 0 else None
    n = num * den
    if n > _CIRCLE_BOUND:
        return None
    factors = _factor(n)
    if factors is None:
        return _circle_scan(n)
    # Every z = x + iy with x^2 + y^2 = n is, up to a unit, the product of
    # (1 + i)^e for p = 2, of q^(e/2) for each q = 3 mod 4 (odd e: no z at
    # all) and of pi^k conj(pi)^(e - k), 0 <= k <= e, for each p = 1 mod 4.
    base, zs = (1, 0), [(1, 0)]
    for p, e in factors.items():
        if p % 4 == 3:
            if e % 2:
                return None
            base = (base[0] * p ** (e // 2), base[1] * p ** (e // 2))
        elif p == 2:
            for _ in range(e):
                base = (base[0] - base[1], base[0] + base[1])
        else:
            zs = [_gauss_mul(z, w) for z in zs for w in _gauss_splits(p, e)]
    s = min(min(abs(a), abs(b)) for a, b in (_gauss_mul(base, z) for z in zs))
    return s, isqrt(n - s * s)


def _circle_scan(n: int) -> Optional[Tuple[int, int]]:
    # The first hit has s <= t, else (t, s) came first; so s^2 <= n / 2.
    for s in range(isqrt(n // 2) + 1):
        rest = n - s * s
        t = isqrt(rest)
        if t * t == rest:
            return s, t
    return None


def _gauss_mul(z: Tuple[int, int], w: Tuple[int, int]) -> Tuple[int, int]:
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def _gauss_splits(p: int, e: int) -> list:
    # pi^k conj(pi)^(e - k) for k = 0..e, where p = pi conj(pi) with
    # pi = u + vi (Hermite-Serret: in Euclid's algorithm on p and a square
    # root of -1 mod p, the first two remainders below sqrt(p) are u and v).
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    a, b = p, pow(c, (p - 1) // 4, p)
    while b * b > p:
        a, b = b, a % b
    pi = (b, a % b)
    powers = [(1, 0)]
    for _ in range(e):
        powers.append(_gauss_mul(powers[-1], pi))
    return [_gauss_mul(powers[k], (powers[e - k][0], -powers[e - k][1])) for k in range(e + 1)]


def find_fiber_point(model: ConicModel, x: Rat) -> Optional[SurfPoint]:
    """A rational surface point over x, when the fiber circle has one.

    A miss is decided on the integers of Q(x) and builds no Fraction."""
    den, num = primitive(*model.q_ratio(x)[::-1])  # den > 0 leads, so it stays positive
    got = _circle_solution(num, den)
    if got is None:
        return None
    return SurfPoint(x, Fraction(got[0], den), Fraction(got[1], den))


def ladder_fibers(model: ConicModel, lo: Rat, hi: Rat) -> Iterator[SurfPoint]:
    """The first rational fiber point on each rung of ladder(lo, hi); for
    consecutive roots lo < hi each lies on a circle, as Q > 0 between them.
    Two rungs can share a fiber (2/4 = 1/2): the walk searches it once, and
    yields its point again on every rung it comes first."""
    searched = {}  # (num, den) of x -> the search's outcome
    for rung in ladder(lo, hi):
        for x in rung:
            key = x.as_integer_ratio()
            if key in searched:
                p = searched[key]
            else:
                p = searched[key] = find_fiber_point(model, x)
            if p is not None:
                yield p
                break


def sample_surface_points(model: ConicModel) -> list:
    """Deterministic rational sample: the root points, then the first two
    ladder fibers of each interval, each point with its spun copy."""
    points = [SurfPoint(a, 0, 0) for a in model.roots]
    spin = rotation_from_param(Fraction(1, 2))
    for lo, hi in zip(model.roots[::2], model.roots[1::2]):
        for p in islice(ladder_fibers(model, lo, hi), 2):
            points += [p, SurfPoint(p.x, *spin.apply(p.y, p.z))]
    return points


class TwistReport(Value):
    """Outcome of the exactness certificate for a twisting map."""

    __slots__ = ("passed", "failures", "points_checked")

    def as_json(self) -> dict:
        return {"passed": self.passed, "failures": list(self.failures),
                "points_checked": self.points_checked}


def verify_twist(model: ConicModel, twist: TwistMap) -> TwistReport:
    """Certify membership preservation and invertibility on sampled points.

    Every fiber map is a rotation by construction (see `Rotation`), so none
    is checked here.  Q(x) and both rotations are computed once per distinct
    sampled fiber; every sampled point is still checked.
    """
    failures = []
    inv = inverse_twist(twist)
    points = sample_surface_points(model)
    fibers = {}  # (num, den) of x -> (q_ratio(x), rotation, inverse rotation)
    for p in points:
        key = p.x.as_integer_ratio()
        if key not in fibers:
            fibers[key] = (model.q_ratio(p.x), twist.fiber_rotation(p.x), inv.fiber_rotation(p.x))
        rho, rot, back = fibers[key]
        y, z = rot.apply(p.y, p.z)
        if not on_circle(*rho, y, z):
            failures.append(f"membership broken over x = {p.x}")
            continue
        if back.apply(y, z) != (p.y, p.z):
            failures.append(f"inverse does not undo the twist over x = {p.x}")
    return TwistReport(not failures, tuple(failures), len(points))
