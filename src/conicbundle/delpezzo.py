"""The degree-2 del Pezzo double-conic model and its Geiser involution.

The surface is {x^2 m1(a,b) + y^2 m2(a,b) + z^2 m3(a,b) = 0} inside
P^2 x P^1, for three binary quadratic forms whose product has six distinct
roots.  Projection to P^1 is a conic bundle; projection to P^2 is a double
cover whose deck transformation (computed here by Vieta conjugation on the
fiber quadratic) exchanges the two roots over each plane point and yields
the second conic bundle structure.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import isqrt
from typing import Optional, Tuple

from .errors import (
    ImageIsWholeLine,
    InvalidModel,
    IrrationalBoundary,
    MoveInfinityFirst,
    NotOnSurface,
    TooManyIntervals,
    Unsupported,
    Value,
    WitnessSearchFailed,
    as_int,
    quote,
)
from .projline import (
    INF,
    ONE,
    ZERO,
    Interval,
    IntervalConfig,
    ProjPoint,
    Rat,
    _legendre,
    _walk_key,
    as_rat,
    clear_denominators,
    format_rat,
    ladder,
    moebius_from_triples,
    primitive,
    quote_rat,
)


class BinQuadForm(Value):
    """A binary quadratic form m(a, b) = al*a^2 + be*a*b + ga*b^2."""

    __slots__ = ("al", "be", "ga")

    def __init__(self, al: Rat, be: Rat, ga: Rat):
        al, be, ga = as_rat(al), as_rat(be), as_rat(ga)
        if al == 0 and be == 0 and ga == 0:
            raise InvalidModel("the zero form is not allowed")
        super().__init__(al, be, ga)

    @property
    def disc(self) -> Rat:
        return self.be * self.be - 4 * self.al * self.ga


class _IntForm(namedtuple("_IntForm", "al be ga")):
    """A form's coefficients cleared to integers, with the same disc."""

    disc = BinQuadForm.disc


def resultant(f, g) -> Rat:
    """Sylvester resultant; zero exactly when the forms share a root."""
    return ((f.al * g.ga - g.al * f.ga) ** 2
            - (f.al * g.be - g.al * f.be) * (f.be * g.ga - g.be * f.ga))


class BiconicModel(Value):
    """Forms (m1, m2, m3) with m1*m2*m3 squarefree of degree 6, plus the
    declared number k of genuine intervals in the real image.

    Every check and evaluation runs on the nine coefficients cleared to
    integers by one positive lcm, kept as three (al, be, ga) triples: a
    common positive factor changes neither the surface, nor the sign of any
    form, nor which discriminants and resultants vanish."""

    __slots__ = ("m1", "m2", "m3", "k", "_coeffs")

    def __init__(self, m1: BinQuadForm, m2: BinQuadForm, m3: BinQuadForm, k: int):
        if not 0 <= k <= 3:
            raise InvalidModel("k must lie between 0 and 3")
        ints = clear_denominators([c for f in (m1, m2, m3) for c in (f.al, f.be, f.ga)])
        forms = tuple(_IntForm(*ints[i:i + 3]) for i in (0, 3, 6))
        for f in forms:
            if f.disc == 0:
                raise InvalidModel("a form has a double root")
        for i in range(3):
            for j in range(i + 1, 3):
                if resultant(forms[i], forms[j]) == 0:
                    raise InvalidModel("two forms share a root")
        super().__init__(m1, m2, m3, k, forms)

    @property
    def forms(self) -> tuple:
        return (self.m1, self.m2, self.m3)

    def values_at(self, t: ProjPoint) -> tuple:
        """The cleared forms on the integer representative of t."""
        aa, ab, bb = t.u0 * t.u0, t.u0 * t.u1, t.u1 * t.u1
        return tuple([al * aa + be * ab + ga * bb for al, be, ga in self._coeffs])


class BiPoint(Value):
    """A point ((x : y : z), t) of the surface inside P^2 x P^1."""

    __slots__ = ("xyz", "t")

    def __init__(self, xyz: tuple, t: ProjPoint):
        x, y, z = map(as_int, xyz)
        if x == 0 and y == 0 and z == 0:
            raise InvalidModel("(0 : 0 : 0) is not a point of the plane")
        super().__init__(primitive(x, y, z), t)

    def as_json(self) -> dict:
        return {"xyz": [format_rat(v) for v in self.xyz],
                "t": [format_rat(self.t.u0), format_rat(self.t.u1)]}


def on_biconic(model: BiconicModel, p: BiPoint) -> bool:
    x, y, z = p.xyz
    v1, v2, v3 = model.values_at(p.t)
    return x * x * v1 + y * y * v2 + z * z * v3 == 0


def _interval_form(arc: Interval) -> BinQuadForm:
    # -(a - s b)(a - e b), cleared to integers: vanishes at the boundary and
    # is non-negative exactly on the arc (which excludes infinity).
    s, e = arc.start.to_rat(), arc.end.to_rat()
    return BinQuadForm(*clear_denominators((-1, s + e, -s * e)))


def biconic_from_config(config: IntervalConfig) -> BiconicModel:
    """A biconic model whose real image is the given configuration (k <= 3)."""
    k = config.r
    if k > 3:
        raise TooManyIntervals(f"{k} intervals; the model supports at most 3")
    for arc in config.intervals:
        if arc.contains(INF):
            raise MoveInfinityFirst(f"{arc} touches infinity; conjugate it away first")
    # fillers -a^2 - s b^2: no real root, and distinct roots +-i sqrt(s)
    forms = [_interval_form(arc) for arc in config.intervals]
    forms += [BinQuadForm(-1, 0, -s) for s in range(1, 4 - k)]
    return BiconicModel(forms[0], forms[1], forms[2], k)


def biconic_interval_image(model: BiconicModel) -> IntervalConfig:
    """Exact sign analysis of (m1, m2, m3) on the root partition of P^1(R).

    A parameter carries real points exactly when the three values do not all
    share one strict sign.  The roots are read off the cleared coefficients,
    none or two per form, as BiconicModel allows no double or shared root.
    One probe per gap between cyclically consecutive roots (at 0 if none)
    says whether the gap lies in the image; the arcs are read off the roots
    where that flips.  Boundaries must be rational to be representable.
    """
    roots = []
    for form, (al, be, ga) in zip(model.forms, model._coeffs):
        d = be * be - 4 * al * ga
        if al == 0:
            roots += [INF, ProjPoint(-ga, be)]
        elif d > 0:
            sq = isqrt(d)
            if sq * sq != d:
                raise IrrationalBoundary("form has irrational real roots"
                                         f" (disc {quote_rat(form.disc)})")
            roots += [ProjPoint(-be + sq, 2 * al), ProjPoint(-be - sq, 2 * al)]
    roots.sort(key=_walk_key)
    n = len(roots)
    probes = [Interval(roots[i], roots[(i + 1) % n]).interior_point() for i in range(n)]
    gap_in_image = [not (all(v > 0 for v in vs) or all(v < 0 for v in vs))
                    for vs in map(model.values_at, probes or [ZERO])]
    if all(gap_in_image):
        raise ImageIsWholeLine("every parameter carries real points")
    # Root i lies between gaps i - 1 and i.  Where membership flips into the
    # image an arc starts, and the next flip, cyclically, ends it.
    flips = [i for i in range(n) if gap_in_image[i] != gap_in_image[i - 1]]
    return IntervalConfig(tuple(Interval(roots[i], roots[j])
                                for i, j in zip(flips, flips[1:] + flips[:1]) if gap_in_image[i]))


def _fiber_quadratic(model: BiconicModel, xyz) -> Tuple[int, int, int]:
    x, y, z = xyz
    x2, y2, z2 = x * x, y * y, z * z
    return tuple([x2 * u + y2 * v + z2 * w for u, v, w in zip(*model._coeffs)])


def geiser(model: BiconicModel, p: BiPoint) -> BiPoint:
    """The Geiser involution: same plane point, other root of the fiber
    quadratic.

    Fixing (x : y : z) turns the surface equation into a binary quadratic
    A a^2 + B ab + C b^2 in the P^1 coordinate, and p lies on the surface
    exactly when p.t = (a0 : b0) is one of its roots.  Writing it as
    k (b0 a - a0 b)(b1 a - a1 b) and comparing coefficients (Vieta) gives
    k (a0^2 + b0^2) (a1, b1) = ((C - A) a0 - B b0, (A - C) b0 - B a0),
    one formula for every projective case (A = 0, root at infinity, double
    root).  It vanishes exactly when k = 0, that is when A = B = C = 0.
    """
    a_coef, b_coef, c_coef = _fiber_quadratic(model, p.xyz)
    a0, b0 = p.t.u0, p.t.u1
    if a_coef * a0 * a0 + b_coef * a0 * b0 + c_coef * b0 * b0 != 0:
        xyz = quote(p.xyz, f"({', '.join(map(format_rat, p.xyz))})")  # no repr(): digit limit
        raise NotOnSurface(f"{xyz} over {quote(p.t)} is not on the surface")
    image = ((c_coef - a_coef) * a0 - b_coef * b0, (a_coef - c_coef) * b0 - b_coef * a0)
    if image == (0, 0):
        raise Unsupported("fiber quadratic vanishes identically over this point")
    return BiPoint(p.xyz, ProjPoint(*image))


def second_fibration(model: BiconicModel, p: BiPoint) -> ProjPoint:
    """The P^1 coordinate of the Geiser image (the second conic bundle)."""
    return geiser(model, p).t


_CONIC_BOUND = 20  # box size of the rational point search on a fiber conic
_WITNESS_BUDGET = 40  # fibers the foliation witness search tries at most


def _conic_point(c1: int, c2: int, c3: int) -> Optional[tuple]:
    # First rational point on c1 x^2 + c2 y^2 + c3 z^2 = 0 in a growing box,
    # shell max(x, |y|, |z|) = h by shell, each in lexicographic order.
    if _legendre(c1, c2, c3) is False:
        return None
    for h in range(1, _CONIC_BOUND + 1):
        for x in range(0, h + 1):
            for y in range(-h, h + 1):
                for z in range(-h, h + 1) if x == h or abs(y) == h else (-h, h):
                    if c1 * x * x + c2 * y * y + c3 * z * z == 0:
                        return (x, y, z)
    return None


def fiber_points(model: BiconicModel, t: ProjPoint, want: int = 6) -> list:
    """Rational points of the conic fiber over t, via one found point and
    the line parametrization through it.  Q(d) base - B(base, d) d, with B
    the polar form of Q, is the second point where the line through base in
    direction d meets the conic, so no candidate needs testing."""
    # c and -c define the same conic, and BiPoint normalizes the sign.
    c1, c2, c3 = primitive(*model.values_at(t))
    base = _conic_point(c1, c2, c3)
    if base is None:
        return []

    def form(v) -> int:
        return c1 * v[0] * v[0] + c2 * v[1] * v[1] + c3 * v[2] * v[2]

    def bilinear(u, v) -> int:
        return 2 * (c1 * u[0] * v[0] + c2 * u[1] * v[1] + c3 * u[2] * v[2])

    # The two coordinate axes other than the last nonzero coordinate of base
    # complete it to a basis, so they span the pencil of lines through it.
    last = max(i for i in range(3) if base[i])
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    basis = [axes[i] for i in range(3) if i != last]
    points = [BiPoint(base, t)]
    for u, v in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2),
                 (3, 1), (1, 3), (3, -1), (1, -3), (3, 2), (2, 3), (3, -2), (2, -3)):
        d = tuple(u * basis[0][i] + v * basis[1][i] for i in range(3))
        fd = form(d)
        ld = bilinear(base, d)
        candidate = tuple(fd * base[i] - ld * d[i] for i in range(3))
        if all(value == 0 for value in candidate):
            continue
        pt = BiPoint(candidate, t)
        if pt not in points:
            points.append(pt)
        if len(points) >= want:
            break
    return points


def distinct_foliations_witness(model: BiconicModel) -> tuple:
    """Two surface points sharing the first fibration value but separated by
    the second fibration; exists whenever the real image is nonempty.

    The fibers tried are the ladder of (0, 1) carried into each arc by the
    Moebius map sending 0, 1, inf to its start, its end and a point outside
    it, which walks arcs through infinity too."""
    image = biconic_interval_image(model)
    if image.r < 1:
        raise Unsupported("a model with empty real part has no fibers to separate")
    into_arcs = [moebius_from_triples(ZERO, ONE, INF, arc.start, arc.end,
                                      Interval(arc.end, arc.start).interior_point())
                 for arc in image.intervals]
    params = (m.apply(ProjPoint.from_rat(u)) for m in into_arcs
              for rung in ladder(0, 1) for u in rung)
    for t in islice(params, _WITNESS_BUDGET):
        values = {}
        for p in fiber_points(model, t, want=8):
            values.setdefault(second_fibration(model, p), p)
            if len(values) == 2:
                return tuple(values.values())
    raise WitnessSearchFailed(_WITNESS_BUDGET)
