"""Exact arithmetic on the real projective line P^1(Q).

Points, Moebius transformations, closed arcs and arc configurations, plus the
decision procedures for mapping one configuration onto another by an element
of PGL_2(Q).  Every value is immutable and every computation is exact; there
is no floating point anywhere in this module.

The circle P^1(R) carries a fixed positive orientation: increasing through
the finite reals, then through the point at infinity.  A closed arc is always
understood as traversed in that direction from its start to its end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Optional

from .errors import InfiniteStabilizer, InvalidModel, InvalidTriple, ParseError, Value, quote

Rat = Fraction

_RAT_RE = re.compile(r"(-?\d+)(?:/(-?\d+))?", re.ASCII)
TOKEN_CHARS = 100_000  # the longest token read: int() of a digit string is quadratic


def as_rat(value) -> Rat:
    """The one coercion to a rational: a Fraction unchanged, an int as a
    Fraction; anything else (a float, a string, a bool) is InvalidModel."""
    return value if type(value) is Fraction else Fraction(as_ratio(value)[0])


def as_ratio(value) -> tuple:
    """(num, den) of an int or a Fraction, building none; anything else is InvalidModel."""
    if type(value) is Fraction or type(value) is int:
        return value.as_integer_ratio()
    raise InvalidModel(f"not an int or a Fraction: {quote(value)}")


def token_ratio(token: str, integer: bool = False) -> tuple:
    """The one token reader: (num, den) of a canonical rational token "p" or
    "p/q" (q positive, coprime), or with integer of an integer token "p"."""
    m = _RAT_RE.fullmatch(token) if isinstance(token, str) else None
    if m is None or integer and m.group(2) is not None:
        raise ParseError(f"not {'an integer' if integer else 'a rational'} token: {quote(token)}")
    if len(token) > TOKEN_CHARS:
        raise ParseError(f"token longer than {TOKEN_CHARS} characters: {quote(token)}")
    num, den = _digits(m.group(1)), _digits(m.group(2) or "1")
    if den <= 0:
        raise ParseError(f"{'negative' if den else 'zero'} denominator in token: {quote(token)}")
    if gcd(num, den) != 1:
        raise ParseError(f"non-coprime rational token: {quote(token)}")
    return num, den


def _digits(text: str) -> int:
    """int(text) of a signed digit string, split at a power of ten wherever
    int() would pass sys.get_int_max_str_digits(), as _decimal splits str()."""
    try:
        return int(text)
    except ValueError:
        if text[0] == "-":
            return -_digits(text[1:])
        k = len(text) // 2
        return _digits(text[:-k]) * 10 ** k + _digits(text[-k:])


def parse_rat(token: str) -> Rat:
    """Parse a canonical rational token "p" or "p/q" (q positive, coprime)."""
    return Fraction(*token_ratio(token))


def format_rat(value: Rat) -> str:
    """Serialize a rational (or an int) as "p/q", omitting "/q" when q is 1."""
    return _ratio_token(value.numerator, value.denominator)


def _ratio_token(num: int, den: int) -> str:
    text = _decimal(num)
    return text if den == 1 else f"{text}/{_decimal(den)}"


def quote_rat(value: Rat) -> str:
    """A rational for an error message: format_rat, cut short by quote."""
    return quote(value, format_rat(value))


def quote_rats(*values) -> str:
    """A point (v1, v2, ...) for an error message, each value by quote_rat."""
    return f"({', '.join(map(quote_rat, values))})"


def _decimal(n: int) -> str:
    """The decimal digits of n, split at a power of ten wherever str(n) would
    pass sys.get_int_max_str_digits(); the limit itself is left alone."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 3/10
        hi, lo = divmod(abs(n), 10 ** k)
        return ("-" if n < 0 else "") + _decimal(hi) + _decimal(lo).zfill(k)


def primitive(*ints: int) -> tuple:
    """The integer vector divided by its gcd, first nonzero entry positive.

    The zero vector comes back unchanged; callers reject it themselves.
    """
    g = gcd(*ints)
    if g == 0:
        return ints
    for lead in ints:
        if lead:
            break
    if lead < 0:
        g = -g
    elif g == 1:
        return ints
    return (ints[0] // g, ints[1] // g) if len(ints) == 2 else tuple([v // g for v in ints])


def clear_denominators(values) -> tuple:
    """The rationals times the lcm of their denominators, as integers.

    Neither divides by the gcd nor changes the sign: the sign of a cleared
    form can carry meaning (see delpezzo._interval_form).
    """
    ratios = [v.as_integer_ratio() for v in values]
    m = lcm(*(d for _, d in ratios))
    return tuple([n * (m // d) for n, d in ratios])


# Trial division runs to _TRIAL_BOUND; as 2155^3 > 10^10, a cofactor of
# n <= 10^10 then has at most two prime factors.
_TRIAL_BOUND = 2155


def _sieve(n: int) -> list:
    # the primes up to n, by Eratosthenes
    flags = bytearray([1]) * (n + 1)
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(2, n + 1) if flags[p]]


_PRIMES = _sieve(_TRIAL_BOUND)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981  # the bases above decide primality below it
_RHO_BUDGET = 1 << 16  # Pollard rho steps one factorization may take


def _is_prime(m: int) -> bool:
    # deterministic Miller-Rabin for odd 2155 < m < _MR_LIMIT
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _factor(n: int) -> Optional[dict]:
    """The prime factorization {p: e} of n >= 1, or None when it runs past
    the work budget or a cofactor is too large for a primality proof."""
    factors = {}
    for p in _PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    pending = [n] if n > 1 else []
    steps = 0
    while pending:
        m = pending.pop()
        # every prime factor of m exceeds _TRIAL_BOUND
        if m < _TRIAL_BOUND ** 2 or (m < _MR_LIMIT and _is_prime(m)):
            factors[m] = factors.get(m, 0) + 1
            continue
        if m >= _MR_LIMIT:
            return None
        r = isqrt(m)
        if r * r == m:
            pending += [r, r]
            continue
        # Pollard rho with Floyd's cycle finding, x -> x^2 + c mod m
        c, d = 0, m
        while d == m:
            c += 1
            x = y = 2
            d = 1
            while d == 1:
                steps += 1
                if steps > _RHO_BUDGET:
                    return None
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                d = gcd(x - y, m)
        pending += [d, m // d]
    return factors


def _legendre(a: int, b: int, c: int) -> Optional[bool]:
    """Whether a x^2 + b y^2 + c z^2 = 0 has a nontrivial integer solution,
    by Legendre's theorem; None when factoring a coefficient runs past its
    budget.

    Each coefficient is cut to its squarefree part, and a prime dividing two
    of them moves to the third (multiply through by p and absorb p^2), or
    cancels when it divides all three.  The reduced form is solvable exactly
    when its signs are mixed and -bc, -ca and -ab are squares modulo every
    odd prime of a, b and c respectively (Euler's criterion).
    """
    if a == 0 or b == 0 or c == 0:
        return True
    if (a > 0) == (b > 0) == (c > 0):
        return False
    primes = []
    for v in (a, b, c):
        f = _factor(abs(v))
        if f is None:
            return None
        primes.append({p for p, e in f.items() if e % 2})
    for p in set().union(*primes):
        if sum(p in s for s in primes) >= 2:
            for s in primes:
                s ^= {p}
    reduced = [(1 if v > 0 else -1) for v in (a, b, c)]
    for i, s in enumerate(primes):
        for p in s:
            reduced[i] *= p
    for i, s in enumerate(primes):
        other = -reduced[i - 1] * reduced[i - 2]
        if any(p > 2 and pow(other % p, (p - 1) // 2, p) != 1 for p in s):
            return False
    return True


class ProjPoint(Value):
    """A point of P^1(Q) as a normalized integer pair (u0 : u1).

    Normalized means gcd(|u0|, |u1|) = 1 with the leading nonzero entry
    positive; infinity is (1 : 0).
    """

    __slots__ = ("u0", "u1")

    def __init__(self, u0: int, u1: int):
        if u0 == 0 and u1 == 0:
            raise InvalidModel("(0 : 0) is not a projective point")
        super().__init__(*primitive(u0, u1))

    @staticmethod
    def from_rat(value: Rat) -> "ProjPoint":
        return ProjPoint(*as_ratio(value))

    @staticmethod
    def infinity() -> "ProjPoint":
        return ProjPoint(1, 0)

    @property
    def is_infinity(self) -> bool:
        return self.u1 == 0

    def to_rat(self) -> Rat:
        if self.is_infinity:
            raise InvalidModel("infinity has no affine value")
        return Fraction(self.u0, self.u1)

    def to_token(self) -> str:
        sign = -1 if self.u1 < 0 else 1  # makes the denominator positive
        return "inf" if self.is_infinity else _ratio_token(sign * self.u0, sign * self.u1)

    @staticmethod
    def from_token(token: str) -> "ProjPoint":
        return INF if token == "inf" else ProjPoint(*token_ratio(token))

    def __repr__(self):
        return f"ProjPoint({self.to_token()})"


ZERO = ProjPoint(0, 1)
ONE = ProjPoint(1, 1)
INF = ProjPoint.infinity()


@cmp_to_key
def _walk_key(p: ProjPoint, q: ProjPoint) -> int:
    # The sort key of one positive turn of the circle from infinity: infinity
    # first, then the finite points by value, as p - q = [p,q] / (p.u1 q.u1).
    if not (p.u1 and q.u1):
        return (not q.u1) - (not p.u1)
    d = (p.u0 * q.u1 - p.u1 * q.u0) * p.u1 * q.u1
    return (d > 0) - (d < 0)


LADDER = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16)


def ladder(lo: Rat, hi: Rat) -> Iterator[list]:
    """One rung per denominator den of LADDER: lo + (num/den)(hi - lo) for
    0 < num < den, each strictly between lo and hi."""
    # With lo = a/b and hi = c/d that point is (ad(den - num) + cb num) / (bd den).
    (a, b), (c, d) = as_ratio(lo), as_ratio(hi)
    ad, cb, bd = a * d, c * b, b * d
    return ([Fraction(ad * (den - num) + cb * num, bd * den) for num in range(1, den)]
            for den in LADDER)


class Moebius(Value):
    """An element of PGL_2(Q) as a normalized integer matrix [[a, b], [c, d]].

    Normalized means the four entries are coprime integers whose first
    nonzero entry is positive.  The determinant sign is the orientation of
    the induced circle map.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c == 0:
            raise InvalidModel("singular matrix does not define a Moebius map")
        super().__init__(*primitive(a, b, c, d))

    @staticmethod
    def from_rational(a: Rat, b: Rat, c: Rat, d: Rat) -> "Moebius":
        return Moebius(*clear_denominators((a, b, c, d)))

    @staticmethod
    def identity() -> "Moebius":
        return Moebius(1, 0, 0, 1)

    def apply(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(self.a * p.u0 + self.b * p.u1, self.c * p.u0 + self.d * p.u1)

    def as_json(self) -> dict:
        return {"a": format_rat(self.a), "b": format_rat(self.b),
                "c": format_rat(self.c), "d": format_rat(self.d)}


def _through_standard(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint) -> tuple:
    # The matrix (a, b, c, d) sending (1:0), (0:1), (1:1) to p1, p2, p3: columns
    # lam*(p1) and mu*(p2), lam*p1 + mu*p2 = p3; times [p1,p2], lam = [p3,p2], mu = [p1,p3].
    lam = p3.u0 * p2.u1 - p3.u1 * p2.u0
    mu = p1.u0 * p3.u1 - p1.u1 * p3.u0
    return lam * p1.u0, mu * p2.u0, lam * p1.u1, mu * p2.u1


def moebius_from_triples(
    p1: ProjPoint, p2: ProjPoint, p3: ProjPoint,
    q1: ProjPoint, q2: ProjPoint, q3: ProjPoint,
) -> Moebius:
    """The unique Moebius map sending (p1, p2, p3) to (q1, q2, q3)."""
    if len({p1, p2, p3}) != 3:
        raise InvalidTriple(f"repeated source point in ({p1}, {p2}, {p3})")
    if len({q1, q2, q3}) != 3:
        raise InvalidTriple(f"repeated target point in ({q1}, {q2}, {q3})")
    # T_q times the adjugate of T_p, a multiple of its inverse
    a, b, c, d = _through_standard(q1, q2, q3)
    e, f, g, h = _through_standard(p1, p2, p3)
    return Moebius(a * h - b * g, b * e - a * f, c * h - d * g, d * e - c * f)


def _cross_pair(a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint) -> tuple:
    # cr(a, b, c, d) = [d,a][b,c] : [d,c][b,a] unnormalized, [p,q] = p.u0*q.u1 - p.u1*q.u0
    return ((d.u0 * a.u1 - d.u1 * a.u0) * (b.u0 * c.u1 - b.u1 * c.u0),
            (d.u0 * c.u1 - d.u1 * c.u0) * (b.u0 * a.u1 - b.u1 * a.u0))


class Interval(Value):
    """The closed arc from start to end in the positive orientation."""

    __slots__ = ("start", "end")

    def __init__(self, start: ProjPoint, end: ProjPoint):
        if start == end:
            raise InvalidModel("an arc needs two distinct boundary points")
        super().__init__(start, end)

    def contains(self, p: ProjPoint) -> bool:
        # [s,p][p,e][e,s] > 0 exactly when s, p, e run in the positive sense,
        # and = 0 at an end; each point enters twice, so any representative serves
        s, e = self.start, self.end
        return ((s.u0 * p.u1 - s.u1 * p.u0) * (p.u0 * e.u1 - p.u1 * e.u0)
                * (e.u0 * s.u1 - e.u1 * s.u0)) >= 0

    def interior_point(self) -> ProjPoint:
        """A rational point strictly inside the arc."""
        (s0, s1), (e0, e1) = (self.start.u0, self.start.u1), (self.end.u0, self.end.u1)
        if not s1:
            return ProjPoint(e0 - e1, e1)  # end - 1
        if self.contains(INF):
            return ProjPoint(s0 + s1, s1)  # start + 1
        return ProjPoint(s0 * e1 + e0 * s1, 2 * s1 * e1)  # the midpoint

    def as_json(self) -> list:
        return [self.start.to_token(), self.end.to_token()]

    def __repr__(self):
        return f"Interval[{self.start.to_token()}, {self.end.to_token()}]"


def interval_image(m: Moebius, arc: Interval) -> Interval:
    """Pointwise image of a closed arc; endpoint roles follow orientation."""
    start, end = m.apply(arc.start), m.apply(arc.end)
    return Interval(start, end) if m.a * m.d > m.b * m.c else Interval(end, start)


class IntervalConfig(Value):
    """Pairwise disjoint closed arcs in canonical cyclic order.

    One walk decides both: the 2r boundary points sorted once, positively
    around the circle from infinity.  Two closed arcs meet exactly when one
    holds a boundary point of the other, so with distinct boundary points
    the arcs are disjoint exactly when each arc's end directly follows its
    start in the walk, the wrap-around pair included.  The canonical order
    lists each arc at its first boundary point in the walk.  Two
    configurations are equal exactly when they are equal as sets of arcs.
    """

    __slots__ = ("intervals", "_walk")

    def __init__(self, intervals: tuple):
        walk = sorted(((p, arc) for arc in intervals for p in (arc.start, arc.end)),
                      key=lambda step: _walk_key(step[0]))
        points = tuple(p for p, _ in walk)
        if any(p == q for p, q in zip(points, points[1:])):  # equal points sort together
            raise InvalidModel("boundary points of a configuration must be distinct")
        # with distinct points, a point is an arc's end exactly when it is that object
        for (p, a), (q, b) in zip(walk, walk[1:] + walk[:1]):
            if p is a.start and q is not a.end:
                raise InvalidModel(f"arcs {quote(a)} and {quote(b)} are not disjoint")
        # each arc takes two neighbouring places: every other place lists each once
        super().__init__(tuple(arc for _, arc in walk[::2]), points)

    @property
    def r(self) -> int:
        return len(self.intervals)

    def boundary_points(self) -> list:
        """All 2r boundary points in cyclic walk order."""
        return list(self._walk)

    def apply(self, m: Moebius) -> "IntervalConfig":
        return IntervalConfig(tuple(interval_image(m, arc) for arc in self.intervals))

    def as_json(self) -> list:
        return [arc.as_json() for arc in self.intervals]

    @staticmethod
    def from_rat_pairs(pairs: Iterable) -> "IntervalConfig":
        return IntervalConfig(tuple(Interval(ProjPoint.from_rat(s), ProjPoint.from_rat(e))
                                    for s, e in pairs))

    def __repr__(self):
        return "IntervalConfig(" + ", ".join(map(repr, self.intervals)) + ")"


def _dihedral_maps(src: list, dst: list) -> Iterator[tuple]:
    """(k, sign, targets) for each Moebius map sending the cyclically ordered
    points src onto dst in order, which maps src[:3] to targets.

    A Moebius map is a homeomorphism of the circle P^1(R), so it keeps or
    reverses cyclic order: any map sending the set src onto the set dst sends
    src[i] to dst[(k + sign * i) % n] for one rotation k and one sign.  Each
    of these 2n correspondences fixes the images of src[:3] and hence at most
    one map m, which exists exactly when integer cross-ratios show that m
    sends every remaining point to its place.  The test is exact: the map
    d -> cr(a, b, c, d) sends (a, b, c) to (0, 1, inf), so for every d,
    cr(m(a), m(b), m(c), m(d)) = cr(a, b, c, d), and cr(m(a), m(b), m(c), .)
    is injective.  Rotations come first, then reversals, each in ascending k;
    distinct correspondences have distinct target triples, so no map repeats.
    No map is built here.
    """
    n, s = len(src), src[:3]
    ratios = [_cross_pair(*s, p) for p in src[3:]]
    for sign in (1, -1):
        for k in range(n):
            t = [dst[(k + sign * i) % n] for i in range(n)]
            if all(x0 * y1 == x1 * y0 for (x0, x1), (y0, y1)
                   in zip(ratios, (_cross_pair(*t[:3], q) for q in t[3:]))):
                yield k, sign, t[:3]


def _equiv_candidates(c1: IntervalConfig, c2: IntervalConfig) -> Iterator[tuple]:
    """Yield verified (moebius, nu) pairs mapping c1 onto c2.

    A witness sends the 2r boundary points of c1 onto those of c2 and keeps
    or reverses their cyclic order, so the candidates are the maps of
    _dihedral_maps on the boundary points, in its order: the first witness
    is reproducible.  For r >= 2 an arc takes two neighbouring places of
    the walk and holds no other boundary point, so its image takes the two
    image places and is an arc of c2 exactly when those places are one
    arc's; places alternate between arcs and gaps, so the answer is the
    same for every arc.  With o = 1 when a walk opens with the end of the
    arc through infinity and o = 0 otherwise, arc j takes places 2j - o and
    2j + 1 - o, and place q of c2 belongs to arc ((q + o2) % n) // 2.  A map
    is built only for a correspondence that keeps arcs on arcs.  For r = 1
    the two ends fix no map, so each arc's interior point joins them as a
    third, and the two maps sending ends to ends come out, straight first,
    then swapped.
    """
    if c1.r != c2.r:
        return
    if c1.r == 0:
        yield Moebius.identity(), ()
        return
    b1, b2 = c1.boundary_points(), c2.boundary_points()
    if c1.r == 1:
        # interior points differ from the arc ends, so no triple repeats
        i1, i2 = c1.intervals[0].interior_point(), c2.intervals[0].interior_point()
        for q1, q2 in (b2, b2[::-1]):
            yield moebius_from_triples(*b1, i1, q1, q2, i2), (0,)
        return
    n = len(b1)
    o1, o2 = b1[0] != c1.intervals[0].start, b2[0] != c2.intervals[0].start
    for k, sign, t in _dihedral_maps(b1, b2):
        nu = tuple([(k + o2 + sign * (2 * j - o1)) % n // 2 for j in range(c1.r)])
        if (k + o2 + sign * (1 - o1)) % n // 2 == nu[0]:  # arc 0's other place
            yield moebius_from_triples(*b1[:3], *t), nu


def config_equiv(c1: IntervalConfig, c2: IntervalConfig,
                 nu: Optional[tuple] = None) -> Optional[tuple]:
    """Decide whether a Moebius map sends c1 onto c2.

    With nu given, the witness must send interval i onto interval nu[i];
    otherwise any matching permutation is accepted.  Returns the first
    (witness, permutation) pair in the deterministic search order, or None.
    """
    for m, found in _equiv_candidates(c1, c2):
        if nu is None or found == tuple(nu):
            return m, found
    return None


def realizable_permutations(c: IntervalConfig) -> dict:
    """All permutations of the arcs realized by a Moebius map, with witnesses.

    Returns a dict permutation -> witness; the key set is a subgroup of
    Sym_r.
    """
    if c.r < 1:
        raise InvalidModel("need at least one interval")
    found = {}
    for m, nu in _equiv_candidates(c, c):
        if nu not in found:
            found[nu] = m
    return found


def stabilizer(points: Iterable) -> list:
    """The finite group of Moebius maps preserving a point set of size >= 3.

    A stabilizing map keeps or reverses the cyclic order of the set, so it
    is one of the at most 2n maps _dihedral_maps finds from the set onto
    itself.  Those maps fix pairwise different images of the first three
    points, so none repeats and the sort by matrix entries needs no dedupe.
    """
    pts = sorted(set(points), key=_walk_key)
    if len(pts) < 3:
        raise InfiniteStabilizer(f"{len(pts)} points span an infinite stabilizer")
    return sorted((moebius_from_triples(*pts[:3], *t) for _, _, t in _dihedral_maps(pts, pts)),
                  key=lambda m: (m.a, m.b, m.c, m.d))
