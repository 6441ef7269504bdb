"""Exact P^1(Q) arithmetic for the benchmark, written apart from the library.

The request generators and the answer checker both use these helpers, so
that neither the requests nor the verdict on an answer depend on the code
being measured.  A point of P^1(Q) is a Fraction or INF (None); a Moebius
map is a 2x2 integer matrix (a, b, c, d) acting by x -> (a x + b)/(c x + d).
An arc (s, e) is the closed arc from s to e in the positive orientation:
increasing through the finite reals, then through infinity.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

INF = None


def tok(v) -> str:
    """Canonical token of a rational or of INF."""
    if v is INF:
        return "inf"
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def untok(t: str):
    return INF if t == "inf" else Fraction(t)


def primitive(*ints) -> tuple:
    """Integer vector divided by its gcd, first nonzero entry positive."""
    g = 0
    for v in ints:
        g = gcd(g, v)
    out = [v // g for v in ints]
    lead = next(v for v in out if v != 0)
    return tuple(-v for v in out) if lead < 0 else tuple(out)


def matrix(a, b, c, d) -> tuple:
    """Normalized integer matrix of the map with rational entries a, b, c, d."""
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    if a * d == b * c:
        raise ValueError("singular matrix")
    den = 1
    for v in (a, b, c, d):
        den = den * v.denominator // gcd(den, v.denominator)
    return primitive(*(int(v * den) for v in (a, b, c, d)))


def _hom(p) -> tuple:
    return (1, 0) if p is INF else (p.numerator, p.denominator)


def apply(m: tuple, p):
    a, b, c, d = m
    u0, u1 = _hom(p)
    num, den = a * u0 + b * u1, c * u0 + d * u1
    return INF if den == 0 else Fraction(num, den)


def compose(m: tuple, n: tuple) -> tuple:
    """m after n."""
    a, b, c, d = m
    e, f, g, h = n
    return primitive(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def inverse(m: tuple) -> tuple:
    a, b, c, d = m
    return primitive(d, -b, -c, a)


def det(m: tuple) -> int:
    return m[0] * m[3] - m[1] * m[2]


def _from_standard(p1, p2, p3) -> tuple:
    # The map sending inf, 0, 1 to p1, p2, p3: columns lam*p1 and mu*p2
    # with lam*p1 + mu*p2 = p3, scaled by the determinant to stay integral.
    (x1, y1), (x2, y2), (x3, y3) = _hom(p1), _hom(p2), _hom(p3)
    lam, mu = x3 * y2 - y3 * x2, x1 * y3 - y1 * x3
    return primitive(lam * x1, mu * x2, lam * y1, mu * y2)


def through(p, q) -> tuple:
    """The Moebius map sending the distinct triple p onto the triple q."""
    return compose(_from_standard(*q), inverse(_from_standard(*p)))


def walk_key(p):
    """Cyclic order starting at infinity."""
    return (0, Fraction(0)) if p is INF else (1, p)


def _arc_key(p):
    return (1, Fraction(0)) if p is INF else (0, p)


def arc_contains(arc, p) -> bool:
    ks, ke, kp = _arc_key(arc[0]), _arc_key(arc[1]), _arc_key(p)
    if ks < ke:
        return ks <= kp <= ke
    return kp >= ks or kp <= ke


def arc_interior(arc):
    """A rational point strictly inside the arc."""
    s, e = arc
    if s is INF:
        return e - 1
    if e is INF or arc_contains(arc, INF):
        return s + 1
    return (s + e) / 2


def maps_arc_onto(m: tuple, arc, target) -> bool:
    """Endpoints go to the target's endpoints and an interior sample lands
    strictly inside the target, so by continuity the arc maps onto it."""
    if {apply(m, arc[0]), apply(m, arc[1])} != {target[0], target[1]}:
        return False
    image = apply(m, arc_interior(arc))
    return arc_contains(target, image) and image not in (target[0], target[1])


def arc_image(m: tuple, arc):
    ends = (apply(m, arc[0]), apply(m, arc[1]))
    return ends if det(m) > 0 else (ends[1], ends[0])


def arc_perm(m: tuple, source, target):
    """Permutation nu with m(source[i]) == target[nu[i]], or None."""
    nu = []
    for arc in source:
        j = next((j for j, t in enumerate(target) if maps_arc_onto(m, arc, t)), None)
        if j is None:
            return None
        nu.append(j)
    return tuple(nu)


def equivalences(source, target) -> list:
    """Every (map, nu) sending the arc list source onto target.

    A map must carry the 2r boundary points of source onto those of target
    in cyclic order or reversed, so it is fixed by where three boundary
    points go; each of the 4r correspondences is tried and checked in full.
    For r = 1 boundary points alone do not fix the map, so one interior
    point per arc is added to the triple.
    """
    if len(source) != len(target) or not source:
        return []
    b1 = sorted([p for arc in source for p in arc], key=walk_key)
    b2 = sorted([p for arc in target for p in arc], key=walk_key)
    n = len(b1)
    found = {}
    if len(source) == 1:
        for t0, t1 in ((b2[0], b2[1]), (b2[1], b2[0])):
            m = through((b1[0], b1[1], arc_interior(source[0])),
                        (t0, t1, arc_interior(target[0])))
            nu = arc_perm(m, source, target)
            if nu is not None:
                found[m] = nu
        return list(found.items())
    for sign in (1, -1):
        for k in range(n):
            img = [b2[(k + sign * i) % n] for i in range(n)]
            m = through(b1[:3], img[:3])
            if m in found or any(apply(m, b1[i]) != img[i] for i in range(3, n)):
                continue
            nu = arc_perm(m, source, target)
            if nu is not None:
                found[m] = nu
    return list(found.items())


def realizable(arcs) -> set:
    return {nu for _, nu in equivalences(arcs, arcs)}


def model_arcs(roots) -> list:
    """Interval image [a1, a2], [a3, a4], ... of a model's sorted roots."""
    return [(roots[2 * i], roots[2 * i + 1]) for i in range(len(roots) // 2)]
