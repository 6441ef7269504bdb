"""Seeded request decks for the three benchmark workloads.

Every request is built here with exact rationals and never with the library
under test.  Surface points come from constructions whose fiber is known to
carry them: for r = 1 the real locus is a sphere with a rational
parametrization, and for r >= 2 the roots are placed so that Q(x) is a
chosen square at one fiber.  A change to the library's point searches
therefore cannot change the requests, their expected exit codes or the
set-up time.

Each request has a coefficient-height class: small (<= 10), medium (about
10^3) or large (about 10^6).  A deck is several rounds of one workload's
mix, ordered so that any prefix holds every category in about its share of
the deck; the benchmark loop walks the deck from the start and wraps round.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import exact as ex

HEIGHTS = {"small": 10, "medium": 10 ** 3, "large": 10 ** 6}
HEIGHT_NAMES = tuple(HEIGHTS)
WORKLOADS = ("decide", "fiber-miss", "fiber-hit")
# Rounds per deck: enough that a 25 s run averages over many instances of
# each category, while generating the deck stays cheap next to importing the
# library.  The fiber decks are longer than a 25 s run on a 2-core x86
# machine: every request a run times is then a distinct instance, which keeps
# the seed's effect on the medians small, and fiber-miss never wraps round to
# its opening selftest.
ROUNDS = {"decide": 4, "fiber-miss": 14, "fiber-hit": 8}
# The golden record is the first round of each workload's deck at this seed.
GOLDEN_SEED = 1
# Categories whose requests are also timed in fresh processes: light ones,
# so that cold start measures start-up rather than the request's own work.
COLD_CATEGORIES = {
    "decide": ("lattice/6", "decide-birational/small", "geiser/small"),
    "fiber-miss": ("twist/r2/large", "verify-twist/r2/large"),
    "fiber-hit": ("twist/n3/large", "verify-twist/r1/large"),
}


@dataclass
class Request:
    kind: str       # CLI subcommand
    height: str     # small, medium or large
    argv: tuple     # command line given to cli.run
    payload: str    # JSON request read from standard input
    expect: int     # exit code the request must give
    spec: dict      # facts the answer checker uses
    category: str   # kind, height and variant; the deck interleaves these


def _request(kind, height, body, expect, spec, category=None, argv=None) -> Request:
    payload = "" if body is None else json.dumps(body, sort_keys=True)
    return Request(kind, height, tuple(argv or (kind,)), payload, expect, spec,
                   category or f"{kind}/{height}")


# ---------------------------------------------------------------- numbers

def _rat(rng, h: int, dens=(1, 1, 2, 3, 7)) -> Fraction:
    return Fraction(rng.randint(-h, h), rng.choice(dens))


def _distinct_sorted(rng, h: int, n: int) -> list:
    values = set()
    while len(values) < n:
        values.add(_rat(rng, max(h, n)))
    return sorted(values)


def _pythagorean(rng) -> tuple:
    m, n = rng.randint(1, 9), rng.randint(1, 9)
    c, s = Fraction(m * m - n * n, m * m + n * n), Fraction(2 * m * n, m * m + n * n)
    return rng.choice((c, -c)), rng.choice((s, -s))


def _rotate(rot, y, z) -> tuple:
    c, s = rot
    return c * y - s * z, s * y + c * z


def _point(x, y, z) -> dict:
    return {"x": ex.tok(x), "y": ex.tok(y), "z": ex.tok(z)}


def _inside(rng, lo, hi) -> Fraction:
    den = rng.randint(2, 9)
    return lo + Fraction(rng.randint(1, den - 1), den) * (hi - lo)


# ---------------------------------------------------------------- P^1 configurations

def _random_moebius(rng, h: int) -> tuple:
    while True:
        a, b, c, d = (rng.randint(-h, h) for _ in range(4))
        if a * d != b * c:
            return ex.primitive(a, b, c, d)


def _finite_moebius(rng, h: int, arcs) -> tuple:
    """A map whose image of the finite arcs stays finite: its pole lies in a
    gap, or it is affine."""
    if rng.random() < 0.25:
        return ex.matrix(rng.choice((-1, 1)) * rng.randint(1, h), rng.randint(-h, h), 0, 1)
    ends = sorted(p for arc in arcs for p in arc)
    gaps = [(ends[2 * i + 1], ends[2 * i + 2]) for i in range(len(arcs) - 1)]
    if gaps and rng.random() < 0.6:
        pole = _inside(rng, *rng.choice(gaps))
    else:
        pole = ends[-1] + rng.randint(1, h) if rng.random() < 0.5 else ends[0] - rng.randint(1, h)
    while True:
        a, b = rng.randint(-h, h), rng.randint(-h, h)
        if a * -pole - b != 0:
            return ex.matrix(a, b, 1, -pole)


def _finite_arcs(rng, h: int, r: int) -> list:
    return ex.model_arcs(_distinct_sorted(rng, h, 2 * r))


def _symmetric_arcs(rng, r: int) -> list:
    """Arc configurations with a prescribed finite symmetry group."""
    if r == 3 and rng.random() < 0.5:
        # S3: the orbit of an arc symmetric about 1/2 under x -> 1/(1 - x).
        p = Fraction(1, rng.randint(3, 9))
        gen, arc = (0, 1, -1, 1), (p, 1 - p)
    elif r == 3 and rng.random() < 0.5:
        # C2 swapping two arcs and fixing a third one.
        a = Fraction(rng.randint(2, 9), rng.randint(1, 2))
        p = Fraction(1, rng.randint(2, 9))
        return [(-a - 1, -a), (-p, p), (a, a + 1)]
    elif r == 3:
        # C3 only: a generic arc inside (0, 1).
        p = Fraction(1, rng.randint(5, 9))
        gen, arc = (0, 1, -1, 1), (p, p + Fraction(1, rng.randint(2, 4)))
    elif r == 4:
        # C4: x -> (1 + x)/(1 - x) cycles the quarters of the circle.
        p = Fraction(1, rng.randint(3, 9))
        gen, arc = (1, 1, -1, 1), (p, 1 - p)
    elif r == 2:
        # C2 from the involution x -> -x.
        a = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        return [(-a - 1, -a), (a, a + 1)]
    else:
        a = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        return [(-a, a)]
    arcs = [arc]
    while len(arcs) < r:
        arcs.append(ex.arc_image(gen, arcs[-1]))
    return arcs


def _order(arcs) -> list:
    return sorted(arcs, key=lambda arc: min(ex.walk_key(arc[0]), ex.walk_key(arc[1])))


def _finite_config(rng, h: int, r: int, symmetric: bool) -> list:
    """Sorted finite arcs, optionally with a symmetry, moved to height h."""
    arcs = _symmetric_arcs(rng, r) if symmetric else _finite_arcs(rng, h, r)
    g = _finite_moebius(rng, h, arcs)
    return sorted(ex.arc_image(g, arc) for arc in arcs)


def _roots(arcs) -> list:
    return [p for arc in arcs for p in arc]


def _model(roots) -> dict:
    return {"roots": [ex.tok(a) for a in roots]}


def _marked(roots, counts) -> dict:
    obj = _model(roots)
    obj["marks"] = [_point(roots[2 * i + k], 0, 0)
                    for i, c in enumerate(counts) for k in range(c)]
    return obj


def _inequivalent(rng, h: int, arcs) -> list:
    while True:
        other = _finite_arcs(rng, h, len(arcs))
        if not ex.equivalences(arcs, other):
            return other


# ---------------------------------------------------------------- decide requests

def decide_birational(rng, height: str, r: int, category=None) -> Request:
    h = HEIGHTS[height]
    arcs = _finite_config(rng, h, r, symmetric=False)
    if r >= 2 and rng.random() < 0.3:
        other, expect = _inequivalent(rng, h, arcs), 1
    else:
        g = _finite_moebius(rng, h, arcs)
        other, expect = sorted(ex.arc_image(g, arc) for arc in arcs), 0
    body = {"model1": _model(_roots(arcs)), "model2": _model(_roots(other))}
    return _request("decide-birational", height, body, expect,
                    {"arcs1": arcs, "arcs2": other}, category)


def decide_iso(rng, height: str, r: int) -> Request:
    h = HEIGHTS[height]
    arcs = _finite_config(rng, h, r, symmetric=rng.random() < 0.4)
    counts = [rng.randint(0, 2) for _ in range(r)]
    g = _finite_moebius(rng, h, arcs)
    images = [ex.arc_image(g, arc) for arc in arcs]
    other = sorted(images)
    counts2 = [0] * r
    for i, image in enumerate(images):
        counts2[other.index(image)] = counts[i]
    expect = 0
    if rng.random() < 0.3:
        j = rng.randrange(r)
        counts2[j] = (counts2[j] + 1) % 3
        expect = 1
    body = {"model1": _marked(_roots(arcs), counts), "model2": _marked(_roots(other), counts2)}
    return _request("decide-iso", height, body, expect,
                    {"arcs1": arcs, "arcs2": other, "counts1": counts, "counts2": counts2})


def very_transitive(arcs, counts) -> bool:
    """The decision table of the paper's theorem 1.2, on exact data."""
    r = len(arcs)
    if r <= 2:
        return True
    if r >= 4:
        return False
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 3) if counts[i] == counts[j]]
    if not pairs:
        return True
    perms = ex.realizable(arcs)
    if len(pairs) == 1:
        i, j = pairs[0]
        swap = [0, 1, 2]
        swap[i], swap[j] = j, i
        return tuple(swap) in perms
    return len(perms) == 6


def decide_verytransitive(rng, height: str, r: int) -> Request:
    h = HEIGHTS[height]
    arcs = _finite_config(rng, h, r, symmetric=r >= 3 and rng.random() < 0.7)
    counts = [rng.randint(0, 2) for _ in range(r)]
    if r == 3 and rng.random() < 0.5:
        counts = [counts[0]] * 3
    answer = very_transitive(arcs, counts)
    return _request("decide-verytransitive", height,
                    {"model": _marked(_roots(arcs), counts)}, 0 if answer else 1,
                    {"arcs": arcs, "counts": counts, "answer": answer})


def realizable_perms(rng, height: str, r: int, category=None) -> Request:
    h = HEIGHTS[height]
    arcs = _symmetric_arcs(rng, r) if r <= 4 and rng.random() < 0.6 else _finite_arcs(rng, h, r)
    g = _random_moebius(rng, h)
    arcs = _order([ex.arc_image(g, arc) for arc in arcs])
    body = {"config": [[ex.tok(s), ex.tok(e)] for s, e in arcs]}
    return _request("realizable-perms", height, body, 0,
                    {"arcs": arcs}, category)


# Generators of finite cyclic subgroups of PGL_2(Q), with their orders.
_FINITE_ORDER = {(0, 1, -1, 1): 3, (1, 1, -1, 1): 4, (1, 1, -1, 2): 6, (0, 1, 1, 0): 2}


def stabilizer(rng, height: str, n: int, category=None) -> Request:
    """Points forming whole orbits of a conjugated finite cyclic group, plus
    single points when n is not a multiple of its order."""
    h = HEIGHTS[height]
    fitting = [g for g, order in _FINITE_ORDER.items() if n % order == 0] or [(0, 1, 1, 0)]
    gen = rng.choice(fitting)
    conj = _random_moebius(rng, h)
    gen = ex.compose(conj, ex.compose(gen, ex.inverse(conj)))
    group = [(1, 0, 0, 1)]
    while True:
        nxt = ex.compose(gen, group[-1])
        if nxt == (1, 0, 0, 1):
            break
        group.append(nxt)
    points = set()
    while len(points) < n:
        seed = _rat(rng, h)
        orbit = {ex.apply(g, seed) for g in group}
        if len(orbit) == len(group) and not orbit & points and len(points) + len(orbit) <= n:
            points |= orbit
        elif len(points) + len(group) > n:
            points.add(seed)
    pts = sorted(points, key=ex.walk_key)
    rng.shuffle(pts)
    group = [g for g in group if {ex.apply(g, p) for p in pts} == set(pts)]
    return _request("stabilizer", height, {"points": [ex.tok(p) for p in pts]}, 0,
                    {"points": pts, "subgroup": group}, category)


def _neg_definite(rng, h: int) -> tuple:
    while True:
        al, ga = Fraction(rng.randint(1, h)), Fraction(rng.randint(1, h))
        be = Fraction(rng.randint(-h, h))
        if be * be < 4 * al * ga:
            return -al, -be, -ga


def _interval_form(arc, scale) -> tuple:
    s, e = arc
    return -scale, (s + e) * scale, -s * e * scale


def _resultant(f, g) -> Fraction:
    a1, b1, c1 = f
    a2, b2, c2 = g
    return (a1 * c2 - a2 * c1) ** 2 - (a1 * b2 - a2 * b1) * (b1 * c2 - b2 * c1)


def _valid_forms(forms) -> bool:
    if any(b * b - 4 * a * c == 0 for a, b, c in forms):
        return False
    return all(_resultant(forms[i], forms[j]) != 0 for i in range(3) for j in range(i + 1, 3))


def _biconic_json(forms, k) -> dict:
    return {"m1": [ex.tok(v) for v in forms[0]], "m2": [ex.tok(v) for v in forms[1]],
            "m3": [ex.tok(v) for v in forms[2]], "k": k}


def biconic_image(rng, height: str) -> Request:
    """Interval forms are >= 0 exactly on their arc and the fillers are
    negative definite, so the real image is exactly the chosen arcs."""
    h = HEIGHTS[height]
    while True:
        k = rng.randint(1, 3)
        arcs = _finite_arcs(rng, h, k)
        forms = [_interval_form(arc, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                 for arc in arcs]
        forms += [_neg_definite(rng, min(h, 1000)) for _ in range(3 - k)]
        rng.shuffle(forms)
        if _valid_forms(forms):
            break
    return _request("biconic-image", height, {"model": _biconic_json(forms, k)}, 0,
                    {"arcs": arcs})


def geiser(rng, height: str) -> Request:
    """A point on a model whose third form is fitted through it.

    m1 (and m2 when k = 2) are interval forms; the negative definite m3 is
    solved so that the chosen plane point lies over the chosen parameter t
    inside the first arc, which keeps the declared k exact.
    """
    h = HEIGHTS[height]
    while True:
        k = rng.randint(1, 2)
        arcs = _finite_arcs(rng, h, k)
        forms = [_interval_form(arc, Fraction(rng.randint(1, 9))) for arc in arcs]
        if k == 1:
            forms.append(_neg_definite(rng, min(h, 1000)))
        t = _inside(rng, *arcs[0])
        u0, u1 = t.numerator, t.denominator
        values = [a * u0 * u0 + b * u0 * u1 + c * u1 * u1 for a, b, c in forms]
        x, y, z = rng.randint(1, h), rng.randint(-h // 3, h // 3), rng.randint(1, 3)
        target = -(x * x * values[0] + y * y * values[1]) / (z * z)
        al, be = Fraction(rng.randint(1, h)), Fraction(rng.randint(-h, h))
        ga = (-target - al * u0 * u0 - be * u0 * u1) / (u1 * u1)
        forms.append((-al, -be, -ga))
        xyz = ex.primitive(x, y, z)
        if ga > 0 and be * be < 4 * al * ga and _valid_forms(forms):
            break
    body = {"model": _biconic_json(forms, k),
            "point": {"xyz": [str(v) for v in xyz], "t": [str(u0), str(u1)]}}
    return _request("geiser", height, body, 0, {"forms": forms, "xyz": xyz, "t": (u0, u1)})


def lattice(m: int) -> Request:
    return _request("lattice", "small", {"m": m}, 0, {"m": m}, f"lattice/{m}")


def _rect_chain(rng, n: int, grid: int, x_offset: int) -> list:
    """n lattice rectangles, each overlapping the previous one in area."""
    rects = []
    x0, y0 = rng.randint(0, grid - 3), rng.randint(0, grid - 3)
    for _ in range(n):
        x1, y1 = x0 + rng.randint(2, 4), y0 + rng.randint(2, 4)
        rects.append((x0 + x_offset, min(x1, grid) + x_offset, y0, min(y1, grid)))
        x0 = min(max(0, rng.randint(x0 - 1, x1 - 1)), grid - 2)
        y0 = min(max(0, rng.randint(y0 - 1, y1 - 1)), grid - 2)
    return rects


def region_path(rng, height: str, n: int, category=None) -> Request:
    """A connected chain (exit 0) or two chains split by an empty band
    (exit 1), on a lattice whose cell count does not depend on the height."""
    h = HEIGHTS[height]
    grid = 12
    connected = n >= 8 or rng.random() < 0.7
    if connected:
        rects = _rect_chain(rng, n, grid, 0)
        first, last = rects[0], rects[-1]
    else:
        left = _rect_chain(rng, max(1, n // 2), grid, 0)
        right = _rect_chain(rng, n - len(left), grid, grid + 2)
        rects = left + right
        first, last = left[0], right[-1]
    scale = Fraction(rng.randint(1, h), rng.choice((1, 3, 7)))
    shift = Fraction(rng.randint(-h, h))

    def to_q(v):
        return shift + scale * v

    start = (to_q(Fraction(first[0] + first[1], 2)), to_q(Fraction(first[2] + first[3], 2)))
    end = (to_q(Fraction(last[0] + last[1], 2)), to_q(Fraction(last[2] + last[3], 2)))
    forbidden_x = [to_q(Fraction(2 * rng.randint(0, grid) + 1, 4)) for _ in range(rng.randint(0, 2))]
    forbidden_y = [to_q(Fraction(2 * rng.randint(0, grid) + 1, 4)) for _ in range(rng.randint(0, 2))]
    rects_q = [(to_q(a), to_q(b), to_q(c), to_q(d)) for a, b, c, d in rects]
    body = {"rects": [[[ex.tok(a), ex.tok(b)], [ex.tok(c), ex.tok(d)]] for a, b, c, d in rects_q],
            "start": [ex.tok(v) for v in start], "end": [ex.tok(v) for v in end],
            "forbidden_x": [ex.tok(v) for v in forbidden_x],
            "forbidden_y": [ex.tok(v) for v in forbidden_y]}
    return _request("region-path", height, body, 0 if connected else 1,
                    {"rects": rects_q, "start": start, "end": end,
                     "forbidden_x": forbidden_x, "forbidden_y": forbidden_y}, category)


# ---------------------------------------------------------------- twist requests

def square_fiber_model(rng, height: str, r: int) -> tuple:
    """Roots of a model with r intervals and a fiber x where Q(x) = S^2.

    Write the roots as x - d_j.  The pair of roots around x gets d = u and
    -u m^2; every other pair gets d = w, w m^2 on one side of x, so
    Q(x) = -prod d_j = (u m prod w m)^2.
    """
    h = HEIGHTS[height]
    step = max(2, h // 30)

    def ratio():
        q = rng.randint(1, max(1, min(h, 1000) // 10))
        return Fraction(q + rng.randint(1, max(1, q)), q)

    x = Fraction(rng.randint(-h, h), 1 if height == "small" else rng.choice((1, 3)))
    i = rng.randrange(r)
    u, m = Fraction(rng.randint(1, step)), ratio()
    d = [u, -u * m * m]
    root_s = u * m
    lo, hi = d[0], d[1]
    for _ in range(i):
        w, mm = lo + rng.randint(1, step), ratio()
        d = [w * mm * mm, w] + d
        lo, root_s = w * mm * mm, root_s * w * mm
    for _ in range(r - i - 1):
        w, mm = -hi + rng.randint(1, step), ratio()
        d = d + [-w, -w * mm * mm]
        hi, root_s = -w * mm * mm, root_s * w * mm
    return [x - dj for dj in d], x, root_s


def sphere_point(roots, s: Fraction, t: Fraction) -> tuple:
    """A point of y^2 + z^2 = (x - a1)(a2 - x), the sphere of radius
    (a2 - a1)/2, by inverse stereographic projection from (s, t)."""
    a1, a2 = roots
    c, rad = (a1 + a2) / 2, (a2 - a1) / 2
    n = s * s + t * t
    return c + rad * (n - 1) / (n + 1), rad * 2 * s / (n + 1), rad * 2 * t / (n + 1)


def _twist_request(rng, height, roots, pairs, n_pins, n_jets, category) -> Request:
    """pairs: ((x, y, z), (x, y', z')) on the surface of the model."""
    used = {p[0] for p, _ in pairs}
    pins, jets = [], []
    candidates = list(roots)
    for _ in range(4 * (n_pins + n_jets)):
        i = rng.randrange(len(roots) // 2)
        candidates.append(_inside(rng, roots[2 * i], roots[2 * i + 1]))
    rng.shuffle(candidates)
    for x in candidates:
        if x in used:
            continue
        if len(jets) < n_jets and x not in roots:
            jets.append((x, Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
        elif len(pins) < n_pins:
            pins.append(x)
        else:
            continue
        used.add(x)
    body = {"model": _model(roots),
            "pairs": [[_point(*p), _point(*q)] for p, q in pairs],
            "pins": [ex.tok(b) for b in pins],
            "jets": [[ex.tok(x0), ex.tok(mu)] for x0, mu in jets]}
    spec = {"roots": roots, "pairs": pairs, "pins": pins, "jets": jets}
    return _request("twist", height, body, 0, spec, category)


def twist_r(rng, height: str, r: int) -> Request:
    """r >= 2: one transported pair at the square fiber, a few pins and jets."""
    roots, x, s = square_fiber_model(rng, height, r)
    y, z = _rotate(_pythagorean(rng), s, Fraction(0))
    pairs = [((x, y, z), (x, *_rotate(_pythagorean(rng), y, z)))]
    return _twist_request(rng, height, roots, pairs, rng.randint(0, 2), rng.randint(0, 1),
                          f"twist/r{r}/{height}")


def _sphere_roots(rng, height: str) -> list:
    h = HEIGHTS[height]
    a1 = _rat(rng, h)
    return [a1, a1 + Fraction(rng.randint(1, h), rng.choice((1, 1, 2, 3)))]


def twist_sphere(rng, height: str, nodes: int) -> Request:
    """r = 1 with several pairs, pins and jets: `nodes` interpolation nodes
    (a jet counts twice)."""
    roots = _sphere_roots(rng, height)
    n_jets = rng.randint(0, min(2, (nodes - 1) // 2))
    n_pins = rng.randint(0, min(3, nodes - 1 - 2 * n_jets))
    n_pairs = nodes - 2 * n_jets - n_pins
    pairs, seen = [], set()
    while len(pairs) < n_pairs:
        s, t = Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if s == 0 and t == 0 or s * s + t * t in seen:
            continue
        seen.add(s * s + t * t)
        p = sphere_point(roots, s, t)
        pairs.append((p, (p[0], *_rotate(_pythagorean(rng), p[1], p[2]))))
    return _twist_request(rng, height, roots, pairs, n_pins, n_jets, f"twist/n{nodes}/{height}")


def verify_twist(rng, height: str, r: int) -> Request:
    h = HEIGHTS[height]
    roots = _sphere_roots(rng, height) if r == 1 else square_fiber_model(rng, height, r)[0]
    base = _pythagorean(rng)
    lam = [_rat(rng, min(h, 1000), (1, 2, 3)) for _ in range(rng.randint(1, 4))]
    while lam and lam[-1] == 0:
        lam.pop()
    body = {"model": _model(roots),
            "twist": {"base": {"c": ex.tok(base[0]), "s": ex.tok(base[1])},
                      "lambda": [ex.tok(c) for c in lam]}}
    return _request("verify-twist", height, body, 0, {"roots": roots},
                    f"verify-twist/r{r}/{height}")


def selftest(rng) -> Request:
    seed = rng.randint(0, 10 ** 6)
    return _request("selftest", "small", None, 0, {"seed": seed}, "selftest",
                    argv=("selftest", "--seed", str(seed)))


# ---------------------------------------------------------------- decks

def _decide(rng) -> list:
    reqs = []
    for height in HEIGHT_NAMES:
        for _ in range(4):
            for r in (1, 2, 3, 4):
                reqs.append(decide_birational(rng, height, r))
            for r in (1, 2, 3):
                reqs.append(decide_iso(rng, height, r))
            for r in (1, 2, 3, 3, 4):
                reqs.append(decide_verytransitive(rng, height, r))
            for r in (1, 2, 3, 4):
                reqs.append(realizable_perms(rng, height, r))
            for n in (3, 4, 6):
                reqs.append(stabilizer(rng, height, n))
            reqs.append(geiser(rng, height))
            reqs.append(biconic_image(rng, height))
            for n in (2, 4):
                reqs.append(region_path(rng, height, n))
    for m in (5, 6, 7):
        reqs += [lattice(m)] * 4
    # The size sweep: a fixed minority that sets the tail.
    sweeps = [("bir", r) for r in (6, 10, 15, 20)] + [("perms", r) for r in (10, 20)]
    sweeps += [("stab", n) for n in (8, 10, 12)] + [("path", n) for n in (10, 20, 30, 40)]
    for i, (family, size) in enumerate(sweeps):
        height = HEIGHT_NAMES[i % 3]
        category = f"sweep/{family}/{size}"
        if family == "bir":
            reqs.append(decide_birational(rng, height, size, category))
        elif family == "perms":
            reqs.append(realizable_perms(rng, height, size, category))
        elif family == "stab":
            reqs.append(stabilizer(rng, height, size, category))
        else:
            reqs.append(region_path(rng, height, size, category))
    return reqs


def _fiber_miss(rng) -> list:
    reqs = []
    for height in HEIGHT_NAMES:
        for _ in range(6):
            for r in (2, 3):
                reqs.append(twist_r(rng, height, r))
                reqs.append(verify_twist(rng, height, r))
    return reqs


def _fiber_hit(rng) -> list:
    reqs = []
    for height in HEIGHT_NAMES:
        for _ in range(3):
            # Two of the middle size, so that the median latency falls inside
            # one category instead of between two.
            for nodes in (3, 5, 8, 8, 10, 12):
                reqs.append(twist_sphere(rng, height, nodes))
            reqs.append(verify_twist(rng, height, 1))
    return reqs


_MIXES = {"decide": _decide, "fiber-miss": _fiber_miss, "fiber-hit": _fiber_hit}


def spread(reqs: list) -> list:
    """Order requests so that every prefix holds each category in about its
    share: the i-th of k requests of a category sits at i/k, so the deck
    opens with one request of every category."""
    by_cat = {}
    for req in reqs:
        by_cat.setdefault(req.category, []).append(req)
    keyed = []
    for cat, members in by_cat.items():
        k = len(members)
        keyed += [(i / k, cat, i, req) for i, req in enumerate(members)]
    keyed.sort(key=lambda item: item[:3])
    return [item[3] for item in keyed]


def deck(workload: str, seed: int, rounds: int = 0) -> list:
    """The workload's requests for this seed, in loop order."""
    rng = random.Random(f"{workload}:{seed}")
    # fiber-miss holds one selftest, which opens the deck, so that every run
    # of it times exactly one of these second-long requests.
    reqs = [selftest(rng)] if workload == "fiber-miss" else []
    for _ in range(rounds or ROUNDS[workload]):
        reqs += _MIXES[workload](rng)
    return spread(reqs)
