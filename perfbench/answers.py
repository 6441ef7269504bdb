"""Exact checks of CLI answers, independent of the library's decision paths.

check(request, exit_code, stdout) returns a list of problems; an empty list
means the answer is right.  Every yes-answer is verified from its witness
with the benchmark's own exact arithmetic, and every expected verdict comes
from how the request was built (see workloads.py).
"""

from __future__ import annotations

import json
from fractions import Fraction

import exact as ex


def check(req, code: int, stdout: str) -> list:
    if code != req.expect:
        return [f"exit code {code}, expected {req.expect}"]
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    try:
        return _CHECKS[req.kind](req.spec, out, code)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError,
            StopIteration) as exc:
        return [f"malformed answer: {type(exc).__name__}: {exc}"]


def _moebius(obj) -> tuple:
    return ex.primitive(*(int(obj[k]) for k in ("a", "b", "c", "d")))


def _perm(tokens, r) -> tuple:
    nu = tuple(int(i) - 1 for i in tokens)
    if sorted(nu) != list(range(r)):
        raise ValueError(f"{tokens} is not a permutation of 1..{r}")
    return nu


def _maps(m, source, target, nu) -> bool:
    return ex.det(m) != 0 and all(ex.maps_arc_onto(m, source[i], target[nu[i]])
                                  for i in range(len(source)))


def _birational(spec, out, code):
    if code == 1:
        return [] if out["answer"] is False else ["no-answer not marked false"]
    m = _moebius(out["witness"])
    nu = ex.arc_perm(m, spec["arcs1"], spec["arcs2"])
    if nu is None or sorted(nu) != list(range(len(nu))):
        return ["witness does not map model1's arcs onto model2's"]
    return []


def _iso(spec, out, code):
    if code == 1:
        return [] if out["answer"] is False else ["no-answer not marked false"]
    nu = _perm(out["witness"]["perm"], len(spec["arcs1"]))
    m = _moebius(out["witness"]["moebius"])
    problems = []
    if not _maps(m, spec["arcs1"], spec["arcs2"], nu):
        problems.append("witness does not realize its permutation")
    if any(spec["counts1"][i] != spec["counts2"][j] for i, j in enumerate(nu)):
        problems.append("permutation does not match mark counts")
    return problems


def _very_transitive(spec, out, code):
    arcs, counts = spec["arcs"], spec["counts"]
    problems = []
    if out["answer"] is not spec["answer"] or out["very_transitive"] is not spec["answer"]:
        problems.append(f"verdict {out['answer']}, expected {spec['answer']}")
    if out["r"] != len(arcs):
        problems.append("wrong component count")
    for entry in out["witnesses"]:
        nu = _perm(entry["perm"], len(arcs))
        if not _maps(_moebius(entry["moebius"]), arcs, arcs, nu):
            problems.append(f"witness for {entry['perm']} does not realize it")
        if any(counts[i] != counts[j] for i, j in enumerate(nu)):
            problems.append(f"witness {entry['perm']} mixes non-homeomorphic components")
    return problems


def _realizable(spec, out, code):
    arcs = spec["arcs"]
    expected = ex.realizable(arcs)
    got = set()
    problems = []
    for entry in out["permutations"]:
        nu = _perm(entry["perm"], len(arcs))
        got.add(nu)
        if not _maps(_moebius(entry["witness"]), arcs, arcs, nu):
            problems.append(f"witness for {entry['perm']} does not realize it")
    if got != expected or out["count"] != len(expected):
        problems.append(f"{out['count']} permutations, expected {len(expected)}")
    return problems


def _stabilizer(spec, out, code):
    pts = set(spec["points"])
    maps = [_moebius(m) for m in out["stabilizer"]]
    problems = []
    if out["order"] != len(maps) or len(set(maps)) != len(maps):
        problems.append("order does not match the distinct maps listed")
    if any({ex.apply(m, p) for p in pts} != pts for m in maps):
        problems.append("a listed map does not preserve the point set")
    group = set(maps)
    if (1, 0, 0, 1) not in group or any(ex.compose(f, g) not in group for f in maps for g in maps):
        problems.append("listed maps are not a group")
    if any(g not in group for g in spec["subgroup"]):
        problems.append("a known symmetry of the point set is missing")
    return problems


def _q(roots, x) -> Fraction:
    value = Fraction(-1)
    for a in roots:
        value *= x - a
    return value


def _poly(tokens) -> list:
    return [Fraction(t) for t in tokens]


def _evaluate(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _fiber_rotation(base, lam, x) -> tuple:
    """base * psi(lambda(x)) with psi(t) = ((1 - t^2), 2t)/(1 + t^2)."""
    t = _evaluate(lam, x)
    den = 1 + t * t
    pc, ps = (1 - t * t) / den, 2 * t / den
    bc, bs = base
    return bc * pc - bs * ps, bs * pc + bc * ps


def _sine_slope(base, lam, x) -> Fraction:
    """d/dx of the sine entry of the fiber rotation."""
    t = _evaluate(lam, x)
    dt = _evaluate([k * c for k, c in enumerate(lam)][1:], x)
    den = (1 + t * t) ** 2
    bc, bs = base
    return dt * (bs * (-4 * t) + bc * 2 * (1 - t * t)) / den


def _report(out, roots) -> list:
    problems = []
    if out["passed"] is not True or out["failures"]:
        problems.append(f"certificate failed: {out['failures']}")
    if out["points_checked"] < len(roots):
        problems.append("certificate checked fewer points than the root fibers")
    return problems


def _twist(spec, out, code):
    roots = spec["roots"]
    base = (Fraction(out["twist"]["base"]["c"]), Fraction(out["twist"]["base"]["s"]))
    lam = _poly(out["twist"]["lambda"])
    problems = _report(out["report"], roots)
    if base[0] ** 2 + base[1] ** 2 != 1:
        return problems + ["base is not a rotation"]
    for (x, y, z), target in spec["pairs"]:
        c, s = _fiber_rotation(base, lam, x)
        image = (x, c * y - s * z, s * y + c * z)
        if image != tuple(target):
            problems.append(f"pair over x = {x} not transported")
        if image[1] ** 2 + image[2] ** 2 != _q(roots, x):
            problems.append(f"image over x = {x} left the surface")
    for b in spec["pins"]:
        if _fiber_rotation(base, lam, b) != (1, 0):
            problems.append(f"pin x = {b} not fixed")
    for x0, mu in spec["jets"]:
        if _fiber_rotation(base, lam, x0) != (1, 0):
            problems.append(f"jet x = {x0} not fixed")
        if _sine_slope(base, lam, x0) != 2 * mu:
            problems.append(f"jet x = {x0} has the wrong first-order term")
    return problems


def _verify_twist(spec, out, code):
    return _report(out, spec["roots"])


def _form_value(form, t) -> Fraction:
    a, b, c = form
    return a * t[0] * t[0] + b * t[0] * t[1] + c * t[1] * t[1]


def _other_root(forms, xyz, t) -> tuple:
    """Second root of the fiber quadratic A a^2 + B ab + C b^2 over xyz,
    from A a^2 + B ab + C b^2 = (t1 a - t0 b)(p a - q b)."""
    sq = [v * v for v in xyz]
    a_, b_, c_ = (sum(s * f[k] for s, f in zip(sq, forms)) for k in range(3))
    t0, t1 = t
    if t1 != 0:
        p = Fraction(a_) / t1
        q = -(b_ + t0 * p) / t1
    else:
        q = Fraction(c_) / t0
        p = -Fraction(b_) / t0
    den = p.denominator * q.denominator
    return ex.primitive(int(q * den), int(p * den))


def _geiser(spec, out, code):
    forms, xyz, t = spec["forms"], tuple(spec["xyz"]), tuple(spec["t"])
    image = out["image"]
    t2 = tuple(int(v) for v in image["t"])
    problems = []
    if tuple(int(v) for v in image["xyz"]) != xyz:
        problems.append("plane point moved")
    if tuple(int(v) for v in out["second_fibration"]) != t2:
        problems.append("second_fibration differs from the image parameter")
    if sum(v * v * _form_value(f, t2) for v, f in zip(xyz, forms)) != 0:
        problems.append("image is off the surface")
    if _other_root(forms, xyz, t) != t2 or _other_root(forms, xyz, t2) != ex.primitive(*t):
        problems.append("image is not the Vieta conjugate of the point")
    return problems


def _biconic_image(spec, out, code):
    got = {tuple(ex.untok(v) for v in arc) for arc in out["config"]}
    if got != set(spec["arcs"]) or out["r"] != len(spec["arcs"]):
        return [f"image {out['config']} is not the constructed configuration"]
    return []


_CLASS_COUNTS = {5: 16, 6: 27, 7: 56}


def _lattice(spec, out, code):
    m = spec["m"]
    classes = [tuple(c) for c in out["classes"]]
    problems = []
    if out["count"] != _CLASS_COUNTS[m] or len(set(classes)) != _CLASS_COUNTS[m]:
        problems.append(f"{len(set(classes))} classes for m = {m}")
    for d, *c in classes:
        if d * d - sum(v * v for v in c) != -1 or -3 * d - sum(c) != -1:
            problems.append(f"({d}; {c}) is not exceptional")
    if not all(out.get("checks", {}).values()):
        problems.append(f"lattice checks failed: {out['checks']}")
    if out["singular_fibres"] != {"m": m, "degree": 9 - m, "count": m - 1}:
        problems.append("singular fibre count")
    return problems


def _inside(rects, p) -> bool:
    return any(x0 <= p[0] <= x1 and y0 <= p[1] <= y1 for x0, x1, y0, y1 in rects)


def _segment_ok(rects, a, b) -> bool:
    """Probe the segment at every rectangle edge it crosses and between."""
    axis = 1 if a[0] == b[0] else 0
    lo, hi = sorted((a[axis], b[axis]))
    edges = {v for r in rects for v in (r[2 * axis], r[2 * axis + 1]) if lo < v < hi}
    stops = sorted(edges | {lo, hi})
    probes = stops + [(u + v) / 2 for u, v in zip(stops, stops[1:])]
    fixed = a[1 - axis]
    return all(_inside(rects, (v, fixed) if axis == 0 else (fixed, v)) for v in probes)


def _region_path(spec, out, code):
    if code == 1:
        return [] if out["answer"] is False else ["no-answer not marked false"]
    rects, start, end = spec["rects"], tuple(spec["start"]), tuple(spec["end"])
    segs = [tuple(tuple(Fraction(v) for v in p) for p in seg) for seg in out["path"]]
    if out["segments"] != len(segs):
        return ["segment count"]
    if not segs:
        return [] if start == end else ["empty path between distinct points"]
    problems = []
    if segs[0][0] != start or segs[-1][1] != end:
        problems.append("path does not join start to end")
    for (a, b), nxt in zip(segs, segs[1:] + [None]):
        if a == b or (a[0] != b[0] and a[1] != b[1]):
            problems.append(f"segment {a}-{b} is not axis-parallel")
            continue
        if nxt is not None and nxt[0] != b:
            problems.append("consecutive segments do not meet")
        if a[0] == b[0] and a[0] in spec["forbidden_x"]:
            problems.append(f"vertical segment on forbidden x = {a[0]}")
        if a[1] == b[1] and a[1] in spec["forbidden_y"]:
            problems.append(f"horizontal segment on forbidden y = {a[1]}")
        if not _segment_ok(rects, a, b):
            problems.append(f"segment {a}-{b} leaves the region")
    return problems


def _selftest(spec, out, code):
    problems = []
    if out["seed"] != spec["seed"] or out["passed"] is not True:
        problems.append("selftest did not pass")
    for suite in out["suites"]:
        if suite["failures"] or suite["cases"] < 1:
            problems.append(f"suite {suite['name']}: {suite['failures']}")
    return problems


_CHECKS = {
    "decide-birational": _birational,
    "decide-iso": _iso,
    "decide-verytransitive": _very_transitive,
    "realizable-perms": _realizable,
    "stabilizer": _stabilizer,
    "twist": _twist,
    "verify-twist": _verify_twist,
    "geiser": _geiser,
    "biconic-image": _biconic_image,
    "lattice": _lattice,
    "region-path": _region_path,
    "selftest": _selftest,
}
