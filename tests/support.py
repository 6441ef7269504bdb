"""Shared oracles, random generators and a subprocess runner for the tests.

The oracles here deliberately avoid the library's own decision paths: the
configuration and stabilizer oracles enumerate every ordered triple and
verify each candidate on the whole set, the planner oracle is a plain
flood fill over a boolean grid, and the interpolation oracle builds a Hermite
divided-difference table instead of solving the library's confluent
Vandermonde system.  The Fraction references at the end are the
Fraction-by-Fraction forms of the integer kernels of the fiber layers (among
them surface membership and the transport rotation) and of the linear
solver, and the map-building forms of the Moebius witness search.
The P^1 order references are the Fraction forms of the walk key, the arc
test and the interior point, which the library decides on integer brackets.
The pairwise disjointness check and the gap-run walk are the references for
the boundary walk that IntervalConfig and biconic_interval_image share, and
the polyline merge is the reference for the planner's corners.  The
Geiser reference divides the known root out of the fiber quadratic, branch by
branch on which coordinate of that root is zero; it and the image reference
evaluate the biconic forms in Fractions, form by form, and the image
reference finds each form's roots in Fractions, where the library reads both
off cleared integer coefficients.

The reference parser is the argparse parser the CLI built before it read its
command line by hand; on 3.11 it is the oracle of that reader.
"""

import argparse
import functools
import heapq
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

import conicbundle
from conicbundle import (
    ConicModel,
    IntervalConfig,
    Moebius,
    RatPoly,
    Rect,
    Region,
    Segment,
    SegPath,
    SurfPoint,
    moebius_from_triples,
    parse_rat,
    validate_path,
)
from conicbundle.cli import SUBCOMMANDS
from conicbundle.delpezzo import BiPoint
from conicbundle.errors import (
    DuplicateNode,
    ImageIsWholeLine,
    InfiniteStabilizer,
    InvalidModel,
    InvalidTriple,
    IrrationalBoundary,
    NotOnSurface,
    OnForbiddenLine,
    OutsideRegion,
    Unsupported,
)
from conicbundle.projline import (
    INF,
    LADDER,
    Interval,
    ProjPoint,
    clear_denominators,
)
from conicbundle.twist import Rotation, ladder_fibers


def moebius_from_json(obj):
    """The Moebius map of a witness as the CLI writes it, {"a", "b", "c", "d"}."""
    return Moebius.from_rational(*(parse_rat(obj[k]) for k in "abcd"))


def decimal_digits(n):
    """str(n) at any size, built from 1,000-digit chunks so that
    sys.get_int_max_str_digits() never applies."""
    chunk = 10 ** 1000
    sign, n = ("-" if n < 0 else ""), abs(n)
    parts = []
    while True:
        n, low = divmod(n, chunk)
        parts.append(low)
        if not n:
            break
    return sign + str(parts[-1]) + "".join(str(p).zfill(1000) for p in reversed(parts[:-1]))


def run_python(*args, stdin=None, python=None):
    """A fresh interpreter run, by default of this one, with this checkout's
    conicbundle importable."""
    env = dict(os.environ, PYTHONPATH=str(Path(conicbundle.__file__).resolve().parents[1]))
    return subprocess.run([python or sys.executable, *args], env=env, input=stdin,
                          capture_output=True, text=True, timeout=60)


_PROBE = "import os, sys; print(os.path.realpath(sys.executable), sys.version.split()[0])"


def other_interpreters():
    """{executable: version} of each interpreter other than this one that
    requires-python (>= 3.10) admits: python3.10 to python3.13 on PATH and
    under ~/.pyenv/versions, each one that starts, once per real path."""
    names = [f"python3.{minor}" for minor in range(10, 14)]
    candidates = [shutil.which(name) for name in names]
    candidates += [str(p) for name in names
                   for p in sorted(Path.home().glob(f".pyenv/versions/*/bin/{name}"))]
    found, seen = {}, {os.path.realpath(sys.executable)}
    for python in filter(None, candidates):
        try:
            proc = subprocess.run([python, "-c", _PROBE], capture_output=True, text=True,
                                  timeout=60)
        except OSError:
            continue
        if proc.returncode == 0:  # a pyenv shim of an inactive version exits 127
            real, version = proc.stdout.rsplit(maxsplit=1)
            if real not in seen:
                seen.add(real)
                found[python] = version
    return found


# ---------------------------------------------------------------------------
# Command-line oracle: the CLI's former argparse parser.

_WIDTH = 78  # argparse's help width: the terminal's 80 columns less 2


def _usage(prog: str, *parts: str) -> str:
    """argparse 3.11's usage text at _WIDTH, which every version prints
    verbatim: parts packed greedily after "usage: prog", a wrapped part
    aligned under the first."""
    indent = " " * len(f"usage: {prog} ")
    lines = [f"usage: {prog}"]
    for part in parts:
        if len(lines[-1]) + 1 + len(part) > _WIDTH:
            lines.append(indent + part)
        else:
            lines[-1] += " " + part
    return "\n".join(lines)[len("usage: "):]


def _formatter(prog: str) -> argparse.HelpFormatter:
    return argparse.HelpFormatter(prog, width=_WIDTH)


class _Parser(argparse.ArgumentParser):
    def _check_value(self, action, value):
        # 3.11's message; newer patch releases, 3.13.13 among them, drop the quotes
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {value!r} (choose from {choices})"
            raise argparse.ArgumentError(action, message)


@functools.cache
def reference_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser as it was: explicit usage texts at a fixed
    width, so that neither COLUMNS nor the interpreter changes a usage byte."""
    parser = _Parser(
        prog="conicbundle", formatter_class=_formatter,
        usage=_usage("conicbundle", "[-h]", "{" + ",".join(SUBCOMMANDS) + "}", "..."),
        description="Exact decision procedures for real conic-bundle models.")
    # an explicit prog: argparse would derive the subcommands' from the usage
    sub = parser.add_subparsers(dest="command", required=True, prog="conicbundle")
    for name in SUBCOMMANDS:
        source = "[--seed SEED]" if name == "selftest" else "[--input INPUT]"
        p = sub.add_parser(name, formatter_class=_formatter,
                           usage=_usage(f"conicbundle {name}", "[-h]", source, "[--output OUTPUT]"))
        if name == "selftest":
            p.add_argument("--seed", type=int, default=0)
        else:
            p.add_argument("--input", default=None, help="JSON request file (default: stdin)")
        p.add_argument("--output", default=None, help="output file (default: stdout)")
    return parser


def reference_read_argv(argv) -> dict:
    """cli._read_argv by the reference parser: the values the parsed command
    line names, or SystemExit after help or a usage error."""
    return vars(reference_parser().parse_args(argv))


# ---------------------------------------------------------------------------
# Configuration-equivalence oracle: try every ordered boundary triple.


def _verify_by_membership(m, c1, c2):
    """Permutation nu if m maps c1 onto c2, decided by boundary bijection
    plus one interior membership sample per arc."""
    b1 = c1.boundary_points()
    b2 = set(c2.boundary_points())
    if {m.apply(p) for p in b1} != b2:
        return None
    nu = []
    for arc in c1.intervals:
        image_sample = m.apply(reference_interior_point(arc))
        hit = [j for j, target in enumerate(c2.intervals)
               if reference_contains(target, image_sample)]
        if len(hit) != 1:
            return None
        nu.append(hit[0])
    if sorted(nu) != list(range(c1.r)):
        return None
    return tuple(nu)


def oracle_equiv_all(c1, c2):
    """Every (witness, permutation) pair found by brute force over triples."""
    if c1.r != c2.r:
        return []
    if c1.r == 0:
        return [(Moebius.identity(), ())]
    found = []
    seen = set()
    b1 = c1.boundary_points()
    b2 = c2.boundary_points()
    if c1.r == 1:
        i1 = reference_interior_point(c1.intervals[0])
        i2 = reference_interior_point(c2.intervals[0])
        candidates = [(b2[0], b2[1], i2), (b2[1], b2[0], i2)]
        sources = (b1[0], b1[1], i1)
        for cand in candidates:
            try:
                m = moebius_from_triples(*sources, *cand)
            except InvalidTriple:
                continue
            nu = _verify_by_membership(m, c1, c2)
            if nu is not None and (m.a, m.b, m.c, m.d) not in seen:
                seen.add((m.a, m.b, m.c, m.d))
                found.append((m, nu))
        return found
    for t0 in b2:
        for t1 in b2:
            if t1 == t0:
                continue
            for t2 in b2:
                if t2 == t0 or t2 == t1:
                    continue
                m = moebius_from_triples(b1[0], b1[1], b1[2], t0, t1, t2)
                key = (m.a, m.b, m.c, m.d)
                if key in seen:
                    continue
                nu = _verify_by_membership(m, c1, c2)
                if nu is not None:
                    seen.add(key)
                    found.append((m, nu))
    return found


def oracle_equiv(c1, c2, nu=None):
    for m, found in oracle_equiv_all(c1, c2):
        if nu is None or found == tuple(nu):
            return m, found
    return None


def oracle_stabilizer(points):
    """The stabilizer by brute force: every ordered triple as the image of
    the first three points, each candidate tested on the whole set."""
    pts = sorted(set(points), key=reference_walk_key)
    if len(pts) < 3:
        raise InfiniteStabilizer(f"{len(pts)} points span an infinite stabilizer")
    base = pts[:3]
    found = {}
    pset = set(pts)
    for t0 in pts:
        for t1 in pts:
            if t1 == t0:
                continue
            for t2 in pts:
                if t2 == t0 or t2 == t1:
                    continue
                m = moebius_from_triples(base[0], base[1], base[2], t0, t1, t2)
                if {m.apply(p) for p in pts} == pset:
                    found.setdefault((m.a, m.b, m.c, m.d), m)
    return [found[k] for k in sorted(found)]


def witness_maps_config(m, c1, c2, nu):
    """Exact re-validation of a claimed witness, endpoint by endpoint."""
    for i, arc in enumerate(c1.intervals):
        target = c2.intervals[nu[i]]
        images = {m.apply(arc.start), m.apply(arc.end)}
        if images != {target.start, target.end}:
            return False
        if not reference_contains(target, m.apply(reference_interior_point(arc))):
            return False
    return True


# ---------------------------------------------------------------------------
# Random generators.


def random_config(rng, r, low=-60, high=60, dens=(1, 1, 1, 2, 2, 3, 4, 5, 6)):
    """A configuration of r disjoint finite intervals with random rational
    boundaries."""
    while True:
        points = set()
        while len(points) < 2 * r:
            points.add(Fraction(rng.randint(low, high), rng.choice(dens)))
        ordered = sorted(points)
        pairs = [(ordered[2 * i], ordered[2 * i + 1]) for i in range(r)]
        return IntervalConfig.from_rat_pairs(pairs)


def config_model(config):
    """The model whose interval image is the given finite configuration:
    its boundary rationals, sorted, are the roots."""
    return ConicModel(tuple(sorted(p.to_rat() for p in config.boundary_points())))


def random_model(rng, r, low=-8, high=8):
    roots = set()
    while len(roots) < 2 * r:
        roots.add(rng.randint(low, high))
    return ConicModel(tuple(sorted(Fraction(a) for a in roots)))


def model_through_point(rng, r, height, zero_share=0.2):
    """A model with r intervals and a rational point (x, y, z) on its surface,
    built from the point and never from a point search.

    Roots a1 < x and 2r - 2 roots beyond x are drawn; with P the product of
    (a - x) over the latter, Q(x) = (x - a1)(a2 - x) P is y^2 + z^2 for
    a2 = x + (y^2 + z^2) / ((x - a1) P), kept when it is below the others.
    So the point lies in the first interval, on its root a2 when y = z = 0;
    half the models are mirrored (x -> -x), which puts it in the last one.
    """
    def rat():
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    def gap():
        return Fraction(rng.randint(1, height), rng.randint(1, height))

    while True:
        x, y, z = rat(), rat(), rat()
        if rng.random() < zero_share:
            y, z = rng.choice(((0, z), (y, 0), (0, 0)))
        a1 = x - gap()
        beyond = sorted({x + gap() for _ in range(2 * r - 2)})
        prod = 1
        for a in beyond:
            prod *= a - x
        a2 = x + (Fraction(y) ** 2 + Fraction(z) ** 2) / ((x - a1) * prod)
        if len(beyond) == 2 * r - 2 and all(a2 < a for a in beyond):
            break
    roots = [a1, a2, *beyond]
    if rng.random() < 0.5:
        roots, x = sorted(-a for a in roots), -x
    return ConicModel(tuple(roots)), SurfPoint(x, y, z)


def random_moebius(rng, size=6):
    while True:
        a, b, c, d = (rng.randint(-size, size) for _ in range(4))
        if a * d - b * c != 0:
            return Moebius(a, b, c, d)


def model_fibers_with_points(model, want, skip=()):
    """Rational points on distinct fibers, none over skip: the ladder fibers
    of each interval in turn, at most ceil(want / r) + 1 per interval."""
    out = []
    per_interval = -(-want // model.r) + 1
    for lo, hi in zip(model.roots[::2], model.roots[1::2]):
        found_here = 0
        for point in ladder_fibers(model, lo, hi):
            if point.x in skip or any(p.x == point.x for p in out):
                continue
            out.append(point)
            found_here += 1
            if found_here == per_interval:
                break
    return out[:want]


# ---------------------------------------------------------------------------
# Planner oracle: flood fill on the cut-plus-midpoint grid.


def _oracle_grid(cuts):
    values = sorted(set(Fraction(c) for c in cuts))
    grid = []
    for i, v in enumerate(values):
        grid.append(v)
        if i + 1 < len(values):
            grid.append((v + values[i + 1]) / 2)
    return grid


def _inside_rects(rects, p):
    return any(r[0] <= p[0] <= r[1] and r[2] <= p[1] <= r[3] for r in rects)


def grid_reachable(region, start, end, forbidden_x=(), forbidden_y=()):
    """Flood-fill reachability over a grid finer than every coordinate gap."""
    rects = [(r.x0, r.x1, r.y0, r.y1) for r in region.rects]
    start = (Fraction(start[0]), Fraction(start[1]))
    end = (Fraction(end[0]), Fraction(end[1]))
    fx = {Fraction(v) for v in forbidden_x}
    fy = {Fraction(v) for v in forbidden_y}
    xs = _oracle_grid([r[0] for r in rects] + [r[1] for r in rects]
                      + list(fx) + [start[0], end[0]])
    ys = _oracle_grid([r[2] for r in rects] + [r[3] for r in rects]
                      + list(fy) + [start[1], end[1]])
    inside = [[_inside_rects(rects, (x, y)) for y in ys] for x in xs]
    six, siy = xs.index(start[0]), ys.index(start[1])
    eix, eiy = xs.index(end[0]), ys.index(end[1])
    if not inside[six][siy] or not inside[eix][eiy]:
        return False
    frontier = [(six, siy)]
    seen = {(six, siy)}
    while frontier:
        i, j = frontier.pop()
        if (i, j) == (eix, eiy):
            return True
        steps = []
        if i + 1 < len(xs):
            steps.append((i + 1, j, "h"))
        if i - 1 >= 0:
            steps.append((i - 1, j, "h"))
        if j + 1 < len(ys):
            steps.append((i, j + 1, "v"))
        if j - 1 >= 0:
            steps.append((i, j - 1, "v"))
        for ni, nj, axis in steps:
            if (ni, nj) in seen or not inside[ni][nj]:
                continue
            if axis == "v" and xs[i] in fx:
                continue
            if axis == "h" and ys[j] in fy:
                continue
            mid = ((xs[i] + xs[ni]) / 2, (ys[j] + ys[nj]) / 2)
            if not _inside_rects(rects, mid):
                continue
            seen.add((ni, nj))
            frontier.append((ni, nj))
    return False


def random_region(rng, max_rects=5, span=8):
    rects = []
    for _ in range(rng.randint(2, max_rects)):
        x0 = rng.randint(0, span - 1)
        y0 = rng.randint(0, span - 1)
        rects.append(Rect(x0, x0 + rng.randint(1, 3), y0, y0 + rng.randint(1, 3)))
    return Region(tuple(rects))


def random_region_point(rng, region):
    rect = rng.choice(region.rects)
    x = rect.x0 + Fraction(rng.randint(1, 3), 4) * (rect.x1 - rect.x0)
    y = rect.y0 + Fraction(rng.randint(1, 3), 4) * (rect.y1 - rect.y0)
    return (x, y)


def hermite_interpolate(nodes) -> RatPoly:
    """Minimal-degree polynomial through values and optional derivatives.

    Nodes are (x, value) or (x, value, derivative) with pairwise distinct x.
    Hermite divided differences (Stoer & Bulirsch, Introduction to Numerical
    Analysis, 2.1.5): a node with a derivative enters the table twice, and
    the first divided difference of that doubled abscissa is the derivative.
    """
    zs = []
    table = []
    slopes = {}  # table index of a doubled abscissa's second copy -> derivative
    for node in nodes:
        x, value = Fraction(node[0]), Fraction(node[1])
        deriv = Fraction(node[2]) if len(node) > 2 and node[2] is not None else None
        if x in zs:
            raise DuplicateNode(f"repeated interpolation node x = {x}")
        zs.append(x)
        table.append(value)
        if deriv is not None:
            slopes[len(zs)] = deriv
            zs.append(x)
            table.append(value)
    # Column k overwrites table[i] with f[z_{i-k}, ..., z_i], bottom up; only
    # the doubled abscissae of a jet can coincide, and only in column 1.
    for k in range(1, len(zs)):
        for i in range(len(zs) - 1, k - 1, -1):
            if zs[i] == zs[i - k]:
                table[i] = slopes[i]
            else:
                table[i] = (table[i] - table[i - 1]) / (zs[i] - zs[i - k])
    # Newton form f[z_0] + f[z_0, z_1] (x - z_0) + ..., expanded by Horner.
    poly = RatPoly.zero()
    for z, coeff in zip(reversed(zs), reversed(table)):
        poly = poly * RatPoly((-z, Fraction(1))) + RatPoly((coeff,))
    return poly


# ---------------------------------------------------------------------------
# Fraction references: the integer kernels of RatPoly.evaluate and of
# RatPoly.ratio_at's derivative, ConicModel.q_at, on_surface, ladder, the
# rotations and solve_linear, one Fraction operation at a time.


def reference_evaluate(poly, x):
    """Horner's rule on Fractions."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def reference_derivative(poly):
    """The derivative, coefficient by coefficient in Fractions."""
    return RatPoly(tuple(k * c for k, c in enumerate(poly.coeffs) if k > 0))


def reference_q_at(model, x):
    """Q(x) = -(x - a_1)...(x - a_2r) as a product of Fractions."""
    value = Fraction(-1)
    for a in model.roots:
        value *= Fraction(x) - a
    return value


def reference_on_surface(model, p):
    """y^2 + z^2 = Q(x) in Fractions."""
    return p.y * p.y + p.z * p.z == reference_q_at(model, p.x)


def reference_rotation_between(model, x, frm, to):
    """The rotation (c, s) = (v + iw)(y - iz) / rho of the circle
    y^2 + z^2 = rho = Q(x) sending frm = (y, z) to to = (v, w), in Fractions,
    for two points on that circle; the public constructor checks the circle
    once more."""
    rho = reference_q_at(model, x)
    y, z = Fraction(frm[0]), Fraction(frm[1])
    v, w = Fraction(to[0]), Fraction(to[1])
    return Rotation((y * v + z * w) / rho, (y * w - z * v) / rho)


def reference_ladder(lo, hi):
    """The rungs lo + (num/den)(hi - lo), 0 < num < den, for den in LADDER."""
    return [[lo + Fraction(num, den) * (hi - lo) for num in range(1, den)] for den in LADDER]


def reference_rotation_from_param(lam):
    """(c, s) of psi(lam) = ((1 - lam^2)/(1 + lam^2), 2 lam/(1 + lam^2))."""
    lam = Fraction(lam)
    den = 1 + lam * lam
    return (1 - lam * lam) / den, 2 * lam / den


def reference_on_unit_circle(c, s):
    c, s = Fraction(c), Fraction(s)
    return c * c + s * s == 1


def reference_compose(r1, r2):
    return r1.c * r2.c - r1.s * r2.s, r1.s * r2.c + r1.c * r2.s


def reference_apply(rot, y, z):
    return rot.c * y - rot.s * z, rot.s * y + rot.c * z


def reference_fiber_rotation(twist, x):
    """(c, s) of R0 * psi(lambda(x)) in Fractions: the base's (c, s) times the
    circle parametrization at lambda(x), by Horner's rule."""
    c, s = reference_rotation_from_param(reference_evaluate(twist.lam, x))
    return reference_compose(twist.base, SimpleNamespace(c=c, s=s))


def reference_solve_linear(rows, rhs):
    """Gauss-Jordan elimination on Fractions, with the library's pivot rule:
    the first nonzero entry at or below the diagonal."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def reference_through_standard(p1, p2, p3):
    """The matrix sending (1:0), (0:1), (1:1) to p1, p2, p3 through Fractions:
    columns lam*(p1) and mu*(p2) where lam*p1 + mu*p2 = p3."""
    det = p1.u0 * p2.u1 - p1.u1 * p2.u0
    lam = Fraction(p3.u0 * p2.u1 - p3.u1 * p2.u0, det)
    mu = Fraction(p1.u0 * p3.u1 - p1.u1 * p3.u0, det)
    return Moebius.from_rational(lam * p1.u0, mu * p2.u0, lam * p1.u1, mu * p2.u1)


def reference_dihedral_maps(src, dst):
    """The 2n correspondences of projline._dihedral_maps, each tested by
    building its map and applying it to every remaining point."""
    n = len(src)
    for sign in (1, -1):
        for k in range(n):
            targets = [dst[(k + sign * i) % n] for i in range(n)]
            m = moebius_from_triples(*src[:3], *targets[:3])
            if all(m.apply(p) == q for p, q in zip(src[3:], targets[3:])):
                yield m


# ---------------------------------------------------------------------------
# P^1 order references: the Fraction forms of the walk key, the arc test and
# the interior point, which the library decides on integer brackets.


def reference_walk_key(p):
    """One positive turn of the circle from infinity as a Fraction key:
    infinity first, then the finite points by value."""
    if p.is_infinity:
        return (0, Fraction(0))
    return (1, p.to_rat())


def reference_contains(arc, p):
    """Whether the closed arc holds p, by the walk keys of its ends."""
    ks, ke, kp = reference_walk_key(arc.start), reference_walk_key(arc.end), reference_walk_key(p)
    if ks < ke:
        return ks <= kp <= ke
    return kp >= ks or kp <= ke


def reference_interior_point(arc):
    """end - 1 when the arc starts at infinity, start + 1 when it holds
    infinity, else the midpoint of its ends, in Fractions."""
    if arc.start.is_infinity:
        return ProjPoint.from_rat(arc.end.to_rat() - 1)
    if reference_contains(arc, INF):
        return ProjPoint.from_rat(arc.start.to_rat() + 1)
    return ProjPoint.from_rat((arc.start.to_rat() + arc.end.to_rat()) / 2)


# ---------------------------------------------------------------------------
# Boundary-walk references: the pairwise disjointness check and the gap-run
# walk that the single sorted walk replaced.


def reference_interval_config(arcs):
    """The canonical arcs of IntervalConfig(arcs), or its InvalidModel: every
    pair of arcs tested for a shared point, then a sort by first boundary
    point in the walk."""
    arcs = tuple(arcs)
    boundary = [arc.start for arc in arcs] + [arc.end for arc in arcs]
    if len(set(boundary)) != len(boundary):
        raise InvalidModel("boundary points of a configuration must be distinct")
    for i, a in enumerate(arcs):
        for b in arcs[i + 1:]:
            if (reference_contains(a, b.start) or reference_contains(a, b.end)
                    or reference_contains(b, a.start) or reference_contains(b, a.end)):
                raise InvalidModel(f"arcs {a} and {b} are not disjoint")
    return tuple(sorted(arcs, key=lambda arc: min(reference_walk_key(arc.start),
                                                  reference_walk_key(arc.end))))


def reference_values_at(model, t):
    """(m1, m2, m3) on the integer representative of t, in Fractions."""
    a, b = Fraction(t.u0), Fraction(t.u1)
    return tuple(f.al * a * a + f.be * a * b + f.ga * b * b for f in model.forms)


def reference_fiber_quadratic(model, xyz):
    """The surface equation over the plane point xyz as a binary quadratic
    A a^2 + B ab + C b^2 with Fraction coefficients."""
    x, y, z = xyz
    x2, y2, z2 = x * x, y * y, z * z
    a = x2 * model.m1.al + y2 * model.m2.al + z2 * model.m3.al
    b = x2 * model.m1.be + y2 * model.m2.be + z2 * model.m3.be
    c = x2 * model.m1.ga + y2 * model.m2.ga + z2 * model.m3.ga
    return a, b, c


def reference_rational_roots(form):
    """The roots of a BinQuadForm in P^1(Q), in Fractions; raises
    IrrationalBoundary, quoting the form's own discriminant, when its real
    roots are irrational."""
    if form.al == 0:
        # m = b (be*a + ga*b) vanishes at infinity, and at -ga/be when
        # be != 0; be == 0 makes infinity a double root.
        roots = [ProjPoint.infinity()]
        if form.be != 0:
            roots.append(ProjPoint.from_rat(-form.ga / form.be))
        return roots
    d = form.disc
    if d < 0:
        return []
    rn, rd = isqrt(d.numerator), isqrt(d.denominator)
    if rn * rn != d.numerator or rd * rd != d.denominator:
        raise IrrationalBoundary(f"form has irrational real roots (disc {d})")
    first = (-form.be + Fraction(rn, rd)) / (2 * form.al)
    second = (-form.be - Fraction(rn, rd)) / (2 * form.al)
    if first == second:
        return [ProjPoint.from_rat(first)]
    return [ProjPoint.from_rat(first), ProjPoint.from_rat(second)]


def reference_biconic_interval_image(model):
    """biconic_interval_image by a walk over the gaps from the first gap
    outside the image, keeping the start of the current run of in-image
    gaps."""
    roots = []
    for f in model.forms:
        for root in reference_rational_roots(f):
            if root not in roots:
                roots.append(root)
    if not roots:
        sample = reference_values_at(model, ProjPoint(0, 1))
        if all(v > 0 for v in sample) or all(v < 0 for v in sample):
            return IntervalConfig(())
        raise ImageIsWholeLine("every parameter carries real points")
    roots.sort(key=reference_walk_key)
    n = len(roots)
    gap_in_image = []
    for i in range(n):
        if n > 1:
            probe = reference_interior_point(Interval(roots[i], roots[(i + 1) % n]))
        elif roots[0].is_infinity:
            probe = ProjPoint(0, 1)
        else:
            probe = ProjPoint.from_rat(roots[0].to_rat() + 1)
        values = reference_values_at(model, probe)
        gap_in_image.append(not (all(v > 0 for v in values) or all(v < 0 for v in values)))
    if all(gap_in_image):
        raise ImageIsWholeLine("every parameter carries real points")
    start_gap = next(i for i in range(n) if not gap_in_image[i])
    arcs = []
    i = (start_gap + 1) % n
    run_start = None
    for _ in range(n):
        if gap_in_image[i]:
            if run_start is None:
                run_start = roots[i]
        else:
            if run_start is not None:
                arcs.append(Interval(run_start, roots[i]))
                run_start = None
        i = (i + 1) % n
    if run_start is not None:
        arcs.append(Interval(run_start, roots[start_gap]))
    return IntervalConfig(tuple(arcs))


# ---------------------------------------------------------------------------
# Planner reference: the same search, with the path read as a polyline of
# grid points and merged into maximal collinear segments afterwards.


def _reference_segments(path_points):
    segments = []
    i = 0
    while i + 1 < len(path_points):
        j = i + 1
        vertical = path_points[i][0] == path_points[j][0]
        while j + 1 < len(path_points):
            same = path_points[j][0] == path_points[j + 1][0]
            if same != vertical:
                break
            j += 1
        segments.append(Segment(path_points[i], path_points[j]))
        i = j
    return segments


def reference_find_rect_path(region, start, end, forbidden_x=(), forbidden_y=()):
    """find_rect_path with a move generator, a goal-state sentinel and the
    polyline merge in place of the corners read off the search."""
    start = (Fraction(start[0]), Fraction(start[1]))
    end = (Fraction(end[0]), Fraction(end[1]))
    fx = {Fraction(v) for v in forbidden_x}
    fy = {Fraction(v) for v in forbidden_y}
    if not region.contains(start):
        raise OutsideRegion(f"start {start} is outside the region")
    if not region.contains(end):
        raise OutsideRegion(f"end {end} is outside the region")
    for p, name in ((start, "start"), (end, "end")):
        if p[0] in fx or p[1] in fy:
            raise OnForbiddenLine(f"{name} {p} lies on a forbidden line")
    if start == end:
        return SegPath(())

    xs = _oracle_grid([r.x0 for r in region.rects] + [r.x1 for r in region.rects]
                      + list(fx) + [start[0], end[0]])
    ys = _oracle_grid([r.y0 for r in region.rects] + [r.y1 for r in region.rects]
                      + list(fy) + [start[1], end[1]])
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    inside = [[region.contains((x, y)) for y in ys] for x in xs]

    def moves(i, j):
        # (di, dj, axis): axis 0 = horizontal, 1 = vertical
        if i + 1 < len(xs):
            yield i + 1, j, 0
        if i - 1 >= 0:
            yield i - 1, j, 0
        if j + 1 < len(ys):
            yield i, j + 1, 1
        if j - 1 >= 0:
            yield i, j - 1, 1

    start_state = (xi[start[0]], yi[start[1]], -1)
    goal = (xi[end[0]], yi[end[1]])
    best = {start_state: (0, 0)}
    parent = {}
    heap = [(0, 0, start_state)]
    goal_state = None
    while heap:
        turns, steps, state = heapq.heappop(heap)
        if best.get(state, (-1, -1)) != (turns, steps):
            continue
        i, j, axis = state
        if (i, j) == goal:
            goal_state = state
            break
        for ni, nj, naxis in moves(i, j):
            if not inside[ni][nj]:
                continue
            if naxis == 1 and xs[i] in fx:
                continue
            if naxis == 0 and ys[j] in fy:
                continue
            ncost = (turns + (1 if axis not in (-1, naxis) else 0), steps + 1)
            nstate = (ni, nj, naxis)
            if nstate not in best or ncost < best[nstate]:
                best[nstate] = ncost
                parent[nstate] = state
                heapq.heappush(heap, (ncost[0], ncost[1], nstate))
    if goal_state is None:
        return None
    points = []
    state = goal_state
    while state is not None:
        points.append((xs[state[0]], ys[state[1]]))
        state = parent.get(state)
    points.reverse()
    path = SegPath(tuple(_reference_segments(points)))
    if not validate_path(region, path, start, end, fx, fy):
        raise AssertionError("planner produced a path that fails validation")
    return path


def reference_geiser(model, p):
    """The second root of the fiber quadratic over p.xyz, by dividing out the
    known root p.t = (a0 : b0) with a branch on which coordinate is zero."""
    x, y, z = p.xyz
    v1, v2, v3 = reference_values_at(model, p.t)
    if x * x * v1 + y * y * v2 + z * z * v3 != 0:
        raise NotOnSurface(f"{p.xyz} over {p.t} is not on the surface")
    a_coef, b_coef, c_coef = reference_fiber_quadratic(model, p.xyz)
    a0, b0 = p.t.u0, p.t.u1
    # A a^2 + B ab + C b^2 = (b0 a - a0 b)(pp a - qq b)
    if b0 != 0:
        pp = Fraction(a_coef, b0)
        qq = Fraction(c_coef, a0) if a0 != 0 else Fraction(-b_coef, b0)
    else:
        pp = Fraction(-b_coef)
        qq = Fraction(c_coef)
    if pp == 0 and qq == 0:
        raise Unsupported("fiber quadratic vanishes identically over this point")
    return BiPoint(p.xyz, ProjPoint(*clear_denominators((qq, pp))))
