"""Canonical conic-bundle models y^2 + z^2 = Q(x) and their decisions.

Q is normalized to minus the monic product over the 2r roots, so Q >= 0
exactly on the r closed intervals cut out by consecutive root pairs and is
negative on the unbounded gaps.  The real locus fibers over those intervals;
each interval carries one connected component (a sphere, or a non-orientable
surface once marked points are blown up).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import (
    InvalidModel,
    IrrationalScale,
    MoveInfinityFirst,
    NotOnSurface,
    NotProportional,
)
from .polynomial import RatPoly
from .projline import (
    INF,
    Interval,
    IntervalConfig,
    Moebius,
    ProjPoint,
    Rat,
    _equiv_candidates,
    config_equiv,
    format_rat,
    rational_sqrt,
    realizable_permutations,
)

RULE_AT_MOST_TWO = "thm1.2(2a)"
RULE_NO_HOMEO_PAIR = "thm1.2(2b)"
RULE_ONE_PAIR_SWAP = "thm1.2(2c)"
RULE_ALL_PERMS = "thm1.2(2d)"
RULE_ONE_PAIR_FAIL = "thm1.2(2c)-unrealizable"
RULE_ALL_PERMS_FAIL = "thm1.2(2d)-unrealizable"
RULE_TOO_MANY = "thm1.2-more-than-3"
RULE_COMPONENTWISE = "thm1.1"
RULE_BIRATIONAL = "thm6.1(3)"
RULE_MARKED_ISO = "lem9.1"


@dataclass(frozen=True)
class ConicModel:
    """Roots a_1 < ... < a_{2r} of Q(x) = -(x - a_1)...(x - a_{2r})."""

    roots: tuple

    def __post_init__(self):
        roots = tuple(Fraction(a) for a in self.roots)
        if len(roots) < 2 or len(roots) % 2 != 0:
            raise InvalidModel("need a positive even number of roots")
        if any(roots[i] >= roots[i + 1] for i in range(len(roots) - 1)):
            raise InvalidModel("roots must be strictly increasing")
        object.__setattr__(self, "roots", roots)

    @property
    def r(self) -> int:
        return len(self.roots) // 2

    @cached_property
    def _root_ratios(self) -> tuple:
        return tuple(a.as_integer_ratio() for a in self.roots)

    def q_ratio(self, x: Rat) -> tuple:
        """Q(x) as integers (num, den) with den > 0, not reduced."""
        p, q = x.as_integer_ratio()
        num, den = -1, 1
        for an, ad in self._root_ratios:
            num *= p * ad - an * q
            den *= q * ad
        return num, den

    def q_at(self, x) -> Rat:
        return Fraction(*self.q_ratio(Fraction(x)))

    def q_poly(self) -> RatPoly:
        return RatPoly.from_roots(self.roots, scale=-1)

    def as_json(self) -> dict:
        return {"roots": [format_rat(a) for a in self.roots]}


@dataclass(frozen=True)
class SurfPoint:
    """An exact rational point (x, y, z) with y^2 + z^2 = Q(x)."""

    x: Rat
    y: Rat
    z: Rat

    def __post_init__(self):
        for name in ("x", "y", "z"):
            if not isinstance(getattr(self, name), Fraction):
                object.__setattr__(self, name, Fraction(getattr(self, name)))

    def as_json(self) -> dict:
        return {"x": format_rat(self.x), "y": format_rat(self.y), "z": format_rat(self.z)}


def on_surface(model: ConicModel, p: SurfPoint) -> bool:
    """Exact membership test y^2 + z^2 - Q(x) = 0."""
    return p.y * p.y + p.z * p.z == model.q_at(p.x)


def interval_image(model: ConicModel) -> IntervalConfig:
    """The configuration of intervals [a_1, a_2], [a_3, a_4], ..."""
    arcs = tuple(
        Interval(ProjPoint.from_rat(model.roots[2 * i]), ProjPoint.from_rat(model.roots[2 * i + 1]))
        for i in range(model.r))
    return IntervalConfig(arcs)


def model_from_config(config: IntervalConfig) -> ConicModel:
    """The model whose interval image is the given finite configuration."""
    if config.r < 1:
        raise InvalidModel("a model needs at least one interval")
    for arc in config.intervals:
        if arc.contains(INF):
            raise MoveInfinityFirst(f"{arc} touches infinity; conjugate it away first")
    return ConicModel(tuple(sorted(p.to_rat() for arc in config.intervals
                                   for p in (arc.start, arc.end))))


@dataclass(frozen=True)
class ScalingIso:
    """The fiberwise isomorphism onto y^2 + z^2 = lam * Q(x).

    The point map (x, y, z) -> (x, s*y, s*z) with s = sqrt(lam) is applied
    exactly only when lam is a rational square; otherwise the factor is
    recorded and application is refused.
    """

    lam: Rat
    sqrt: Optional[Rat]

    @property
    def exact(self) -> bool:
        return self.sqrt is not None

    def apply(self, p: SurfPoint) -> SurfPoint:
        if self.sqrt is None:
            raise IrrationalScale(f"{self.lam} is not a rational square; symbolic only")
        return SurfPoint(p.x, self.sqrt * p.y, self.sqrt * p.z)


def scaling_iso(model: ConicModel, qprime: RatPoly) -> ScalingIso:
    """The positive constant lam with qprime = lam * Q, as a point map."""
    q = model.q_poly()
    if qprime.degree != q.degree or qprime.is_zero:
        raise NotProportional("polynomials have different degrees")
    lam = qprime.coeffs[-1] / q.coeffs[-1]
    if lam <= 0:
        raise NotProportional(f"proportionality factor {lam} is not positive")
    if q * lam != qprime:
        raise NotProportional("polynomial is not a constant multiple of Q")
    return ScalingIso(lam, rational_sqrt(lam))


def component_index(model: ConicModel, p: SurfPoint) -> int:
    """1-based index of the interval [a_{2i-1}, a_{2i}] containing x."""
    if not on_surface(model, p):
        raise NotOnSurface(f"({p.x}, {p.y}, {p.z}) is not on the surface")
    for i in range(model.r):
        if model.roots[2 * i] <= p.x <= model.roots[2 * i + 1]:
            return i + 1
    raise NotOnSurface("surface point outside every interval")  # unreachable


@dataclass(frozen=True)
class MarkedModel:
    """A model plus distinct real points recording blow-up centres."""

    model: ConicModel
    marks: tuple

    def __post_init__(self):
        marks = tuple(self.marks)
        if len(set(marks)) != len(marks):
            raise InvalidModel("marks must be pairwise distinct")
        for p in marks:
            if not on_surface(self.model, p):
                raise NotOnSurface(f"mark ({p.x}, {p.y}, {p.z}) is off the surface")
        object.__setattr__(self, "marks", marks)

    def mark_counts(self) -> tuple:
        counts = [0] * self.model.r
        for p in self.marks:
            counts[component_index(self.model, p) - 1] += 1
        return tuple(counts)

    def as_json(self) -> dict:
        obj = self.model.as_json()
        obj["marks"] = [p.as_json() for p in self.marks]
        return obj


def homeo_types_from_counts(counts) -> tuple:
    """Component i is a sphere with count[i] cross-caps (S2 when zero)."""
    return tuple("S2" if k == 0 else f"N{k}" for k in counts)


def marked_homeo_types(marked: MarkedModel) -> tuple:
    return homeo_types_from_counts(marked.mark_counts())


def decide_birational(m1: ConicModel, m2: ConicModel) -> Optional[Moebius]:
    """A Moebius map matching the two interval images, if one exists."""
    result = config_equiv(interval_image(m1), interval_image(m2))
    return result[0] if result is not None else None


def decide_marked_iso(m1: MarkedModel, m2: MarkedModel) -> Optional[tuple]:
    """Certificate (nu, witness) for isomorphism of marked real loci.

    Requires a permutation nu matching mark counts per component together
    with a Moebius map sending interval i onto interval nu(i); the point
    level automorphism itself is not synthesized.
    """
    if m1.model.r != m2.model.r:
        return None
    counts1 = m1.mark_counts()
    counts2 = m2.mark_counts()
    c1 = interval_image(m1.model)
    c2 = interval_image(m2.model)
    for witness, nu in _equiv_candidates(c1, c2):
        if all(counts1[i] == counts2[nu[i]] for i in range(len(nu))):
            return nu, witness
    return None


def _transposition(i: int, j: int, r: int) -> tuple:
    nu = list(range(r))
    nu[i], nu[j] = j, i
    return tuple(nu)


@dataclass(frozen=True)
class VeryTransitiveVerdict:
    """Decision record for very-transitivity of the automorphism group."""

    very_transitive: bool
    rule: str
    r: int
    types: tuple
    witnesses: tuple  # pairs (permutation, Moebius) backing a yes verdict
    reason: Optional[str]
    component_wise: bool  # very transitive on each component (yes iff r <= 3)
    not_two_transitive: bool

    def as_json(self) -> dict:
        return {
            "very_transitive": self.very_transitive,
            "rule": self.rule,
            "r": self.r,
            "types": list(self.types),
            "witnesses": [
                {"perm": [i + 1 for i in nu], "moebius": m.as_json()}
                for nu, m in self.witnesses
            ],
            "reason": self.reason,
            "component_wise": {"very_transitive_on_components": self.component_wise,
                               "rule": RULE_COMPONENTWISE},
            "not_even_2_transitive": self.not_two_transitive,
        }


def very_transitive_verdict(config: IntervalConfig, counts) -> VeryTransitiveVerdict:
    """Decision table on the interval configuration and mark counts alone."""
    r = config.r
    counts = tuple(counts)
    if len(counts) != r:
        raise InvalidModel("one mark count per component is required")
    types = homeo_types_from_counts(counts)
    component_wise = r <= 3

    def verdict(yes, rule, witnesses=(), reason=None):
        return VeryTransitiveVerdict(yes, rule, r, types, tuple(witnesses), reason,
                                     component_wise, not yes)

    if r <= 2:
        return verdict(True, RULE_AT_MOST_TWO)
    if r >= 4:
        return verdict(False, RULE_TOO_MANY, reason=RULE_TOO_MANY)
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 3) if counts[i] == counts[j]]
    if not pairs:
        return verdict(True, RULE_NO_HOMEO_PAIR)
    perms = realizable_permutations(config)
    if len(pairs) == 1:
        i, j = pairs[0]
        swap = _transposition(i, j, 3)
        if swap in perms:
            return verdict(True, RULE_ONE_PAIR_SWAP, witnesses=[(swap, perms[swap])])
        return verdict(False, RULE_ONE_PAIR_FAIL,
                       reason=f"{RULE_ONE_PAIR_FAIL}: swap of components "
                              f"{i + 1},{j + 1} is not realizable")
    # All three components homeomorphic: need the full symmetric group.
    if len(perms) == 6:
        return verdict(True, RULE_ALL_PERMS, witnesses=sorted(perms.items()))
    return verdict(False, RULE_ALL_PERMS_FAIL,
                   reason=f"{RULE_ALL_PERMS_FAIL}: only {len(perms)} of 6 "
                          f"permutations are realizable")


def decide_very_transitive(marked: MarkedModel) -> VeryTransitiveVerdict:
    return very_transitive_verdict(interval_image(marked.model), marked.mark_counts())
