"""Canonical conic-bundle models y^2 + z^2 = Q(x) and their decisions.

Q is normalized to minus the monic product over the 2r roots, so Q >= 0
exactly on the r closed intervals cut out by consecutive root pairs and is
negative on the unbounded gaps.  The real locus fibers over those intervals;
each interval carries one connected component (a sphere, or a non-orientable
surface once marked points are blown up).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import InvalidModel, NotOnSurface, Value
from .projline import (
    IntervalConfig,
    Moebius,
    Rat,
    _equiv_candidates,
    as_rat,
    config_equiv,
    quote_rats,
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


class ConicModel(Value):
    """Roots a_1 < ... < a_{2r} of Q(x) = -(x - a_1)...(x - a_{2r})."""

    __slots__ = ("roots", "_root_ratios")

    def __init__(self, roots: tuple):
        roots = tuple(map(as_rat, roots))
        if len(roots) < 2 or len(roots) % 2 != 0:
            raise InvalidModel("need a positive even number of roots")
        if any(roots[i] >= roots[i + 1] for i in range(len(roots) - 1)):
            raise InvalidModel("roots must be strictly increasing")
        super().__init__(roots, tuple(a.as_integer_ratio() for a in roots))

    @property
    def r(self) -> int:
        return len(self.roots) // 2

    def q_ratio(self, x: Rat) -> tuple:
        """Q(x) as integers (num, den) with den > 0, not reduced."""
        p, q = x.as_integer_ratio()
        num, den = -1, 1
        for an, ad in self._root_ratios:
            num *= p * ad - an * q
            den *= q * ad
        return num, den

    def q_at(self, x) -> Rat:
        return Fraction(*self.q_ratio(as_rat(x)))


class SurfPoint(Value):
    """An exact rational point (x, y, z) with y^2 + z^2 = Q(x)."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: Rat, y: Rat, z: Rat):
        super().__init__(as_rat(x), as_rat(y), as_rat(z))


def on_circle(num: int, den: int, y: Rat, z: Rat) -> bool:
    """y^2 + z^2 = num/den (den > 0), cross-multiplied in integers."""
    (a, b), (c, d) = y.as_integer_ratio(), z.as_integer_ratio()
    return ((a * d) ** 2 + (c * b) ** 2) * den == num * (b * d) ** 2


def on_surface(model: ConicModel, p: SurfPoint) -> bool:
    """Exact membership test y^2 + z^2 - Q(x) = 0."""
    return on_circle(*model.q_ratio(p.x), p.y, p.z)


def interval_image(model: ConicModel) -> IntervalConfig:
    """The configuration of intervals [a_1, a_2], [a_3, a_4], ..."""
    return IntervalConfig.from_rat_pairs(zip(model.roots[::2], model.roots[1::2]))


def component_index(model: ConicModel, p: SurfPoint) -> int:
    """1-based index of the interval [a_{2i-1}, a_{2i}] containing x."""
    if not on_surface(model, p):
        raise NotOnSurface(f"{quote_rats(p.x, p.y, p.z)} is not on the surface")
    for i in range(model.r):
        if model.roots[2 * i] <= p.x <= model.roots[2 * i + 1]:
            return i + 1
    raise NotOnSurface("surface point outside every interval")  # unreachable


class MarkedModel(Value):
    """A model plus distinct real points recording blow-up centres."""

    __slots__ = ("model", "marks")

    def __init__(self, model: ConicModel, marks: tuple):
        marks = tuple(marks)
        if len(set(marks)) != len(marks):
            raise InvalidModel("marks must be pairwise distinct")
        for p in marks:
            if not on_surface(model, p):
                raise NotOnSurface(f"mark {quote_rats(p.x, p.y, p.z)} is off the surface")
        super().__init__(model, marks)

    def mark_counts(self) -> tuple:
        counts = [0] * self.model.r
        for p in self.marks:
            counts[component_index(self.model, p) - 1] += 1
        return tuple(counts)


def homeo_types_from_counts(counts) -> tuple:
    """Component i is a sphere with count[i] cross-caps (S2 when zero)."""
    return tuple("S2" if k == 0 else f"N{k}" for k in counts)


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
    counts1, counts2 = m1.mark_counts(), m2.mark_counts()
    for witness, nu in _equiv_candidates(interval_image(m1.model), interval_image(m2.model)):
        if all(counts1[i] == counts2[nu[i]] for i in range(len(nu))):
            return nu, witness
    return None


def _transposition(i: int, j: int, r: int) -> tuple:
    nu = list(range(r))
    nu[i], nu[j] = j, i
    return tuple(nu)


class VeryTransitiveVerdict(Value):
    """Decision record for very-transitivity of the automorphism group.

    witnesses: pairs (permutation, Moebius) backing a yes verdict;
    component_wise: very transitive on each component (yes iff r <= 3)."""

    __slots__ = ("very_transitive", "rule", "r", "types", "witnesses", "reason",
                 "component_wise", "not_two_transitive")

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
