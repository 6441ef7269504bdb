"""Integer Picard-lattice combinatorics for plane blow-ups.

Vectors live in the basis e0 (line class), e1..em (exceptional classes) with
the signature (1, m) intersection form; the canonical class is
K = -3 e0 + e1 + ... + em.  Exceptional classes D satisfy D.D = -1 and
D.K = -1; the degree-4 case (m = 5) carries the two commuting class
permutations realized by the real structure and by the quadratic involution
of the plane, and the degree-2 case (m = 7) carries the Geiser reflection
D -> (D.K) K - D.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, NamedTuple

from .errors import BasisMismatch, NotAFiberClass, Unsupported, Value, as_int


class PicVector(Value):
    """Integer coordinates (d; c1, ..., cm) for d*e0 + sum ci*ei."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple):
        coords = tuple(map(as_int, coords))
        if len(coords) < 2:
            raise ValueError("a lattice vector needs e0 and at least one ei")
        super().__init__(coords)

    @property
    def m(self) -> int:
        return len(self.coords) - 1

    def __add__(self, other: "PicVector") -> "PicVector":
        _check_basis(self, other)
        return PicVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "PicVector") -> "PicVector":
        _check_basis(self, other)
        return PicVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, scalar: int) -> "PicVector":
        return PicVector(tuple(a * scalar for a in self.coords))

    __rmul__ = __mul__

    def as_json(self) -> list:
        return list(self.coords)

    def __repr__(self):
        return f"PicVector{self.coords}"


def _check_basis(u: PicVector, v: PicVector):
    if u.m != v.m:
        raise BasisMismatch(f"bases of rank {u.m} and {v.m} do not match")


def intersect(u: PicVector, v: PicVector) -> int:
    """Signature (1, m) pairing: d_u d_v - sum of the ei products."""
    _check_basis(u, v)
    return u.coords[0] * v.coords[0] - sum(a * b for a, b in zip(u.coords[1:], v.coords[1:]))


def e0(m: int) -> PicVector:
    return PicVector((1,) + (0,) * m)


def e(i: int, m: int) -> PicVector:
    if not 1 <= i <= m:
        raise Unsupported(f"e{i} does not exist with {m} exceptional classes")
    return PicVector(tuple(1 if k == i else 0 for k in range(m + 1)))


def canonical_class(m: int) -> PicVector:
    return PicVector((-3,) + (1,) * m)


def line_class(i: int, j: int, m: int) -> PicVector:
    """e0 - ei - ej, the strict transform of the line through points i, j."""
    if i == j:
        raise Unsupported("a line class needs two distinct points")
    return PicVector(tuple([1] + [-1 if k in (i, j) else 0 for k in range(1, m + 1)]))


def exceptional_classes(m: int) -> List[PicVector]:
    """All classes with D.D = -1 and D.K = -1, in a fixed deterministic order:
    the ei, the lines through two points, the conics through five, and the
    singular cubics through seven."""
    if not 1 <= m <= 7:
        raise Unsupported(f"m = {m} is outside the supported range 1..7")
    classes = [e(i, m) for i in range(1, m + 1)]
    classes += [line_class(i, j, m) for i, j in combinations(range(1, m + 1), 2)]
    for five in combinations(range(1, m + 1), 5):
        classes.append(PicVector(tuple([2] + [-1 if k in five else 0
                                              for k in range(1, m + 1)])))
    if m == 7:
        for i in range(1, 8):
            classes.append(PicVector(tuple([3] + [-2 if k == i else -1
                                                  for k in range(1, 8)])))
    return classes


def conic_fiber_partner(m: int, f1: PicVector) -> PicVector:
    """The second ruling class f2 = -c K - f1 with c = 4 / K.K."""
    if m not in (5, 7):
        raise Unsupported(f"m = {m}: the two-ruling relation needs degree 4 or 2")
    if f1.m != m:
        raise BasisMismatch(f"vector has {f1.m} exceptional coordinates, not {m}")
    k = canonical_class(m)
    if intersect(f1, f1) != 0 or intersect(f1, k) != -2:
        raise NotAFiberClass(f"{f1} is not a conic fiber class")
    c = 4 // intersect(k, k)
    f2 = -c * k - f1
    if intersect(f2, f2) != 0 or intersect(f2, k) != -2:
        raise AssertionError(f"partner {f2} is not a conic fiber class")
    return f2


def geiser_reflection(d: PicVector) -> PicVector:
    """(D.K) K - D on the m = 7 lattice: the Geiser action on classes."""
    if d.m != 7:
        raise BasisMismatch("the Geiser reflection lives on the m = 7 lattice")
    k = canonical_class(7)
    return intersect(d, k) * k - d


class ClassPerm(Value):
    """A permutation of an indexed list of classes: mapping[i] is the index
    of the image of classes[i]."""

    __slots__ = ("classes", "mapping")

    def __init__(self, classes: tuple, mapping: tuple):
        if sorted(mapping) != list(range(len(classes))):
            raise ValueError("mapping is not a permutation of the class list")
        super().__init__(classes, mapping)

    def compose(self, other: "ClassPerm") -> "ClassPerm":
        if self.classes != other.classes:
            raise BasisMismatch("permutations act on different class lists")
        return ClassPerm(self.classes,
                         tuple(self.mapping[other.mapping[i]] for i in range(len(self.mapping))))

    @property
    def is_involution(self) -> bool:
        return all(self.mapping[self.mapping[i]] == i for i in range(len(self.mapping)))

    def fixed_indices(self) -> list:
        return [i for i, j in enumerate(self.mapping) if i == j]


# The 16 degree-4 classes Ei, Lij and the conic G, named in the order
# exceptional_classes(5) builds them.
_DEG4_NAMES = (*(f"E{i}" for i in range(1, 6)),
              *(f"L{i}{j}" for i, j in combinations(range(1, 6), 2)), "G")


def deg4_class_names() -> Dict[str, PicVector]:
    """Naming of the 16 degree-4 classes: Ei, Lij and the conic G."""
    return dict(zip(_DEG4_NAMES, exceptional_classes(5)))


def _perm_from_transpositions(pairs) -> ClassPerm:
    mapping = list(range(len(_DEG4_NAMES)))
    for left, right in pairs:
        i, j = _DEG4_NAMES.index(left), _DEG4_NAMES.index(right)
        mapping[i], mapping[j] = j, i
    return ClassPerm(tuple(exceptional_classes(5)), tuple(mapping))


def deg4_sigma() -> ClassPerm:
    """Action of the real structure on the 16 degree-4 classes."""
    return _perm_from_transpositions([
        ("E2", "L12"), ("E3", "L13"), ("E4", "L14"), ("E5", "L15"),
        ("E1", "G"), ("L23", "L45"), ("L24", "L35"), ("L25", "L34"),
    ])


def deg4_alpha() -> ClassPerm:
    """Action of the quadratic plane involution on the 16 degree-4 classes."""
    return _perm_from_transpositions([
        ("L23", "E4"), ("L24", "E3"), ("L34", "E2"),
        ("L12", "L25"), ("L13", "L35"), ("L14", "L45"),
        ("G", "L15"), ("E1", "E5"),
    ])


def perm_preserves_form(p: ClassPerm) -> bool:
    """Check intersect(p u, p v) = intersect(u, v) on every pair."""
    n = len(p.classes)
    for i in range(n):
        for j in range(i, n):
            ui, uj = p.classes[p.mapping[i]], p.classes[p.mapping[j]]
            if intersect(ui, uj) != intersect(p.classes[i], p.classes[j]):
                return False
    return True


def perms_commute(p: ClassPerm, q: ClassPerm) -> bool:
    return p.compose(q).mapping == q.compose(p).mapping


class FibreCount(NamedTuple):
    m: int
    degree: int  # K.K = 9 - m
    count: int   # 8 - K.K = m - 1


def singular_fibre_count(m: int) -> FibreCount:
    """Singular fibre count 8 - K.K = m - 1 of the conic bundle on the
    blow-up of m points."""
    if not 1 <= m <= 8:
        raise Unsupported(f"m = {m} is outside the supported range 1..8")
    return FibreCount(m, 9 - m, m - 1)
