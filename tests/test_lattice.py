"""Picard-lattice class combinatorics: counts, involutions, the reflection."""

import itertools

import pytest

from conicbundle import (
    PicVector,
    canonical_class,
    conic_fiber_partner,
    deg4_alpha,
    deg4_sigma,
    exceptional_classes,
    geiser_reflection,
    intersect,
    perm_preserves_form,
    perms_commute,
    singular_fibre_count,
)
from conicbundle.errors import BasisMismatch, NotAFiberClass, Unsupported
from conicbundle.lattice import ClassPerm, deg4_class_names, e, e0, line_class


# -- intersection form ---------------------------------------------------------

def test_intersection_examples():
    assert intersect(e0(5), e0(5)) == 1
    k = canonical_class(5)
    assert intersect(k, k) == 4
    f1 = e0(5) - e(1, 5)
    assert intersect(f1, f1) == 0
    assert intersect(f1, k) == -2


def test_intersection_basis_mismatch():
    with pytest.raises(BasisMismatch):
        intersect(e0(5), e0(7))


def test_exceptional_defining_equations():
    for m in (5, 6, 7):
        k = canonical_class(m)
        for d in exceptional_classes(m):
            assert intersect(d, d) == -1
            assert intersect(d, k) == -1


# -- class enumeration -----------------------------------------------------------

def brute_force_classes(m):
    """Independent search for D with D.D = -1, D.K = -1, degree |d| <= 3."""
    k = canonical_class(m)
    found = []
    for d in range(-3, 4):
        # sum ci = such that intersect condition holds; enumerate with pruning
        def rec(prefix, remaining, budget):
            if remaining == 0:
                vec = PicVector((d,) + tuple(prefix))
                if intersect(vec, vec) == -1 and intersect(vec, k) == -1:
                    found.append(vec)
                return
            for c in range(-3, 4):
                if c * c <= budget:
                    rec(prefix + [c], remaining - 1, budget - c * c)
        rec([], m, d * d + 1)
    return found


@pytest.mark.parametrize("m,count", [(5, 16), (6, 27), (7, 56)])
def test_class_counts_match_brute_force(m, count):
    ours = exceptional_classes(m)
    brute = brute_force_classes(m)
    assert len(ours) == count
    assert set(ours) == set(brute)
    # no class sits on the search bound, so the bound is safe
    assert all(abs(v.coords[0]) <= 3 and all(abs(c) <= 2 for c in v.coords[1:]) for v in brute)


def test_exceptional_classes_range_check():
    with pytest.raises(Unsupported):
        exceptional_classes(8)
    with pytest.raises(Unsupported):
        exceptional_classes(0)


# -- fiber partners ----------------------------------------------------------------

def test_partner_degree_four():
    f1 = e0(5) - e(1, 5)
    f2 = conic_fiber_partner(5, f1)
    assert f2 == PicVector((2, 0, -1, -1, -1, -1))
    assert conic_fiber_partner(5, f2) == f1
    assert f1 + f2 == -1 * canonical_class(5)


def test_partner_degree_two():
    f1 = e0(7) - e(1, 7)
    f2 = conic_fiber_partner(7, f1)
    assert f2 == PicVector((5, -1, -2, -2, -2, -2, -2, -2))
    assert conic_fiber_partner(7, f2) == f1
    assert f1 + f2 == -2 * canonical_class(7)


def test_partner_rejects_non_fiber():
    with pytest.raises(NotAFiberClass):
        conic_fiber_partner(5, e(1, 5))
    with pytest.raises(Unsupported):
        conic_fiber_partner(6, e0(6) - e(1, 6))


# -- Geiser reflection ----------------------------------------------------------------

def test_reflection_fixes_canonical_class():
    k = canonical_class(7)
    assert geiser_reflection(k) == k


def test_reflection_of_exceptional_point_class():
    d = geiser_reflection(e(1, 7))
    assert d == PicVector((3, -2, -1, -1, -1, -1, -1, -1))
    assert geiser_reflection(d) == e(1, 7)


def test_reflection_involutive_isometry_on_all_classes():
    classes = exceptional_classes(7)
    images = [geiser_reflection(c) for c in classes]
    assert all(img in classes for img in images)
    assert all(geiser_reflection(img) == c for c, img in zip(classes, images))
    for u, v in itertools.islice(itertools.combinations(classes, 2), 300):
        assert intersect(geiser_reflection(u), geiser_reflection(v)) == intersect(u, v)


def test_reflection_swaps_fiber_partners():
    for i in (1, 3, 7):
        f1 = e0(7) - e(i, 7)
        assert geiser_reflection(f1) == conic_fiber_partner(7, f1)


# -- degree-4 permutations ---------------------------------------------------------

def test_sigma_and_alpha_cycle_listing():
    names = deg4_class_names()
    sigma, alpha = deg4_sigma(), deg4_alpha()

    def image(perm, name):
        return perm.classes[perm.mapping[perm.classes.index(names[name])]]

    assert image(sigma, "E2") == names["L12"]
    assert image(sigma, "L12") == names["E2"]
    assert image(sigma, "E1") == names["G"]
    assert image(sigma, "L23") == names["L45"]
    assert image(alpha, "E1") == names["E5"]
    assert image(alpha, "L23") == names["E4"]
    assert image(alpha, "G") == names["L15"]


def test_deg4_names_list_the_exceptional_classes_in_order():
    names = deg4_class_names()
    assert list(names) == ["E1", "E2", "E3", "E4", "E5", "L12", "L13", "L14", "L15",
                           "L23", "L24", "L25", "L34", "L35", "L45", "G"]
    assert list(names.values()) == exceptional_classes(5)


def test_sigma_and_alpha_mappings_are_pinned():
    assert deg4_sigma().mapping == (15, 5, 6, 7, 8, 1, 2, 3, 4, 14, 13, 12, 11, 10, 9, 0)
    assert deg4_alpha().mapping == (4, 12, 10, 9, 0, 11, 13, 14, 15, 3, 2, 5, 1, 6, 7, 8)
    assert deg4_sigma().classes == deg4_alpha().classes == tuple(exceptional_classes(5))


def test_sigma_alpha_involutions_without_fixed_classes():
    for perm in (deg4_sigma(), deg4_alpha()):
        assert perm.is_involution
        assert perm.fixed_indices() == []


def test_sigma_alpha_preserve_form_and_commute():
    sigma, alpha = deg4_sigma(), deg4_alpha()
    assert perm_preserves_form(sigma)
    assert perm_preserves_form(alpha)
    assert perms_commute(sigma, alpha)


def test_swap_of_two_point_classes_breaks_form():
    # E1 <-> E2 alone cannot preserve the form: L13 meets E1 but not E2.
    classes = tuple(exceptional_classes(5))
    mapping = list(range(16))
    mapping[0], mapping[1] = 1, 0
    bad = ClassPerm(classes, tuple(mapping))
    assert not perm_preserves_form(bad)


# -- fibre counts -----------------------------------------------------------------

def test_singular_fibre_counts():
    assert singular_fibre_count(5).count == 4
    assert singular_fibre_count(7).count == 6
    assert singular_fibre_count(1).count == 0
    assert singular_fibre_count(5).degree == 4
    assert singular_fibre_count(7).degree == 2
    with pytest.raises(Unsupported):
        singular_fibre_count(9)


def test_line_class_shape():
    assert line_class(1, 2, 5) == PicVector((1, -1, -1, 0, 0, 0))
