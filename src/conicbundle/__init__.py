"""Exact models, invariants and automorphism synthesis for real conic
bundle surfaces, with a JSON command-line front end.

Everything is computed over the rationals with exact arithmetic: points and
Moebius maps on the projective line, interval-configuration invariants and
their PGL_2-equivalence decisions, the canonical bundle models
y^2 + z^2 = Q(x) with twisting-map automorphisms, the degree-2 del Pezzo
double-conic model with its Geiser involution, Picard-lattice class
combinatorics, and a rectilinear path planner for rectangle unions.

Each export is imported from its module on first use (PEP 562), so that a
CLI process loads only the modules its subcommand runs.
"""

import importlib

_EXPORTS = {
    "conic_model": """ConicModel MarkedModel SurfPoint VeryTransitiveVerdict decide_birational
        decide_marked_iso decide_very_transitive on_surface very_transitive_verdict""",
    "delpezzo": """BiconicModel BinQuadForm BiPoint biconic_from_config biconic_interval_image
        distinct_foliations_witness fiber_points geiser on_biconic second_fibration""",
    "errors": "ConicBundleError",
    "lattice": """ClassPerm PicVector canonical_class conic_fiber_partner deg4_alpha deg4_sigma
        exceptional_classes geiser_reflection intersect perm_preserves_form perms_commute
        singular_fibre_count""",
    "planner": "Rect Region SegPath Segment find_rect_path validate_path",
    "polynomial": "RatPoly",
    "projline": """Interval IntervalConfig Moebius ProjPoint Rat config_equiv format_rat
        moebius_from_triples parse_rat realizable_permutations stabilizer""",
    "twist": """Rotation TwistMap TwistReport apply_twist chart_param choose_base_rotation
        find_fiber_point interpolate rotation_from_param
        synthesize_twist tangent_coefficient twist_from_rotations verify_twist""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
