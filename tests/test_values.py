"""Value semantics of the library's immutable classes.

Every value class compares, hashes and prints by its fields alone: equal
exactly when of one class with equal fields, hashed as the tuple of its
fields (so no set or dict order depends on the class), printed as
`Name(field=value, ...)` unless the class says otherwise, and closed to
assignment and deletion.  `selftest` prints `BiPoint`s and
`IntervalConfig`s in its failure messages, so those reprs are output.  A
rational field takes an int or a Fraction and nothing else, and so does a
function that reads only a rational's integer ratio.
"""

import re
from fractions import Fraction

import pytest

from conicbundle.conic_model import ConicModel, MarkedModel, SurfPoint, VeryTransitiveVerdict
from conicbundle.delpezzo import BiconicModel, BinQuadForm, BiPoint
from conicbundle.errors import InvalidModel, quote
from conicbundle.lattice import ClassPerm, PicVector
from conicbundle.planner import Rect, Region, SegPath, Segment
from conicbundle.polynomial import RatPoly
from conicbundle.projline import ONE, ZERO, Interval, IntervalConfig, Moebius, ProjPoint, ladder
from conicbundle.twist import Rotation, TwistMap, TwistReport, rotation_from_param

SEG = Segment((0, 0), (0, 1))
SEG2 = Segment((0, 1), (2, 1))
ARCS = (Interval(ProjPoint(2, 1), ProjPoint(3, 1)), Interval(ZERO, ONE))
FORMS = (BinQuadForm(-1, 1, 0), BinQuadForm(-1, 0, -1), BinQuadForm(-1, 0, -2))
CLASSES = (PicVector((0, 1)), PicVector((1, 0)))

# (id, build, field names, repr, twin): twin builds a value of another class
# whose fields equal the value's fields, or is None when no class can
CASES = [
    ("ProjPoint", lambda: ProjPoint(-3, 0), ("u0", "u1"), "ProjPoint(inf)",
     Rotation.identity),
    ("Moebius", lambda: Moebius(0, -2, -4, -6), ("a", "b", "c", "d"),
     "Moebius(a=0, b=1, c=2, d=3)", lambda: Rect(0, 1, 2, 3)),
    ("Interval", lambda: Interval(ZERO, ONE), ("start", "end"), "Interval[0, 1]",
     lambda: TwistMap(ZERO, ONE)),
    ("IntervalConfig", lambda: IntervalConfig(ARCS), ("intervals",),
     "IntervalConfig(Interval[0, 1], Interval[2, 3])", lambda: Region(ARCS[::-1])),
    ("ConicModel", lambda: ConicModel((0, 1)), ("roots",),
     "ConicModel(roots=(Fraction(0, 1), Fraction(1, 1)))", lambda: PicVector((0, 1))),
    ("SurfPoint", lambda: SurfPoint(Fraction(1, 2), 3, 4), ("x", "y", "z"),
     "SurfPoint(x=Fraction(1, 2), y=Fraction(3, 1), z=Fraction(4, 1))",
     lambda: BinQuadForm(Fraction(1, 2), 3, 4)),
    ("MarkedModel", lambda: MarkedModel(ConicModel((0, 1)), [SurfPoint(0, 0, 0)]),
     ("model", "marks"),
     "MarkedModel(model=ConicModel(roots=(Fraction(0, 1), Fraction(1, 1))), "
     "marks=(SurfPoint(x=Fraction(0, 1), y=Fraction(0, 1), z=Fraction(0, 1)),))",
     lambda: TwistMap(ConicModel((0, 1)), (SurfPoint(0, 0, 0),))),
    ("VeryTransitiveVerdict",
     lambda: VeryTransitiveVerdict(True, "thm1.2(2a)", 1, ("S2",), (), None, True, False),
     ("very_transitive", "rule", "r", "types", "witnesses", "reason", "component_wise",
      "not_two_transitive"),
     "VeryTransitiveVerdict(very_transitive=True, rule='thm1.2(2a)', r=1, types=('S2',), "
     "witnesses=(), reason=None, component_wise=True, not_two_transitive=False)", None),
    ("RatPoly", lambda: RatPoly((0, 1, 0)), ("coeffs",),
     "RatPoly(coeffs=(Fraction(0, 1), Fraction(1, 1)))", lambda: ConicModel((0, 1))),
    ("Rotation", lambda: Rotation(Fraction(3, 5), Fraction(4, 5)), ("q", "p"),
     "Rotation(q=2, p=1)", lambda: ProjPoint(2, 1)),
    ("TwistMap", lambda: TwistMap(Rotation.identity(), RatPoly((1,))), ("base", "lam"),
     "TwistMap(base=Rotation(q=1, p=0), lam=RatPoly(coeffs=(Fraction(1, 1),)))", None),
    ("TwistReport", lambda: TwistReport(False, ("membership broken over x = 1/2",), 4),
     ("passed", "failures", "points_checked"),
     "TwistReport(passed=False, failures=('membership broken over x = 1/2',), "
     "points_checked=4)", None),
    ("BinQuadForm", lambda: BinQuadForm(1, 0, -1), ("al", "be", "ga"),
     "BinQuadForm(al=Fraction(1, 1), be=Fraction(0, 1), ga=Fraction(-1, 1))",
     lambda: SurfPoint(1, 0, -1)),
    ("BiconicModel", lambda: BiconicModel(*FORMS, 1), ("m1", "m2", "m3", "k"),
     "BiconicModel(m1=BinQuadForm(al=Fraction(-1, 1), be=Fraction(1, 1), ga=Fraction(0, 1)), "
     "m2=BinQuadForm(al=Fraction(-1, 1), be=Fraction(0, 1), ga=Fraction(-1, 1)), "
     "m3=BinQuadForm(al=Fraction(-1, 1), be=Fraction(0, 1), ga=Fraction(-2, 1)), k=1)", None),
    ("BiPoint", lambda: BiPoint((-6, 0, -2), ProjPoint(1, 2)), ("xyz", "t"),
     "BiPoint(xyz=(3, 0, 1), t=ProjPoint(1/2))", lambda: TwistMap((3, 0, 1), ProjPoint(1, 2))),
    ("PicVector", lambda: PicVector((0, 1)), ("coords",), "PicVector(0, 1)",
     lambda: RatPoly((0, 1))),
    ("ClassPerm", lambda: ClassPerm(CLASSES, (1, 0)), ("classes", "mapping"),
     "ClassPerm(classes=(PicVector(0, 1), PicVector(1, 0)), mapping=(1, 0))",
     lambda: TwistMap(CLASSES, (1, 0))),
    ("Rect", lambda: Rect(0, 1, 2, 3), ("x0", "x1", "y0", "y1"),
     "Rect(x0=Fraction(0, 1), x1=Fraction(1, 1), y0=Fraction(2, 1), y1=Fraction(3, 1))",
     lambda: Moebius(0, 1, 2, 3)),
    ("Region", lambda: Region([Rect(0, 1, 2, 3)]), ("rects",),
     "Region(rects=(Rect(x0=Fraction(0, 1), x1=Fraction(1, 1), y0=Fraction(2, 1), "
     "y1=Fraction(3, 1)),))", lambda: SegPath((Rect(0, 1, 2, 3),))),
    ("Segment", lambda: SEG, ("a", "b"),
     "Segment(a=(Fraction(0, 1), Fraction(0, 1)), b=(Fraction(0, 1), Fraction(1, 1)))",
     lambda: TwistMap((0, 0), (0, 1))),
    ("SegPath", lambda: SegPath([SEG, SEG2]), ("segments",),
     "SegPath(segments=(Segment(a=(Fraction(0, 1), Fraction(0, 1)), "
     "b=(Fraction(0, 1), Fraction(1, 1))), Segment(a=(Fraction(0, 1), Fraction(1, 1)), "
     "b=(Fraction(2, 1), Fraction(1, 1)))))", lambda: Region((SEG, SEG2))),
]
FIELDS = {type(build()): fields for _, build, fields, _, _ in CASES}


@pytest.mark.parametrize("build, fields, text, twin", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_value_semantics(build, fields, text, twin):
    v = build()
    values = tuple(getattr(v, name) for name in fields)
    assert repr(v) == text
    assert v == build() and not v != build()
    assert hash(v) == hash(build()) == hash(values)
    assert v != values
    if twin is not None:
        other = twin()
        assert type(other) is not type(v)
        assert tuple(getattr(other, name) for name in FIELDS[type(other)]) == values
        assert v != other and other != v and len({v, other}) == 2
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(v, name, getattr(v, name))
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert tuple(getattr(v, name) for name in fields) == values


@pytest.mark.parametrize("build", [
    lambda v: ConicModel((0, v)),
    lambda v: SurfPoint(v, 0, 0),
    lambda v: BinQuadForm(v, 0, -1),
    lambda v: Rect(0, v, 0, v),
    lambda v: RatPoly((0, v)),
    lambda v: Rotation(v, 0),
    lambda v: ProjPoint.from_rat(v),
    lambda v: rotation_from_param(v),
    lambda v: list(ladder(v, 2)),
    lambda v: RatPoly((1, 2)).ratio_at(v),
], ids=["ConicModel", "SurfPoint", "BinQuadForm", "Rect", "RatPoly", "Rotation",
        "ProjPoint.from_rat", "rotation_from_param", "ladder", "RatPoly.ratio_at"])
def test_rationals_are_ints_or_fractions_only(build):
    # the int 1 and the Fraction 1 build the same value; a float, a string or
    # a bool is refused, and the message names it; the readers of an integer
    # ratio refuse them too
    value = build(1)
    assert value == build(Fraction(1))
    for bad in (1.0, "1", True):
        with pytest.raises(InvalidModel, match=re.escape(quote(bad))):
            build(bad)


def test_the_cases_cover_one_value_of_each_class():
    assert len(FIELDS) == len(CASES) == 21
