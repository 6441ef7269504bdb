"""Source invariants of the library, checked on its syntax tree.

Postconditions must survive `python -O`, which strips assert statements, the
runtime depends on the standard library only, and the arithmetic is exact:
no float literal and no use of the name `float`.  Memory stays per request:
no process-wide memo (`functools.cache`, `functools.lru_cache`).  Fractions
are built through their public constructor only: the private `_normalize`
argument is gone in Python 3.12.  Every value class derives from
`errors.Value`, whose `__init__` is the one writer of a slot: no dataclass,
and no `cached_property` (a constructor computes what its value derives).
Surface membership and the fiber transport are decided in integers: on valid
input they construct no Fraction at all, and the jet coefficient builds one,
its result.  An argument becomes a Fraction in one place, projline.as_rat,
and a request token is read in one place, projline.token_ratio.  The golden
corpus builds no more Fractions per subcommand than its ceiling, and the
decisions build them only to decode a rational token.  It builds no more
values (errors.Value constructions) per subcommand than their ceiling either,
nor per class in the P^1 decisions, whose witness search builds a value only
for the maps it yields.
"""

import ast
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import conicbundle
from conicbundle import Rotation, SurfPoint, on_surface, rotation_from_param
from conicbundle import twist as tw
from conicbundle.errors import Value

import support
from golden_replay import WORKLOADS, load, replay

PACKAGE = Path(conicbundle.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _trees():
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_are_found():
    assert {"cli.py", "projline.py", "twist.py", "delpezzo.py"} <= {p.name for p in SOURCES}


def test_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _imported_roots(node):
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []  # a relative import stays inside the package


def test_imports_are_stdlib_or_package():
    allowed = set(sys.stdlib_module_names) | {"__future__", "conicbundle"}
    found = [f"{name}:{node.lineno} {root}" for name, tree in _trees()
             for node in ast.walk(tree) for root in _imported_roots(node)
             if root not in allowed]
    assert found == []


def _is_float(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    return isinstance(node, ast.Name) and node.id == "float"


def test_no_floats():
    found = [f"{name}:{node.lineno}" for name, tree in _trees()
             for node in ast.walk(tree) if _is_float(node)]
    assert found == []


_MEMOS = {"cache", "lru_cache"}


def _is_memo(node):
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name in _MEMOS for alias in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in _MEMOS
            and isinstance(node.value, ast.Name) and node.value.id == "functools")


def test_no_process_wide_memo():
    found = [f"{name}:{node.lineno}" for name, tree in _trees()
             for node in ast.walk(tree) if _is_memo(node)]
    assert found == []


def test_no_private_fraction_argument():
    found = [f"{name}:{node.value.lineno}" for name, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.keyword) and node.arg == "_normalize"]
    assert found == []


def _writes_a_slot(fn):
    return any(isinstance(n, ast.Attribute) and n.attr == "__setattr__"
               and isinstance(n.value, ast.Name) and n.value.id == "object"
               for n in ast.walk(fn))


def test_values_have_one_writer():
    found = [f"{name}:{node.lineno}" for name, tree in _trees() for node in ast.walk(tree)
             if "dataclasses" in _imported_roots(node)
             or isinstance(node, ast.Name) and node.id == "cached_property"
             or isinstance(node, ast.Attribute) and node.attr == "cached_property"]
    writers = [f"{name}:{fn.name}" for name, tree in _trees() for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and _writes_a_slot(fn)]
    assert found == [] and writers == ["errors.py:__init__"]


def test_membership_and_transport_build_no_fraction(monkeypatch):
    # Fraction.__new__ is counted while on_surface and twist._transport run
    # on seeded points of every height and r = 1, 2, 3 and on the identity,
    # the half turn and other rotations, and while tangent_coefficient reads
    # a seeded jet of each transport; the inputs are built beforehand.
    rng = random.Random(5)
    cases, jets = [], []
    for height in (6, 10 ** 3, 10 ** 6):
        for r in (1, 2, 3):
            model, p = support.model_through_point(rng, r, height, zero_share=0)
            spin = rotation_from_param(Fraction(rng.randint(1, height), rng.randint(1, height)))
            for to in ((p.y, p.z), (-p.y, -p.z), support.reference_apply(spin, p.y, p.z)):
                cases.append((model, p, to))
                x0 = next(x for rung in tw.ladder(*model.roots[:2]) for x in rung if x != p.x)
                mu0 = Fraction(rng.randint(-height, height), rng.randint(1, height))
                twist = tw.synthesize_twist(model, [(p, SurfPoint(p.x, *to))], jets=[(x0, mu0)])
                jets.append((twist, x0, mu0))
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    members = [on_surface(model, p) for model, p, _ in cases]
    rotations = [tw._transport(*model.q_ratio(p.x), (p.y, p.z), to) for model, p, to in cases]
    integer_made = len(made)
    kappas = [tw.tangent_coefficient(twist, x0) for twist, x0, _ in jets]
    monkeypatch.undo()
    assert integer_made == 0 and len(made) == len(jets)
    assert all(members) and all(isinstance(rot, Rotation) for rot in rotations)
    assert kappas == [2 * mu0 for _, _, mu0 in jets]
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)  # the constructor is back


def _coerces_to_fraction(node):
    # Fraction(x) with one argument, or isinstance(x, Fraction) alone or in a tuple
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return False
    if node.func.id == "Fraction":
        return (len(node.args) == 1 and not node.keywords
                and not isinstance(node.args[0], ast.Starred))
    if node.func.id == "isinstance" and len(node.args) == 2:
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        return any(isinstance(kind, ast.Name) and kind.id == "Fraction" for kind in kinds)
    return False


def test_one_coercion_to_fraction():
    trees = dict(_trees())
    as_rat = next(node for node in ast.walk(trees["projline.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == "as_rat")
    allowed = [node for node in ast.walk(as_rat) if _coerces_to_fraction(node)]
    found = [node for tree in trees.values() for node in ast.walk(tree)
             if _coerces_to_fraction(node)]
    assert len(allowed) == 1
    assert found == allowed, [f"line {node.lineno}" for node in found if node not in allowed]


def _names_the_token_pattern(node):
    return (isinstance(node, ast.Name) and node.id == "_RAT_RE" and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == "_RAT_RE")


def test_one_token_reader():
    # the token pattern is matched in projline.token_ratio alone: parse_rat,
    # ProjPoint.from_token and the CLI's integer tokens all read through it
    trees = dict(_trees())
    reader = next(node for node in ast.walk(trees["projline.py"])
                  if isinstance(node, ast.FunctionDef) and node.name == "token_ratio")
    inside = [node for node in ast.walk(reader) if _names_the_token_pattern(node)]
    found = [f"{name}:{node.lineno}" for name, tree in trees.items() for node in ast.walk(tree)
             if _names_the_token_pattern(node) and node not in inside]
    assert len(inside) == 1 and found == []


# Fraction.__new__ calls per subcommand over the whole golden corpus.  Python
# 3.12 and later build arithmetic results without __new__, so there the
# counts fall below these ceilings; a change that raises one says why.
FRACTION_CEILINGS = {
    "decide-birational": 684,
    "decide-iso": 645,
    "decide-verytransitive": 753,
    "realizable-perms": 0,
    "stabilizer": 0,
    "geiser": 108,
    "biconic-image": 108,
    "lattice": 0,
    "region-path": 1684,
    "twist": 14350,
    "verify-twist": 7889,
    "selftest": 847,
}
# These subcommands build a Fraction only in parse_rat, decoding a rational
# token of the request; P^1 and integer tokens, and every answer, build none.
DECISIONS = ("decide-birational", "decide-iso", "decide-verytransitive", "realizable-perms",
             "stabilizer", "geiser", "biconic-image")
DECODE_AND_PRINT = {"parse_rat"}


def test_fraction_census_stays_under_its_ceilings(monkeypatch):
    requests = [entry for workload in WORKLOADS for entry in load(workload)]
    made, elsewhere = Counter(), Counter()
    command = None
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made[command] += 1
        if command in DECISIONS:
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name not in DECODE_AND_PRINT:
                frame = frame.f_back
            elsewhere[command] += frame is None
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for entry in requests:
        command = entry["argv"][0]
        replay(entry["argv"], entry["stdin"])
    monkeypatch.undo()
    assert {entry["argv"][0] for entry in requests} == set(FRACTION_CEILINGS)
    over = {c: (made[c], ceiling) for c, ceiling in FRACTION_CEILINGS.items() if made[c] > ceiling}
    assert not over, f"(built, ceiling) past the ceiling: {over}"
    assert not +elsewhere, f"Fractions built outside decoding and printing: {dict(elsewhere)}"


# errors.Value constructions per subcommand over the whole golden corpus; a
# change that raises one says why.
VALUE_CEILINGS = {
    "decide-birational": 1302,
    "decide-iso": 853,
    "decide-verytransitive": 951,
    "realizable-perms": 746,
    "stabilizer": 418,
    "geiser": 96,
    "biconic-image": 214,
    "lattice": 1900,
    "region-path": 256,
    "twist": 4426,
    "verify-twist": 1280,
    "selftest": 1114,
}
# The P^1 decisions by class: the witness search builds one Moebius per map
# that passes the cross-ratio filter, and no point or arc to match arcs; the
# points and arcs counted are the request's and the interval images'.
P1_VALUE_CEILINGS = {
    "decide-birational": {"ConicModel": 104, "IntervalConfig": 104, "Interval": 342,
                          "ProjPoint": 708, "Moebius": 44},
    "decide-iso": {"ConicModel": 72, "MarkedModel": 72, "SurfPoint": 119, "IntervalConfig": 72,
                   "Interval": 144, "ProjPoint": 312, "Moebius": 62},
    "decide-verytransitive": {"ConicModel": 60, "MarkedModel": 60, "SurfPoint": 147,
                              "IntervalConfig": 60, "Interval": 156, "ProjPoint": 312,
                              "Moebius": 96, "VeryTransitiveVerdict": 60},
    "realizable-perms": {"IntervalConfig": 50, "Interval": 150, "ProjPoint": 324, "Moebius": 222},
    "stabilizer": {"ProjPoint": 186, "Moebius": 232},
}


def test_value_census_stays_under_its_ceilings(monkeypatch):
    requests = [entry for workload in WORKLOADS for entry in load(workload)]
    made = {command: Counter() for command in VALUE_CEILINGS}
    command = None
    init = Value.__init__

    def counting(self, *values):
        made[command][type(self).__name__] += 1
        init(self, *values)

    monkeypatch.setattr(Value, "__init__", counting)
    for entry in requests:
        command = entry["argv"][0]
        replay(entry["argv"], entry["stdin"])
    monkeypatch.undo()
    over = {c: (made[c].total(), ceiling) for c, ceiling in VALUE_CEILINGS.items()
            if made[c].total() > ceiling}
    assert not over, f"(built, ceiling) past the ceiling: {over}"
    over = {(c, name): (n, P1_VALUE_CEILINGS[c].get(name, 0))
            for c in P1_VALUE_CEILINGS for name, n in made[c].items()
            if n > P1_VALUE_CEILINGS[c].get(name, 0)}
    assert not over, f"(built, ceiling) past the ceiling per class: {over}"
