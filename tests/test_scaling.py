"""Request size: one seeded request per subcommand well past the decks'
sizes, run through the CLI in process.

Each answer is checked exactly.  Each run gets a wall bound of about ten
times its measured time, as a shared host's speed drifts by a third: on
Python 3.11.7 and a Xeon core, decide-birational at r = 200 took 0.01-0.02 s,
stabilizer on 1,596 points 0.4-0.58 s, decide-iso at r = 200
0.02-0.03 s, realizable-perms at r = 200 0.03-0.05 s and
decide-verytransitive with 100 marks 0.002-0.004 s.
"""

import json
import random
import time
from fractions import Fraction

import support
from conicbundle import ConicModel, SurfPoint
from conicbundle.projline import INF, IntervalConfig, Moebius, ProjPoint, format_rat
from golden_replay import run_captured


def timed(argv, request):
    """(exit code, the answer, seconds) of one request."""
    start = time.perf_counter()
    code, out, err = run_captured(argv, json.dumps(request))
    seconds = time.perf_counter() - start
    assert not err
    return code, json.loads(out), seconds


def finite_roots(config):
    return sorted(p.to_rat() for p in config.boundary_points())


def marked_json(roots, marks):
    return {"roots": [format_rat(a) for a in roots],
            "marks": [{"x": format_rat(p.x), "y": format_rat(p.y), "z": format_rat(p.z)}
                      for p in marks]}


def counts_of(model, marks):
    counts = [0] * model.r
    for p in marks:
        counts[support.reference_component_index(model, p) - 1] += 1
    return counts


def test_decide_birational_at_r_200():
    rng = random.Random(15)
    c1 = support.random_config(rng, 200, low=-10 ** 4, high=10 ** 4)
    while True:  # a Moebius image of c1 that keeps every arc finite
        image = c1.apply(support.random_moebius(rng))
        if INF not in image.boundary_points() and not any(a.contains(INF) for a in image.intervals):
            break
    roots1, roots2 = finite_roots(c1), finite_roots(image)
    code, answer, seconds = timed(["decide-birational"], {
        "model1": {"roots": [format_rat(a) for a in roots1]},
        "model2": {"roots": [format_rat(a) for a in roots2]}})
    assert code == 0 and answer["answer"] is True
    witness = support.moebius_from_json(answer["witness"])
    config1 = IntervalConfig.from_rat_pairs(zip(roots1[::2], roots1[1::2]))
    config2 = IntervalConfig.from_rat_pairs(zip(roots2[::2], roots2[1::2]))
    assert support._verify_by_membership(witness, config1, config2) is not None
    assert seconds < 0.2, seconds


def test_stabilizer_of_1596_points():
    # The dihedral group of order 12 that x -> (2x - 1)/(x + 1), of order 6,
    # and x -> 1/x generate.  No finite subgroup of PGL_2(Q) is larger, so
    # it is the whole stabilizer of any union of its orbits.
    rng = random.Random(16)
    generators = (Moebius(2, -1, 1, 1), Moebius(0, 1, 1, 0))
    group, frontier = {Moebius.identity()}, [Moebius.identity()]
    while frontier:
        g = frontier.pop()
        for h in (support.moebius_compose(s, g) for s in generators):
            if h not in group:
                group.add(h)
                frontier.append(h)
    assert len(group) == 12
    points = set()
    while len(points) < 1596:
        p = ProjPoint.from_rat(Fraction(rng.randint(-10 ** 3, 10 ** 3), rng.randint(1, 10 ** 3)))
        orbit = {g.apply(p) for g in group}
        if len(orbit) == 12 and INF not in orbit and not orbit & points:
            points |= orbit
    tokens = sorted(format_rat(p.to_rat()) for p in points)
    code, answer, seconds = timed(["stabilizer"], {"points": rng.sample(tokens, len(tokens))})
    assert code == 0 and answer["order"] == 12
    maps = [support.moebius_from_json(entry) for entry in answer["stabilizer"]]
    assert set(maps) == group
    for m in maps:
        assert {m.apply(p) for p in points} == points
    assert seconds < 6, seconds


def test_decide_iso_at_r_200():
    # model 2 is the image of model 1 under x -> 3x + 7, marks included
    rng = random.Random(17)
    roots1 = finite_roots(support.random_config(rng, 200, low=-10 ** 4, high=10 ** 4))
    roots2 = [3 * a + 7 for a in roots1]
    marks1 = [SurfPoint(a, 0, 0) for a in roots1[::7]]
    marks2 = [SurfPoint(3 * p.x + 7, 0, 0) for p in marks1]
    code, answer, seconds = timed(["decide-iso"], {"model1": marked_json(roots1, marks1),
                                                   "model2": marked_json(roots2, marks2)})
    assert code == 0 and answer["answer"] is True
    witness = support.moebius_from_json(answer["witness"]["moebius"])
    nu = tuple(i - 1 for i in answer["witness"]["perm"])
    config1 = IntervalConfig.from_rat_pairs(zip(roots1[::2], roots1[1::2]))
    config2 = IntervalConfig.from_rat_pairs(zip(roots2[::2], roots2[1::2]))
    assert support._verify_by_membership(witness, config1, config2) == nu
    counts1 = counts_of(ConicModel(tuple(roots1)), marks1)
    counts2 = counts_of(ConicModel(tuple(roots2)), marks2)
    assert sum(counts1) == len(marks1) and all(counts1[i] == counts2[nu[i]] for i in range(200))
    assert seconds < 0.3, seconds


def test_realizable_perms_at_r_200():
    # a config symmetric under x -> -x: exactly the identity and the reversal
    rng = random.Random(18)
    half = finite_roots(support.random_config(rng, 100, low=1, high=10 ** 4))
    roots = sorted([-a for a in half] + half)
    arcs = [[format_rat(s), format_rat(e)] for s, e in zip(roots[::2], roots[1::2])]
    code, answer, seconds = timed(["realizable-perms"], {"config": arcs})
    assert code == 0 and answer["count"] == 2
    perms = [entry["perm"] for entry in answer["permutations"]]
    assert perms == [list(range(1, 201)), list(range(200, 0, -1))]
    config = IntervalConfig.from_rat_pairs(zip(roots[::2], roots[1::2]))
    for entry in answer["permutations"]:
        nu = tuple(i - 1 for i in entry["perm"])
        assert support.witness_maps_config(support.moebius_from_json(entry["witness"]),
                                           config, config, nu)
    assert seconds < 0.5, seconds


def test_decide_verytransitive_with_100_marks():
    # three arcs symmetric under x -> -x, 33, 34 and 33 marks spun round one
    # fiber point of each, against the thm1.2 table
    rng = random.Random(19)
    while True:
        c, a, b = sorted(Fraction(rng.randint(1, 60), rng.randint(1, 6)) for _ in range(3))
        if c < a < b:
            model = ConicModel((-b, -a, -c, c, a, b))
            found = support.model_fibers_with_points(model, 6)
            points = [next((p for p in found if lo < p.x < hi), None)
                      for lo, hi in zip(model.roots[::2], model.roots[1::2])]
            if None not in points:
                break
    marks = []
    for p, k in zip(points, (33, 34, 33)):
        for lam in range(k):
            cos, sin = support.reference_rotation_from_param(Fraction(lam))
            marks.append(SurfPoint(p.x, cos * p.y - sin * p.z, sin * p.y + cos * p.z))
    assert len(set(marks)) == 100
    code, answer, seconds = timed(["decide-verytransitive"],
                                  {"model": marked_json(model.roots, marks)})
    counts = counts_of(model, marks)
    config = IntervalConfig.from_rat_pairs(zip(model.roots[::2], model.roots[1::2]))
    perms = {nu for _, nu in support.oracle_equiv_all(config, config)}
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 3) if counts[i] == counts[j]]
    assert counts == [33, 34, 33] and pairs == [(0, 2)] and (2, 1, 0) in perms
    # thm1.2(2c): exactly one homeomorphic pair, and its swap is realized
    assert code == 0 and answer["answer"] is True and answer["rule"] == "thm1.2(2c)"
    assert answer["types"] == ["N33", "N34", "N33"]
    [witness] = answer["witnesses"]
    assert witness["perm"] == [3, 2, 1]
    assert support.witness_maps_config(support.moebius_from_json(witness["moebius"]),
                                       config, config, (2, 1, 0))
    assert seconds < 0.05, seconds
