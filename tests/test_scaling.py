"""Request size: one seeded request per subcommand well past the decks'
sizes, run through the CLI in process.

Each answer is checked exactly.  Each run gets a wall bound of about ten
times its measured time, as a shared host's speed drifts by a third: on
Python 3.11.7 and a Xeon core, decide-birational at r = 200 took 0.01-0.02 s
and stabilizer on 1,596 points 0.4-0.58 s.
"""

import json
import random
import time
from fractions import Fraction

import support
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
