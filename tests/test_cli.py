"""Command-line interface: exit codes, schemas, determinism, witnesses."""

import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicbundle import (
    ConicModel,
    IntervalConfig,
    SurfPoint,
    apply_twist,
    cli,
)
from conicbundle import delpezzo, lattice, planner, projline, twist
from conicbundle.cli import run
from conicbundle.projline import ProjPoint
from conicbundle.projline import interval_image as arc_image

import support
from golden_replay import COLUMNS, USAGE_CASES, load, run_captured


def invoke(capsys, command, payload, extra=()):
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(payload) if not isinstance(payload, str) else payload)
    try:
        code = run([command, *extra])
    finally:
        sys.stdin = stdin
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = captured.err
    return code, out, err


# -- decisions -------------------------------------------------------------------

def test_decide_birational_yes_with_witness(capsys):
    payload = {"model1": {"roots": ["0", "1", "2", "3"]},
               "model2": {"roots": ["5", "6", "7", "8"]}}
    code, out, _ = invoke(capsys, "decide-birational", payload)
    assert code == 0
    assert out["answer"] is True
    witness = support.moebius_from_json(out["witness"])
    c1 = IntervalConfig.from_rat_pairs([(0, 1), (2, 3)])
    c2 = IntervalConfig.from_rat_pairs([(5, 6), (7, 8)])
    images = IntervalConfig(tuple(arc_image(witness, arc) for arc in c1.intervals))
    assert images == c2


def test_decide_birational_no_has_reason(capsys):
    payload = {"model1": {"roots": ["0", "1", "2", "3"]},
               "model2": {"roots": ["0", "1", "2", "4"]}}
    code, out, _ = invoke(capsys, "decide-birational", payload)
    assert code == 1
    assert out["answer"] is False
    assert out["reason"]


def test_decide_verytransitive_rules(capsys):
    code, out, _ = invoke(capsys, "decide-verytransitive",
                          {"model": {"roots": ["0", "1", "2", "3"]}})
    assert code == 0 and out["rule"] == "thm1.2(2a)"
    code, out, _ = invoke(capsys, "decide-verytransitive",
                          {"model": {"roots": [str(v) for v in range(8)]}})
    assert code == 1
    assert out["reason"] == "thm1.2-more-than-3"
    assert out["not_even_2_transitive"] is True


def test_decide_iso_swap(capsys):
    payload = {
        "model1": {"roots": ["0", "1", "2", "3"],
                   "marks": [{"x": "0", "y": "0", "z": "0"}]},
        "model2": {"roots": ["0", "1", "2", "3"],
                   "marks": [{"x": "2", "y": "0", "z": "0"}]},
    }
    code, out, _ = invoke(capsys, "decide-iso", payload)
    assert code == 0
    assert out["witness"]["perm"] == [2, 1]
    # emitted witness re-validates against the interval configurations
    witness = support.moebius_from_json(out["witness"]["moebius"])
    config = IntervalConfig.from_rat_pairs([(0, 1), (2, 3)])
    nu = [v - 1 for v in out["witness"]["perm"]]
    assert support.witness_maps_config(witness, config, config, nu)


def test_realizable_perms_roundtrip(capsys):
    code, out, _ = invoke(capsys, "realizable-perms",
                          {"config": [["0", "1"], ["2", "3"]]})
    assert code == 0
    assert out["count"] == 2
    perms = {tuple(entry["perm"]) for entry in out["permutations"]}
    assert perms == {(1, 2), (2, 1)}
    config = IntervalConfig.from_rat_pairs([(0, 1), (2, 3)])
    for entry in out["permutations"]:
        witness = support.moebius_from_json(entry["witness"])
        nu = [v - 1 for v in entry["perm"]]
        assert support.witness_maps_config(witness, config, config, nu)


def test_stabilizer_three_points(capsys):
    code, out, _ = invoke(capsys, "stabilizer", {"points": ["0", "1", "inf"]})
    assert code == 0
    assert out["order"] == 6


def test_stabilizer_prints_numbers_past_the_digit_limit(capsys):
    # The maps' entries have about 5,000 digits, past the 4,300 that str()
    # converts by default; the answer prints them exactly, and the limit
    # itself stays as it was.
    limit = sys.get_int_max_str_digits()
    tokens = ["0", "1", "1" + "0" * 2500, "-3" + "0" * 2500]
    code, out, _ = invoke(capsys, "stabilizer", {"points": tokens})
    assert code == 0
    points = [ProjPoint.from_rat(v) for v in (0, 1, 10 ** 2500, -3 * 10 ** 2500)]
    expected = [{k: support.decimal_digits(getattr(m, k)) for k in "abcd"}
                for m in support.oracle_stabilizer(points)]
    key = lambda entry: [entry[k] for k in "abcd"]
    assert out["order"] == len(expected) == 4
    assert sorted(out["stabilizer"], key=key) == sorted(expected, key=key)
    assert max(len(v) for entry in out["stabilizer"] for v in entry.values()) > 4300
    assert sys.get_int_max_str_digits() == limit


# -- twist commands -----------------------------------------------------------------

def test_twist_synthesis_and_verify_roundtrip(capsys):
    payload = {
        "model": {"roots": ["0", "1"]},
        "pairs": [[{"x": "1/2", "y": "1/2", "z": "0"},
                   {"x": "1/2", "y": "0", "z": "1/2"}]],
        "pins": ["0"],
    }
    code, out, _ = invoke(capsys, "twist", payload)
    assert code == 0
    assert out["report"]["passed"] is True
    assert out["twist"]["lambda"] == ["0", "2"]
    twist = cli._twist(out["twist"], "twist")
    model = ConicModel((0, 1))
    p = SurfPoint(Fraction(1, 2), Fraction(1, 2), 0)
    assert apply_twist(model, twist, p) == SurfPoint(Fraction(1, 2), 0, Fraction(1, 2))

    code, out, _ = invoke(capsys, "verify-twist",
                          {"model": payload["model"], "twist": out["twist"]})
    assert code == 0 and out["passed"] is True


def test_every_golden_twist_answer_verifies(capsys):
    entries = [entry for workload in ("fiber-miss", "fiber-hit") for entry in load(workload)
               if entry["argv"][0] == "twist"]
    assert len(entries) > 20 and all(entry["exit"] == 0 for entry in entries)
    for entry in entries:
        request, answer = json.loads(entry["stdin"]), json.loads(entry["stdout"])
        code, out, err = invoke(capsys, "verify-twist",
                                {"model": request["model"], "twist": answer["twist"]})
        assert (code, out) == (0, answer["report"]), err


@pytest.mark.parametrize("check, module, name, fake", [
    ("membership broken", twist, "on_circle", lambda *args: False),
    ("inverse does not undo the twist", twist.Rotation, "inverse", lambda self: self),
], ids=["membership", "inverse"])
def test_verification_failure_over_a_long_fiber_is_a_verdict(capsys, monkeypatch, check, module,
                                                             name, fake):
    # Every x sampled between the roots 10^5000 and 10^5000 + 1 has more
    # digits than str() converts; the failure names it cut short, exit 1
    monkeypatch.setattr(module, name, fake)
    big = "1" + "0" * 5000
    code, out, err = invoke(capsys, "verify-twist", {
        "model": {"roots": [big, big[:-1] + "1"]},
        "twist": {"base": {"c": "1", "s": "0"}, "lambda": ["1"]}})
    assert code == 1, err
    assert (out["passed"], out["reason"]) == (False, "verification-failed")
    assert out["failures"] and all(
        message.startswith(f"{check} over x = ") and message.endswith(" characters)")
        and len(message) < 100 for message in out["failures"]), out


def test_geiser_twice_returns_every_golden_point(capsys):
    entries = [entry for entry in load("decide") if entry["argv"][0] == "geiser"]
    assert entries
    for entry in entries:
        request = json.loads(entry["stdin"])
        point = request["point"]
        expected = delpezzo.BiPoint(tuple(int(v) for v in point["xyz"]),
                                    ProjPoint(*(int(v) for v in point["t"]))).as_json()
        code, out, _ = invoke(capsys, "geiser", request)
        assert code == 0
        code, out, _ = invoke(capsys, "geiser", {"model": request["model"], "point": out["image"]})
        assert (code, out["image"]) == (0, expected)


def seeded_twist_request(n_pairs):
    """roots (0, 1) and n_pairs pairs of sphere points, the stereographic
    images of (s, t) with s and t of height 10^3, each turned by a rotation
    psi(lam) with lam of height 10^6, all drawn from random.Random(11)."""
    rng = random.Random(11)

    def rat(height):
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    pairs, xs = [], set()
    while len(pairs) < n_pairs:
        s, t, spin = rat(10 ** 3), rat(10 ** 3), twist.rotation_from_param(rat(10 ** 6))
        n = s * s + t * t
        x, y, z = n / (n + 1), s / (n + 1), t / (n + 1)  # y^2 + z^2 = x (1 - x)
        if x not in xs:
            xs.add(x)
            v, w = spin.apply(y, z)
            pairs.append([{"x": str(x), "y": str(y), "z": str(z)},
                          {"x": str(x), "y": str(v), "z": str(w)}])
    return {"model": UNIT, "pairs": pairs}


@pytest.mark.parametrize("limit", ["640", "0"], ids=["least-limit", "no-limit"])
def test_twist_answers_past_the_digit_limit_read_back(limit):
    # In a child with int_max_str_digits at its least value (640) and with
    # no limit at all, 20- and 24-pair twists print lambda parts past the
    # default 4,300 digits, and verify-twist reads each back and passes; a
    # token past projline.TOKEN_CHARS stays a schema error under either limit.
    def cli_run(command, request):
        proc = support.run_python("-X", f"int_max_str_digits={limit}", "-m", "conicbundle.cli",
                                  command, stdin=json.dumps(request))
        return proc.returncode, proc.stdout, proc.stderr

    for n_pairs in (20, 24):
        request = seeded_twist_request(n_pairs)
        code, out, err = cli_run("twist", request)
        assert code == 0, err
        answer = json.loads(out)
        assert len(answer["twist"]["lambda"][0]) > 6000
        code, out, err = cli_run("verify-twist", {"model": UNIT, "twist": answer["twist"]})
        assert (code, json.loads(out)) == (0, answer["report"]), err
    long_lambda = {"base": {"c": "1", "s": "0"}, "lambda": ["1" + "0" * projline.TOKEN_CHARS]}
    code, out, err = cli_run("verify-twist", {"model": UNIT, "twist": long_lambda})
    report = json.loads(err)
    assert (code, report["error"], report["field"]) == (2, "schema", "twist.lambda[0]")
    assert f"longer than {projline.TOKEN_CHARS} characters" in report["message"]


def test_twist_fiber_mismatch_is_data_error(capsys):
    payload = {
        "model": {"roots": ["0", "1"]},
        "pairs": [[{"x": "1/2", "y": "1/2", "z": "0"},
                   {"x": "1/3", "y": "1/3", "z": "1/3"}]],
    }
    code, out, err = invoke(capsys, "twist", payload)
    assert code == 2
    assert out is None
    assert "FiberMismatch" in err


def invoke_bytes(capsys, command, payload):
    """(exit code, stdout, stderr) of one request, as the exact text written."""
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(payload))
    try:
        code = run([command])
    finally:
        sys.stdin = stdin
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def verify_request(base):
    return {"model": {"roots": ["0", "1", "2", "3"]},
            "twist": {"base": base, "lambda": ["1/2", "-3"]}}


PASSED_12 = '{\n  "failures": [],\n  "passed": true,\n  "points_checked": 12\n}\n'


# The rotation boundary, byte for byte: the one unit-circle message, the half
# turn c = -1 and a base below the axis as decoded bases, and a transport by
# the half turn, which forces a base other than the identity.
@pytest.mark.parametrize("command, payload, expected", [
    ("verify-twist", verify_request({"c": "1", "s": "1"}),
     (2, "", '{\n  "error": "schema",\n  "field": "twist.base",\n'
             '  "message": "twist.base: (1, 1) is not on the unit circle"\n}\n')),
    ("verify-twist", verify_request({"c": "-1", "s": "0"}), (0, PASSED_12, "")),
    ("verify-twist", verify_request({"c": "3/5", "s": "-4/5"}), (0, PASSED_12, "")),
    ("twist", {"model": {"roots": ["0", "1"]},
               "pairs": [[{"x": "1/2", "y": "1/2", "z": "0"}, {"x": "1/2", "y": "-1/2", "z": "0"}]],
               "pins": ["0"]},
     (0, '{\n  "report": {\n    "failures": [],\n    "passed": true,\n    "points_checked": 6\n'
         '  },\n  "twist": {\n    "base": {\n      "c": "3/5",\n      "s": "4/5"\n    },\n'
         '    "lambda": [\n      "-1/2",\n      "5"\n    ]\n  }\n}\n', "")),
], ids=["off-circle-base", "half-turn-base", "lower-base", "half-turn-transport"])
def test_rotation_boundary_bytes(capsys, command, payload, expected):
    assert invoke_bytes(capsys, command, payload) == expected


# -- del Pezzo commands ----------------------------------------------------------------

def test_geiser_command(capsys):
    payload = {"model": {"m1": ["-1", "1", "0"], "m2": ["-1", "0", "-1"],
                         "m3": ["-1", "0", "-2"], "k": 1},
               "point": {"xyz": ["3", "0", "1"], "t": ["1", "2"]}}
    code, out, _ = invoke(capsys, "geiser", payload)
    assert code == 0
    assert out["image"]["t"] == ["2", "5"]
    assert out["image"]["xyz"] == ["3", "0", "1"]


def test_biconic_image_command(capsys):
    payload = {"model": {"m1": ["-1", "1", "0"], "m2": ["-1", "0", "-1"],
                         "m3": ["-1", "0", "-2"], "k": 1}}
    code, out, _ = invoke(capsys, "biconic-image", payload)
    assert code == 0
    assert out["config"] == [["0", "1"]]


# -- lattice and planner ------------------------------------------------------------------

def test_lattice_command_deg4(capsys):
    code, out, _ = invoke(capsys, "lattice", {"m": 5})
    assert code == 0
    assert out["count"] == 16
    assert all(out["checks"].values())


def test_lattice_command_deg2(capsys):
    code, out, _ = invoke(capsys, "lattice", {"m": 7})
    assert code == 0
    assert out["count"] == 56
    assert all(out["checks"].values())


def test_region_path_command(capsys):
    payload = {"rects": [[["0", "2"], ["0", "1"]], [["1", "2"], ["0", "3"]]],
               "start": ["1/2", "1/2"], "end": ["3/2", "5/2"],
               "forbidden_x": [], "forbidden_y": []}
    code, out, _ = invoke(capsys, "region-path", payload)
    assert code == 0
    assert out["answer"] is True and out["segments"] == 2


def test_region_path_disconnected(capsys):
    payload = {"rects": [[["0", "1"], ["0", "1"]], [["3", "4"], ["3", "4"]]],
               "start": ["1/2", "1/2"], "end": ["7/2", "7/2"]}
    code, out, _ = invoke(capsys, "region-path", payload)
    assert code == 1
    assert out["reason"] == "disconnected"


# The planner's endpoint errors quote each coordinate as a rational token.
@pytest.mark.parametrize("payload, expected", [
    ({"rects": [[["0", "2"], ["0", "1"]]], "start": ["0", "0"], "end": ["2", "1"],
      "forbidden_x": ["0"]},
     {"error": "OnForbiddenLine", "message": "start (0, 0) lies on a forbidden line"}),
    ({"rects": [[["0", "2"], ["0", "1"]]], "start": ["1/2", "1"], "end": ["5/2", "-1/3"]},
     {"error": "OutsideRegion", "message": "end (5/2, -1/3) is outside the region"}),
], ids=["on-forbidden-line", "outside-region"])
def test_region_path_endpoint_errors_quote_rationals(capsys, payload, expected):
    code, out, err = invoke(capsys, "region-path", payload)
    assert (code, out, json.loads(err)) == (2, None, expected)


# -- error handling -------------------------------------------------------------------------

def test_malformed_json_reports_position(capsys):
    code, out, err = invoke(capsys, "decide-birational", '{"model1": ')
    assert code == 2
    assert out is None
    report = json.loads(err)
    assert report["error"] == "malformed-json"
    assert "line" in report and "column" in report


def test_json_nested_past_the_recursion_limit_is_malformed(capsys):
    code, out, err = invoke(capsys, "lattice", "[" * 100000 + "]" * 100000)
    assert code == 2 and out is None
    assert json.loads(err) == {"error": "malformed-json", "message": "nested too deeply"}


def test_schema_violation_names_field(capsys):
    code, out, err = invoke(capsys, "decide-birational", {"model1": {"roots": ["0", "1"]}})
    assert code == 2
    report = json.loads(err)
    assert report["error"] == "schema"
    assert report["field"] == "model2"


def test_non_coprime_token_rejected(capsys):
    code, out, err = invoke(capsys, "realizable-perms", {"config": [["2/4", "1"]]})
    assert code == 2
    assert "2/4" in err


BICONIC = {"m1": ["-1", "1", "0"], "m2": ["-1", "0", "-1"], "m3": ["-1", "0", "-2"], "k": 1}
UNIT = {"roots": ["0", "1"]}
IDENTITY = {"c": "1", "s": "0"}

# Requests that were once silently reinterpreted or failed without naming
# their field, each with the field its schema error must name.
MISREAD = [
    ("verify-twist", {"model": UNIT, "twist": {"base": IDENTITY, "lambda": "12"}},
     "twist.lambda"),
    ("biconic-image", {"model": dict(BICONIC, k=1.9)}, "model.k"),
    ("geiser", {"model": BICONIC, "point": {"xyz": [3.9, 0, "1"], "t": ["1", "2"]}},
     "point.xyz[0]"),
    ("geiser", {"model": BICONIC, "point": {"xyz": ["3_0", "0", "1"], "t": ["1", "2"]}},
     "point.xyz[0]"),
    ("twist", {"model": UNIT, "pins": "1"}, "pins"),
    ("twist", {"model": UNIT, "pins": {"a": 1}}, "pins"),
    ("verify-twist", {"model": UNIT, "twist": {"base": {"c": "1", "s": "1"}, "lambda": []}},
     "twist.base"),
    ("region-path", {"rects": [[["0", "1"]]], "start": ["0", "0"], "end": ["1", "1"]},
     "rects[0]"),
    ("decide-iso", {"model1": {"roots": ["0", "1"], "marks": [{"x": "0", "z": "0"}]},
                    "model2": UNIT}, "model1.marks[0].y"),
]
MISREAD_IDS = ["string-lambda", "float-k", "float-xyz", "underscore-xyz", "string-pins",
               "object-pins", "base-off-circle", "short-rect", "mark-without-y"]
# Rational tokens carry no surrounding whitespace.
PADDED = [
    ("stabilizer", {"points": [" inf", "0", "1"]}, "points[0]"),
    ("geiser", {"model": BICONIC, "point": {"xyz": ["3\n", "0", "1"], "t": ["1", "2"]}},
     "point.xyz[0]"),
]
PADDED_IDS = ["padded-inf", "newline-xyz"]


# JSON integer literals with more digits than int() converts
# (sys.get_int_max_str_digits()), spliced in raw where a request says "LONG":
# json.dumps cannot write them
LONG = "1" + "0" * 5000


@pytest.mark.parametrize("command, payload, field", [
    ("lattice", {"m": "LONG"}, "m"),
    ("biconic-image", {"model": dict(BICONIC, k="LONG")}, "model.k"),
    ("stabilizer", {"points": ["LONG", "0", "1"]}, "points[0]"),
    ("geiser", {"model": BICONIC, "point": {"xyz": ["LONG", "0", "1"], "t": ["1", "2"]}},
     "point.xyz[0]"),
], ids=["lattice-m", "biconic-k", "stabilizer-point", "geiser-xyz"])
def test_json_integer_past_the_digit_limit_is_a_schema_error(capsys, command, payload, field):
    code, out, err = invoke(capsys, command, json.dumps(payload).replace('"LONG"', LONG))
    assert code == 2 and out is None
    report = json.loads(err)
    assert (report["error"], report["field"]) == ("schema", field), report
    assert "digit limit" in report["message"] and len(report["message"]) < 100, report


# a value of 4,000 digits, short enough to parse
BIG = LONG[:4000]


# Each case gives the error, with its field for a schema error, and the size
# of the quoted text: the token, or the repr of the value that holds it.
@pytest.mark.parametrize("command, payload, error, field, size", [
    ("stabilizer", {"points": [LONG + "x", "0", "1"]}, "schema", "points[0]", 5002),
    ("geiser", {"model": BICONIC, "point": {"xyz": [LONG + "x", "0", "1"], "t": ["1", "2"]}},
     "schema", "point.xyz[0]", 5002),
    ("verify-twist", {"model": UNIT, "twist": {"base": {"c": BIG, "s": "1"}, "lambda": []}},
     "schema", "twist.base", 4000),
    ("twist", {"model": UNIT, "pairs": [[{"x": "1/2", "y": BIG, "z": "0"},
                                         {"x": "1/2", "y": "1/2", "z": "0"}]]},
     "NotOnSurface", None, 4000),
    ("twist", {"model": UNIT, "pins": [BIG]}, "EmptyOrSingularFiber", None, 4000),
    ("twist", {"model": UNIT, "jets": [[BIG, "0"]]}, "EmptyOrSingularFiber", None, 4000),
    ("decide-verytransitive",
     {"model": {"roots": ["0", "1"], "marks": [{"x": BIG, "y": "0", "z": "0"}]}},
     "NotOnSurface", None, 4000),
    ("geiser", {"model": BICONIC, "point": {"xyz": [BIG, "0", "1"], "t": ["1", "2"]}},
     "NotOnSurface", None, len(f"({BIG}, 0, 1)")),
    ("region-path", {"rects": [[["0", "1"], ["0", "1"]]], "start": [BIG, "0"], "end": ["1", "1"]},
     "OutsideRegion", None, 4000),
    ("realizable-perms", {"config": [["0", BIG], ["1", "2"]]}, "InvalidModel", None,
     len(f"Interval[0, {BIG}]")),
    # disc = 4 * 10^3999 - 12 of m1 = a^2 - (10^3999 - 3) b^2
    ("biconic-image", {"model": dict(BICONIC, m1=["1", "0", str(3 - 10 ** 3999)])},
     "IrrationalBoundary", None, 4000),
], ids=["stabilizer-point", "geiser-xyz", "off-circle-base", "off-surface-source", "pin", "jet",
        "mark", "geiser-point", "region-start", "overlapping-arcs", "irrational-disc"])
def test_a_long_rejected_token_is_quoted_short(capsys, command, payload, error, field, size):
    code, out, err = invoke(capsys, command, payload)
    assert code == 2 and out is None
    assert len(err.encode()) < 300, err
    report = json.loads(err)
    assert (report["error"], report.get("field")) == (error, field), report
    assert f"({size} characters)" in report["message"], report


@pytest.mark.parametrize("command, payload", [
    ("decide-birational", {"model1": {"roots": [0, 1]}, "model2": UNIT}),
    ("stabilizer", {"points": [0, 1, 2]}),
    ("twist", {"model": UNIT, "pins": [1]}),
    ("region-path", {"rects": [[[0, 1], [0, 1]]], "start": ["0", "0"], "end": ["1", "1"]}),
    ("verify-twist", {"model": UNIT, "twist": {"base": {"c": 1, "s": "0"}, "lambda": []}}),
    ("geiser", {"model": BICONIC, "point": {"xyz": ["3", "0", "1"], "t": ["1"]}}),
    ("lattice", {"m": True}),
    ("decide-birational", {"model1": {"roots": "12"}, "model2": UNIT}),
    ("twist", {"model": UNIT, "jets": [["1/2"]]}),
    *[(command, payload) for command, payload, _ in MISREAD + PADDED],
], ids=["number-root", "number-point", "number-pin", "number-bound", "number-rotation",
        "short-t", "bool-m", "string-roots", "short-jet", *MISREAD_IDS, *PADDED_IDS])
def test_malformed_input_is_data_error_without_traceback(command, payload):
    proc = support.run_python("-m", "conicbundle.cli", command, stdin=json.dumps(payload))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command, payload, field", [
    ("decide-birational", {"model1": {"roots": "12"}, "model2": UNIT}, "model1.roots"),
    ("twist", {"model": UNIT, "jets": [["1/2"]]}, "jets[0]"),
    ("twist", {"model": UNIT, "pairs": ["0"]}, "pairs[0]"),
    ("biconic-image", {"model": dict(BICONIC, k=3)}, "model.k"),
    ("biconic-image", {"model": dict(BICONIC, k=0)}, "model.k"),
    *MISREAD,
    # tokens longer than the reader's ceiling, projline.TOKEN_CHARS
    ("decide-birational", {"model1": {"roots": ["-1" + "0" * projline.TOKEN_CHARS, "0"]},
                           "model2": UNIT}, "model1.roots[0]"),
    ("geiser", {"model": BICONIC, "point": {"xyz": ["1" + "0" * projline.TOKEN_CHARS, "0", "1"],
                                            "t": ["1", "2"]}}, "point.xyz[0]"),
    *PADDED,
])
def test_schema_error_names_field(capsys, command, payload, field):
    code, out, err = invoke(capsys, command, payload)
    assert code == 2 and out is None
    report = json.loads(err)
    assert report["error"] == "schema"
    assert report["field"] == field


def test_tokens_past_the_digit_limit_are_read_in_full(capsys):
    # 5,001 digits, past the 4,300 that int() converts by default and below
    # the reader's ceiling; the limit itself stays as it was
    limit = sys.get_int_max_str_digits()
    big = "1" + "0" * 5000
    code, out, _ = invoke(capsys, "decide-birational",
                          {"model1": {"roots": ["-" + big, "0"]}, "model2": UNIT})
    assert code == 0 and out["answer"] is True
    witness = support.moebius_from_json(out["witness"])
    source = IntervalConfig.from_rat_pairs([(-10 ** 5000, 0)])
    assert support.witness_maps_config(witness, source, IntervalConfig.from_rat_pairs([(0, 1)]),
                                       (0,))
    code, _, err = invoke(capsys, "geiser",
                          {"model": BICONIC, "point": {"xyz": [big, "0", "1"], "t": ["1", "2"]}})
    assert code == 2 and json.loads(err)["error"] == "NotOnSurface"
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv, target", [
    (["lattice"], "."), (["selftest", "--seed", "1"], "missing/report.json"),
], ids=["directory", "missing-directory"])
def test_unwritable_output_is_data_error_without_traceback(tmp_path, argv, target):
    proc = support.run_python("-m", "conicbundle.cli", *argv, "--output", str(tmp_path / target),
                              stdin='{"m": 5}')
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cannot write output:")


@pytest.mark.parametrize("argv, redirect, code, shown", [
    (["-h"], ">&-", 0, "show this help message and exit"),
    (["lattice", "-hx"], "2>&-", 2, ""),
    (["lattice", "-h"], ">&- 2>&-", 0, ""),
], ids=["help-without-stdout", "error-without-stderr", "help-without-either"])
def test_help_and_usage_errors_outlive_a_closed_stream(argv, redirect, code, shown):
    # as argparse did: the help goes to stderr when stdout is closed, and a
    # stream that cannot be written to is skipped, keeping the exit code
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(["sh", "-c", f'"$0" -m conicbundle.cli "$@" {redirect}',
                           sys.executable, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert shown in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("stdin, redirect, shown", [
    ('{"m": 5}', ">&-", "cannot write output: standard output is closed\n"),
    ('{"m": 5}', "<&-", "cannot read input: standard input is closed\n"),
    ("{}", "2>&-", ""),
], ids=["answer-without-stdout", "request-without-stdin", "schema-error-without-stderr"])
def test_a_closed_standard_stream_is_data_error_without_traceback(stdin, redirect, shown):
    # a closed stream is None in sys: exit 2, and the error goes to stderr if it is open
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(["sh", "-c", f'"$0" -m conicbundle.cli lattice {redirect}',
                           sys.executable], input=stdin,
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", shown)


def test_undecodable_input_is_data_error_without_traceback(tmp_path):
    request = tmp_path / "request.json"
    request.write_bytes(b'{"m": 5, "note": "\xff"}')
    proc = support.run_python("-m", "conicbundle.cli", "lattice", "--input", str(request))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cannot read input:")


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


@pytest.mark.parametrize("argv, code, out, err", [case[1:] for case in USAGE_CASES],
                         ids=[case[0] for case in USAGE_CASES])
def test_usage_bytes(capsys, monkeypatch, argv, code, out, err):
    # the texts are fixed: COLUMNS, the terminal width argparse reads, changes no byte
    for columns in COLUMNS:
        monkeypatch.setenv("COLUMNS", columns)
        assert run(argv) == code
        assert capsys.readouterr() == (out, err)


CENSUS_TOKENS = (*cli.SUBCOMMANDS, "-h", "--help", "--he", "--input", "--inp", "--input=x",
                 "--output", "--seed", "--se", "1", "x", "--", "-hx", "-x", "frobnicate")
# the spellings that the census tokens leave out: "=" after each option, a
# "--" as an option's argument, short options run together, an ambiguous
# prefix, negative numbers, spaces, an empty and a lone "-"
EDGE_TOKENS = ("lattice", "selftest", "--=x", "-h=", "-h=x", "-h=h", "-hh", "-hhx", "-hxy",
               "--help=", "--he=hh", "--inp=", "--input=--", "--output=--", "--seed=--",
               "--seed=", "--seed=1_0", "--s=3", "--o", "-1", "-1.5", "-.5", "-1=2", "- x",
               "-h x", "--inp x", "", "-", "---", "x'y", "--", "x")


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the oracle is argparse 3.11's reading of the command line; "
                           "other versions read some command lines differently")
@pytest.mark.parametrize("tokens, longest", [(CENSUS_TOKENS, 3), (EDGE_TOKENS, 2)],
                         ids=["census", "edge-spellings"])
@pytest.mark.parametrize("columns", ["40", "200"])
def test_every_short_command_line_gives_the_reference_parser_bytes(
        tmp_path, monkeypatch, tokens, longest, columns):
    # Every command line of up to `longest` tokens, read once by the reader and
    # once by support.reference_parser, the parser the CLI built before it:
    # exit code, stdout and stderr must agree.  Each side works in its own
    # directory, since "--output x" writes x.  selftest echoes its seed, so
    # the census stays fast and still shows the seed that each side read.
    monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.setattr(cli, "_selftest", lambda seed: {"seed": seed, "passed": True})
    argvs = [list(argv) for n in range(longest + 1) for argv in itertools.product(tokens, repeat=n)]
    reader = cli._read_argv

    def outcomes(read_argv, name):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        monkeypatch.setattr(cli, "_read_argv", read_argv)
        return [run_captured(argv, "", cli.run) for argv in argvs]

    expected = outcomes(support.reference_read_argv, "reference")
    got = outcomes(reader, "reader")
    differ = [(argv, e, g) for argv, e, g in zip(argvs, expected, got) if e != g]
    assert not differ, differ[:5]


@pytest.mark.parametrize("command, payload, field", [
    ("lattice", '{"m": 5, "m": 6}', "m"),
    ("lattice", '{"m": 5, "m": 5, "m": 6}', "m"),
    ("twist", '{"model": {"roots": ["0", "1"], "roots": ["0", "2"]}}', "model.roots"),
    ("twist", '{"model": {"roots": ["0", "1"]}, "pairs": [[{"x": "1/2", "y": "1/2", "z": "0"},'
              ' {"x": "1/2", "x": "1/2", "y": "0", "z": "1/2"}]]}', "pairs[0][1].x"),
    ("twist", '{"model": {"roots": ["0", "1"]}, "pins": [], "pins": ["0"]}', "pins"),
], ids=["top-level", "three-times", "model-roots", "pair-point", "optional-field"])
def test_a_repeated_key_is_a_schema_error(capsys, command, payload, field):
    code, out, err = invoke(capsys, command, payload)
    assert code == 2 and out is None
    assert json.loads(err) == {"error": "schema", "field": field,
                               "message": f"{field}: duplicate key"}


def test_a_repeated_unknown_key_is_ignored(capsys):
    assert invoke(capsys, "lattice", '{"m": 5, "note": 1, "note": 2}') == \
        invoke(capsys, "lattice", '{"m": 5}')


def test_selftest_rejects_input_without_traceback(tmp_path):
    proc = support.run_python("-m", "conicbundle.cli", "selftest", "--seed", "1",
                              "--input", str(tmp_path / "request.json"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "--input" in proc.stderr
    assert proc.stdout == ""


def test_readme_table_lists_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"^\| `([a-z-]+)` \|", readme, re.M) == list(cli.SUBCOMMANDS)


# -- determinism -------------------------------------------------------------------------------

def test_identical_input_identical_output(capsys):
    payload = json.dumps({"model": {"roots": ["0", "1", "2", "3", "4", "5"]}})
    outputs = []
    for _ in range(2):
        stdin = sys.stdin
        sys.stdin = io.StringIO(payload)
        try:
            run(["decide-verytransitive"])
        finally:
            sys.stdin = stdin
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_selftest_deterministic(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["selftest", "--seed", "3", "--output", str(out1)]) == 0
    assert run(["selftest", "--seed", "3", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["passed"] is True
    assert {s["name"] for s in report["suites"]} >= {
        "interval-configs", "twist-transport", "geiser-involution", "lattice", "planner"}


SELFTEST_CASES = {"interval-configs": 18, "twist-transport": 8, "geiser-involution": 8,
                  "lattice": 4, "planner": 10}


@pytest.mark.parametrize("seed", range(20))
def test_selftest_report_shape(capsys, seed):
    assert run(["selftest", "--seed", str(seed)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"seed": seed, "passed": True, "suites": [
        {"name": name, "cases": cases, "failures": []}
        for name, cases in SELFTEST_CASES.items()]}


@pytest.mark.parametrize("suite, module, name, fake", [
    ("interval-configs", projline, "config_equiv", lambda *args: None),
    ("twist-transport", twist, "apply_twist", lambda model, twist_map, p: p),
    ("geiser-involution", delpezzo, "geiser",
     lambda model, p: delpezzo.BiPoint(p.xyz, ProjPoint(p.t.u0 + p.t.u1, p.t.u1))),
    ("lattice", lattice, "perms_commute", lambda p, q: False),
], ids=["config-equiv", "apply-twist", "geiser", "perms-commute"])
def test_selftest_fails_the_suite_whose_check_breaks(capsys, monkeypatch, suite, module, name, fake):
    monkeypatch.setattr(module, name, fake)
    assert run(["selftest", "--seed", "0"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert {s["name"]: s["cases"] for s in report["suites"]} == SELFTEST_CASES
    assert [s["name"] for s in report["suites"] if s["failures"]] == [suite]


def test_selftest_case_that_raises_is_an_internal_error(capsys, monkeypatch):
    # find_rect_path validates its own path, so a planner case fails by raising
    def broken(*args, **kwargs):
        raise AssertionError("planner produced a path that fails validation")
    monkeypatch.setattr(planner, "find_rect_path", broken)
    assert run(["selftest", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert json.loads(captured.err)["error"] == "internal"


# -- the CLI contract under malformed requests ---------------------------------------------------
#
# Shape mutations of well-formed requests (decide-workload golden requests and
# small twists) and arbitrary JSON, through every JSON subcommand.  Only
# shapes change, never magnitudes, so no slow point search runs.

GOLDEN_DECIDE = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "decide.json"
SMALL_TWIST_REQUESTS = [
    ("twist", {"model": UNIT,
               "pairs": [[{"x": "1/2", "y": "1/2", "z": "0"}, {"x": "1/2", "y": "0", "z": "1/2"}]],
               "pins": ["0"], "jets": [["1/4", "1"]]}),
    ("verify-twist", {"model": {"roots": ["0", "1", "2", "3"]},
                      "twist": {"base": {"c": "3/5", "s": "4/5"}, "lambda": ["0", "2"]}}),
]


def _base_requests():
    record = json.loads(GOLDEN_DECIDE.read_text())
    requests = [(e["argv"][0], json.loads(e["stdin"])) for e in record["requests"] if e["stdin"]]
    return requests + SMALL_TWIST_REQUESTS


BASE_REQUESTS = _base_requests()
REQUEST_KEYS = {}
for _command, _request in BASE_REQUESTS:
    REQUEST_KEYS.setdefault(_command, set()).update(_request)

LEAVES = [0, 1, -1, True, False, None, 0.5, "", "x", [], {}]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=10)


def _locations(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _locations(value, path + (key,))


def _mutate(request, path, op, leaf):
    """A copy of request with the value at path dropped, replaced by leaf,
    wrapped in a list or unwrapped to its first entry."""
    request = json.loads(json.dumps(request))
    if not path:
        # the whole request: wrapped, or else replaced
        return [request] if op == "wrap" else leaf
    parent = request
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    if op == "drop":
        del parent[path[-1]]
    elif op == "wrap":
        parent[path[-1]] = [value]
    elif op == "unwrap" and isinstance(value, (list, dict)) and value:
        parent[path[-1]] = next(iter(value.values())) if isinstance(value, dict) else value[0]
    else:
        # replace, or unwrap a value that has no first entry
        parent[path[-1]] = leaf
    return request


def _assert_contract(command, request):
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(json.dumps(request)), out, err
    try:
        code = run([command])
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    assert code in (0, 1, 2)
    if code != 2:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
        return
    assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    report = json.loads(err.getvalue())
    assert isinstance(report, dict)
    if report["error"] == "schema":
        assert re.split(r"[.\[]", report["field"])[0] in REQUEST_KEYS[command], report


def test_fuzz_requests_cover_every_json_subcommand():
    assert set(REQUEST_KEYS) == set(cli._HANDLERS)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzz_mutated_requests_keep_the_contract(data):
    command, request = data.draw(st.sampled_from(BASE_REQUESTS))
    path = data.draw(st.sampled_from(list(_locations(request))))
    op = data.draw(st.sampled_from(["drop", "replace", "wrap", "unwrap"]))
    leaf = data.draw(st.sampled_from(LEAVES))
    _assert_contract(command, _mutate(request, path, op, leaf))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(cli._HANDLERS)), st.data())
def test_fuzz_arbitrary_json_keeps_the_contract(command, data):
    keys = st.sampled_from(sorted(REQUEST_KEYS[command])) | st.text(max_size=4)
    request = data.draw(json_values | st.dictionaries(keys, json_values, max_size=4))
    _assert_contract(command, request)
