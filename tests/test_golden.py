"""Golden guard: every recorded benchmark request gives the same bytes.

The records under perfbench/golden/ hold each request's argv, stdin, exit
code and exact stdout.  Replaying them in process through cli.run pins the
whole CLI surface, so a refactor that changes any output fails here.  The
stdlib-only script golden_replay.py replays them again, with the usage
cases, under python -O and under every other interpreter that
requires-python admits.
"""

import json
from pathlib import Path

import pytest

import support
from conicbundle import twist
from golden_replay import WORKLOADS, drift, load, replay

SCRIPT = str(Path(__file__).with_name("golden_replay.py"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_outputs_are_byte_identical(workload):
    requests = load(workload)
    lost = drift(requests, [replay(e["argv"], e["stdin"]) for e in requests])
    assert not lost, "\n".join(lost)


def _script_report(*flags, python=None):
    proc = support.run_python(*flags, SCRIPT, python=python)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# python -O strips assert statements: every output must still come from
# checked code.
def test_golden_outputs_are_byte_identical_under_python_O():
    report = _script_report("-O")
    assert report["optimize"] == 1
    assert not report["drift"], "\n".join(report["drift"])


def test_golden_and_usage_bytes_on_every_other_interpreter():
    found = support.other_interpreters()
    if not found:
        pytest.skip("no other interpreter python3.10 to python3.13 on PATH or under "
                    "~/.pyenv/versions")
    lost = []
    for python, version in found.items():
        for flags in ((), ("-O",)):
            report = _script_report(*flags, python=python)
            assert (report["version"], report["optimize"]) == (version, len(flags))
            lost += [f"{version} {' '.join(flags)}: {line}" for line in report["drift"]]
    assert not lost, "\n".join(lost)


# Every Q(x) that the golden twist records search factors inside its budget,
# so the circle scan, the fallback for an n that does not, never runs there.
def test_twist_records_hold_when_factoring_gives_up(monkeypatch):
    scans = []
    scan = twist._circle_scan
    monkeypatch.setattr(twist, "_factor", lambda n: None)
    monkeypatch.setattr(twist, "_circle_scan", lambda n: scans.append(n) or scan(n))
    requests = [entry for workload in WORKLOADS for entry in load(workload)
                if entry["argv"][0] in ("twist", "verify-twist")]
    lost = drift(requests, [replay(e["argv"], e["stdin"]) for e in requests])
    assert not lost, "\n".join(lost)
    assert len(requests) >= 100 and len(scans) >= len(requests)


# No golden record asks for a twist with no pair, pin or jet: the empty
# interpolant, about the identity base.
def test_a_twist_with_no_constraint_prints_the_identity():
    assert replay(["twist"], '{"model": {"roots": ["0", "1"]}}') == (0, """{
  "report": {
    "failures": [],
    "passed": true,
    "points_checked": 6
  },
  "twist": {
    "base": {
      "c": "1",
      "s": "0"
    },
    "lambda": []
  }
}
""")


# Nor does one carry the token "inf".
def test_the_stabilizer_of_0_1_inf_prints_the_anharmonic_group():
    maps = [("0", "1", "-1", "1"), ("0", "1", "1", "0"), ("1", "-1", "0", "-1"),
            ("1", "-1", "1", "0"), ("1", "0", "0", "1"), ("1", "0", "1", "-1")]
    entries = ",\n".join("    {\n" + ",\n".join(f'      "{k}": "{v}"' for k, v in zip("abcd", m))
                         + "\n    }" for m in maps)
    expected = '{\n  "order": 6,\n  "stabilizer": [\n' + entries + "\n  ]\n}\n"
    assert replay(["stabilizer"], '{"points": ["0", "1", "inf"]}') == (0, expected)
