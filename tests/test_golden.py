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
