"""Golden guard: every recorded benchmark request gives the same bytes.

The records under perfbench/golden/ hold each request's argv, stdin, exit
code and exact stdout.  Replaying them in process through cli.run pins the
whole CLI surface, so a refactor that changes any output fails here.  A
second replay runs under python -O.
"""

import io
import json
import sys
from pathlib import Path

import pytest

from conicbundle.cli import run

import support

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def replay(argv, stdin, run=run):
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, io.StringIO()
    try:
        code = run(list(argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


WORKLOADS = ["decide", "fiber-miss", "fiber-hit"]


def load(workload):
    record = json.loads((GOLDEN / f"{workload}.json").read_text())
    assert record["requests"]
    return record["requests"]


def drift(requests, results):
    """One line per request whose (exit code, stdout) differs from the record."""
    lines = []
    for k, (entry, (code, out)) in enumerate(zip(requests, results, strict=True)):
        if code != entry["exit"]:
            lines.append(f"#{k} {' '.join(entry['argv'])}: exit {code}, recorded {entry['exit']}")
        elif out != entry["stdout"]:
            lines.append(f"#{k} {' '.join(entry['argv'])}: stdout bytes differ")
    return lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_outputs_are_byte_identical(workload):
    requests = load(workload)
    lost = drift(requests, [replay(e["argv"], e["stdin"]) for e in requests])
    assert not lost, "\n".join(lost)


# The same replay in a fresh interpreter under python -O, which strips assert
# statements: every output must still come from checked code.
OPTIMIZED_REPLAY = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_golden import WORKLOADS, load, replay
print(json.dumps({"optimize": sys.flags.optimize, "results": {
    w: [replay(e["argv"], e["stdin"]) for e in load(w)] for w in WORKLOADS}}))
"""


def test_golden_outputs_are_byte_identical_under_python_O():
    proc = support.run_python("-O", "-c", OPTIMIZED_REPLAY, str(Path(__file__).parent))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["optimize"] == 1
    lost = [f"{w} {line}" for w in WORKLOADS
            for line in drift(load(w), report["results"][w])]
    assert not lost, "\n".join(lost)
