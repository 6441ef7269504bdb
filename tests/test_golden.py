"""Golden guard: every recorded benchmark request gives the same bytes.

The records under perfbench/golden/ hold each request's argv, stdin, exit
code and exact stdout.  Replaying them in process through cli.run pins the
whole CLI surface, so a refactor that changes any output fails here.
"""

import io
import json
import sys
from pathlib import Path

import pytest

from conicbundle.cli import run

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def replay(argv, stdin):
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, io.StringIO()
    try:
        code = run(list(argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


@pytest.mark.parametrize("workload", ["decide", "fiber-miss", "fiber-hit"])
def test_golden_outputs_are_byte_identical(workload):
    record = json.loads((GOLDEN / f"{workload}.json").read_text())
    assert record["requests"]
    drift = []
    for k, entry in enumerate(record["requests"]):
        code, out = replay(entry["argv"], entry["stdin"])
        if code != entry["exit"]:
            drift.append(f"#{k} {' '.join(entry['argv'])}: exit {code}, recorded {entry['exit']}")
        elif out != entry["stdout"]:
            drift.append(f"#{k} {' '.join(entry['argv'])}: stdout bytes differ")
    assert not drift, "\n".join(drift)
