"""The project configuration itself: the suite runs from a plain checkout,
a failing test must not end the session, and the console script loads only
its subcommand's layers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_replay import load
from test_imports import ALWAYS, fresh

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_a_failing_given_test_does_not_abort_the_session(tmp_path):
    # Reporting a failed @given test makes Hypothesis import its patch writer,
    # which warns on import; under `filterwarnings = error` that warning used
    # to end the session with an INTERNALERROR before the next test ran.
    (tmp_path / "test_pair.py").write_text(FAILING_THEN_PASSING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output


def test_the_suite_collects_from_a_plain_checkout():
    # pytest itself puts src/ on the path: no install and no PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--collect-only",
         "tests/test_values.py"],
        cwd=PYPROJECT.parent, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


def test_the_console_script_loads_only_its_subcommand_layers():
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["conicbundle"]
    module, function = target.split(":")
    entry = next(e for e in load("decide") if e["argv"][0] == "lattice")
    # what the generated script does, with the command's name as argv[0]
    code, out, err, loaded = fresh(
        f"sys.argv[0] = 'conicbundle'; from {module} import {function}; sys.exit({function}())",
        entry["argv"], entry["stdin"])
    assert (code, out, err) == (entry["exit"], entry["stdout"], "")
    assert loaded == ALWAYS | {"conicbundle.lattice", module}
