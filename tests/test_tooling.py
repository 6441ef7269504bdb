"""The project configuration itself: a failing test must not end the
session, the console script loads only its subcommand's layers, and the
library states no check as a bare assert."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import load
from test_imports import ALWAYS, fresh

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "conicbundle"

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


def test_the_console_script_loads_only_its_subcommand_layers():
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["conicbundle"]
    module, function = target.split(":")
    entry = next(e for e in load("decide") if e["argv"][0] == "lattice")
    # what the generated script does, with the command's name as argv[0]
    code, out, loaded = fresh(
        f"sys.argv[0] = 'conicbundle'; from {module} import {function}; sys.exit({function}())",
        entry["argv"], entry["stdin"])
    assert (code, out) == (entry["exit"], entry["stdout"])
    assert loaded == ALWAYS | {"conicbundle.lattice", module}


def test_the_library_has_no_assert_statement():
    # python -O strips assert statements, so a postcondition stated as one
    # would stop holding there; the library raises instead.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert sorted(PACKAGE.glob("*.py")) and not found, found
