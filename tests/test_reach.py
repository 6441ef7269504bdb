"""The library ships what the CLI reaches.

Every golden request is replayed in process through cli.run under a trace
hook that records only call events.  Every function defined in
src/conicbundle must then have been called, or be a key of UNREACHED, whose
value says why it stays.  No key of UNREACHED may have been called, so the
list cannot go stale: a function that a request starts to reach leaves it,
and one that no request, README line or acceptance criterion needs goes.
"""

import ast
import importlib
import sys
from pathlib import Path

import conicbundle

from golden_replay import WORKLOADS, load, replay

PACKAGE = Path(conicbundle.__file__).resolve().parent

UNREACHED = {
    "__init__.__getattr__": "import path: resolves `from conicbundle import name` (PEP 562)",
    "__main__.main": "entry point: `python -m conicbundle` and the console script",
    "cli._OnFirstUse.__init__": "import path: built only when cli runs as __main__",
    "cli._OnFirstUse.__getattr__": "import path: read only when cli runs as __main__",
    "cli.main": "entry point: `python -m conicbundle.cli`",
    "cli._report": "error path: writes every data error",
    "cli._LongInt.__repr__": "error path: names an integer past the digit limit in a schema error",
    "cli._stop": "error path: only help and usage errors print and exit through it",
    "conic_model.ConicModel.q_at": "acceptance spec: criterion 1's surface equation",
    "delpezzo.distinct_foliations_witness": "paper content that biconic-image will print",
    "delpezzo.on_biconic": "paper content: the surface equation, which the tests hold "
                           "fiber_points and geiser to",
    "delpezzo.second_fibration": "paper content: distinct_foliations_witness reads it",
    "errors.SchemaError.__init__": "error path: every schema error",
    "errors.Value.__init_subclass__": "import-time: runs as each value class is defined",
    "errors.Value.__setattr__": "error path: refuses to write to a value",
    "errors.WitnessSearchFailed.__init__": "error path: distinct_foliations_witness's budget",
    "errors.quote": "error path: cuts long values short in error messages",
    "lattice.PicVector.__add__": "acceptance spec: criterion 10 adds fiber classes",
    "lattice.PicVector.__repr__": "the repr that tests/test_values.py pins",
    "lattice.conic_fiber_partner": "acceptance spec (criterion 10), and paper content for lattice",
    "lattice.deg4_class_names": "paper content: the names of the classes that sigma and "
                                "alpha swap",
    "lattice.e0": "acceptance spec: criterion 10 builds e0 - e_i",
    "polynomial.RatPoly.__add__": "acceptance spec: criterion 2's orthogonality identity",
    "polynomial.RatPoly.__mul__": "acceptance spec: criterion 2's orthogonality identity",
    "polynomial.RatPoly.__sub__": "acceptance spec: criterion 2's orthogonality identity",
    "polynomial.RatPoly.evaluate": "acceptance spec: criterion 3's finite difference",
    "polynomial.RatPoly.coefficient": "acceptance spec: RatPoly.__add__ reads it",
    "polynomial.RatPoly.is_zero": "acceptance spec: criterion 2's orthogonality identity",
    "polynomial.RatPoly.one": "acceptance spec: criterion 2's orthogonality identity",
    "polynomial.RatPoly.zero": "reachable: interpolate with no node, a twist request with "
                               "no pair, pin or jet",
    "projline.IntervalConfig.apply": "acceptance spec: criterion 5's normal form",
    "projline.Moebius.apply": "acceptance spec: criterion 5 maps an arc end; interval_image "
                              "reads it",
    "projline.Moebius.from_rational": "acceptance spec: criterion 5's Moebius family",
    "projline.ProjPoint.infinity": "import-time: projline.INF, which the token \"inf\" reads",
    "projline._sieve": "import-time: the trial-division primes",
    "projline.interval_image": "acceptance spec: IntervalConfig.apply reads it (criteria 4 "
                               "and 5)",
    "projline.quote_rat": "error path: rationals in error messages",
    "projline.quote_rats": "error path: the points of the NotOnSurface, OutsideRegion, "
                           "OnForbiddenLine and unit-circle messages",
    "twist._circle_scan": "the fallback of _circle_solution when factoring runs past its budget",
}


def defined_functions():
    """{(file, first line of the code object): module.qualname} for every def
    in the package; a decorated function's code starts at its first decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), line)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def test_every_function_is_reached_or_says_why_not():
    for path in PACKAGE.glob("*.py"):  # import-time calls happen before the trace
        if path.stem != "__init__":
            importlib.import_module(f"conicbundle.{path.stem}")
    requests = [entry for workload in WORKLOADS for entry in load(workload)]
    codes = {}  # id -> each code object that ran

    def on_call(frame, event, arg):
        code = frame.f_code
        codes[id(code)] = code

    saved = sys.gettrace()
    sys.settrace(on_call)
    try:
        for entry in requests:
            replay(entry["argv"], entry["stdin"])
    finally:
        sys.settrace(saved)
    called = {(str(Path(code.co_filename).resolve()), code.co_firstlineno)
              for code in codes.values()}
    missed = {name for key, name in defined_functions().items() if key not in called}
    unlisted = sorted(missed - set(UNREACHED))
    assert not unlisted, f"called by no golden request, and not in UNREACHED: {unlisted}"
    stale = sorted(set(UNREACHED) - missed)
    assert not stale, f"in UNREACHED, but called or no longer defined: {stale}"
    assert all(reason.strip() for reason in UNREACHED.values())
