"""What each way of loading the CLI imports.

A CLI process (`python -m conicbundle.cli`, run here through runpy as
__main__) loads only the library modules of its subcommand, so a `lattice`
request loads neither `projline` nor `fractions`, and help or a usage error
loads none; importing conicbundle.cli binds every layer; importing the
package loads none.  No fresh process loads `dataclasses` or `inspect`,
which the value classes do without, or `argparse`, `gettext` or `locale`,
since the CLI reads its command line by hand.  A caller that purges
`conicbundle*` from sys.modules and re-imports, as the benchmark's set-up
does, keeps a working first copy of the CLI.
"""

import importlib
import json
import sys
import types

import pytest

import conicbundle
import support
from golden_replay import USAGE_CASES, WORKLOADS, load, replay

ALWAYS = {"conicbundle", "conicbundle.errors"}
P1 = {"conicbundle.projline", "fractions"}  # the P^1 layer and the rationals it builds
LAYERS = {f"conicbundle.{m}" for m in ("conic_model", "delpezzo", "lattice", "planner",
                                       "polynomial", "twist")}
TWIST = {"conicbundle.conic_model", "conicbundle.polynomial", "conicbundle.twist"}
# the conicbundle modules, and fractions, that a fresh CLI process has loaded
# after one request
LOADED = {
    "realizable-perms": ALWAYS | P1,
    "stabilizer": ALWAYS | P1,
    "decide-birational": ALWAYS | P1 | {"conicbundle.conic_model"},
    "decide-iso": ALWAYS | P1 | {"conicbundle.conic_model"},
    "decide-verytransitive": ALWAYS | P1 | {"conicbundle.conic_model"},
    "geiser": ALWAYS | P1 | {"conicbundle.delpezzo"},
    "biconic-image": ALWAYS | P1 | {"conicbundle.delpezzo"},
    "lattice": ALWAYS | {"conicbundle.lattice"},
    "region-path": ALWAYS | P1 | {"conicbundle.planner"},
    "twist": ALWAYS | P1 | TWIST,
    "verify-twist": ALWAYS | P1 | TWIST,
    "selftest": ALWAYS | P1 | LAYERS,
}

# standard modules that building a dataclass loads, and no process needs
MACHINERY = {"dataclasses", "inspect"}
# standard modules that argparse loads, and no process needs
PARSING = {"argparse", "gettext", "locale"}

# Runs the statement `run` in a fresh interpreter, then writes the names of
# the loaded conicbundle, fractions, MACHINERY and PARSING modules to
# stderr as its last line, after whatever the statement wrote there.
FRESH = """
import json, sys
try:
    {run}
finally:
    sys.stderr.write(json.dumps(sorted(
        n for n in sys.modules if n.partition(".")[0] in {watched!r})))
"""


def fresh(run, argv=(), stdin=None):
    """(exit code, stdout, stderr, loaded conicbundle modules and fractions) of a
    fresh interpreter, which must not have loaded a MACHINERY or PARSING module;
    stderr is what the statement wrote there, without the module report."""
    watched = ("conicbundle", "fractions", *MACHINERY, *PARSING)
    proc = support.run_python("-c", FRESH.format(run=run, watched=watched), *argv, stdin=stdin)
    head, newline, report = proc.stderr.rpartition("\n")
    loaded = set(json.loads(report))
    assert not loaded & (MACHINERY | PARSING), sorted(loaded & (MACHINERY | PARSING))
    return proc.returncode, proc.stdout, head + newline, loaded


def one_request_per_subcommand():
    """The first golden request of each subcommand, in corpus order."""
    first = {}
    for workload in WORKLOADS:
        for entry in load(workload):
            first.setdefault(entry["argv"][0], entry)
    assert set(first) == set(LOADED)
    return list(first.values())


def test_a_cli_process_loads_only_its_subcommand_layers():
    for entry in one_request_per_subcommand():
        code, out, err, loaded = fresh(
            'import runpy; runpy.run_module("conicbundle.cli", run_name="__main__")',
            entry["argv"], entry["stdin"])
        name = entry["argv"][0]
        assert (code, out, err) == (entry["exit"], entry["stdout"], ""), name
        assert loaded == LOADED[name], name


@pytest.mark.parametrize("argv, code, out, err", [case[1:] for case in USAGE_CASES],
                         ids=[case[0] for case in USAGE_CASES])
def test_help_and_usage_errors_load_no_layer(argv, code, out, err):
    got = fresh('import runpy; runpy.run_module("conicbundle.cli", run_name="__main__")', argv)
    assert got == (code, out, err, ALWAYS)


def test_importing_the_cli_binds_every_layer():
    assert fresh("import conicbundle.cli")[2:] == ("", ALWAYS | P1 | LAYERS | {"conicbundle.cli"})
    cli = importlib.import_module("conicbundle.cli")
    for alias in ("cm", "dp", "lat", "pl", "poly", "pj", "tw", "random"):
        assert isinstance(getattr(cli, alias), types.ModuleType), alias


def test_importing_the_package_loads_no_module():
    assert fresh("import conicbundle")[2:] == ("", {"conicbundle"})


def test_the_package_exports_stay_importable():
    for name in conicbundle.__all__:
        module = importlib.import_module(f"conicbundle.{conicbundle._MODULE_OF[name]}")
        assert getattr(conicbundle, name) is getattr(module, name), name
    assert conicbundle.__version__ == "0.1.0"


def test_the_first_cli_survives_a_purge_and_reimport():
    # perfbench's set_up deletes every conicbundle module and re-imports
    # between loop parts, while the loop keeps calling its first cli
    requests = one_request_per_subcommand()
    golden = [(e["exit"], e["stdout"]) for e in requests]
    cli = importlib.import_module("conicbundle.cli")
    assert [replay(e["argv"], e["stdin"], cli.run) for e in requests] == golden
    saved = {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "conicbundle"}
    try:
        for name in saved:
            del sys.modules[name]
        assert importlib.import_module("conicbundle.cli") is not cli
        assert [replay(e["argv"], e["stdin"], cli.run) for e in requests] == golden
    finally:
        for name in [n for n in sys.modules if n.partition(".")[0] == "conicbundle"]:
            del sys.modules[name]
        sys.modules.update(saved)
