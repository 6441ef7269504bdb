"""Replay the golden records and the usage cases through cli.run, standard
library only, so that any interpreter can run it without pytest.

The records under perfbench/golden/ hold each request's argv, stdin, exit
code and exact stdout.  USAGE_CASES hold the exact usage, help and
usage-error bytes, which must not depend on the terminal width.  Run as a
script, with conicbundle importable (PYTHONPATH=src), it prints one JSON
object: the interpreter's version, sys.flags.optimize and every drift line,
none when the bytes hold:

    PYTHONPATH=src python -O tests/golden_replay.py
"""

import io
import json
import os
import sys
from pathlib import Path

from conicbundle.cli import run

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
WORKLOADS = ["decide", "fiber-miss", "fiber-hit"]
COLUMNS = ("40", "80", "200")  # terminal widths that must not change a usage byte


def load(workload):
    record = json.loads((GOLDEN / f"{workload}.json").read_text())
    if not record["requests"]:
        raise ValueError(f"{workload}: the golden record holds no request")
    return record["requests"]


def run_captured(argv, stdin="", run=run):
    """(exit code, stdout, stderr) of run(argv) on stdin, all three streams
    swapped for strings."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    try:
        code = run(list(argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def replay(argv, stdin, run=run):
    """(exit code, stdout) of one request."""
    return run_captured(argv, stdin, run)[:2]


def drift(requests, results):
    """One line per request whose (exit code, stdout) differs from the record."""
    lines = []
    for k, (entry, (code, out)) in enumerate(zip(requests, results, strict=True)):
        if code != entry["exit"]:
            lines.append(f"#{k} {' '.join(entry['argv'])}: exit {code}, recorded {entry['exit']}")
        elif out != entry["stdout"]:
            lines.append(f"#{k} {' '.join(entry['argv'])}: stdout bytes differ")
    return lines


CHOICES = ("{decide-birational,decide-iso,decide-verytransitive,realizable-perms,stabilizer,"
           "twist,verify-twist,geiser,biconic-image,lattice,region-path,selftest}")
USAGE = f"""usage: conicbundle [-h]
                   {CHOICES}
                   ...
"""
TWIST_USAGE = "usage: conicbundle twist [-h] [--input INPUT] [--output OUTPUT]\n"
SELFTEST_USAGE = "usage: conicbundle selftest [-h] [--seed SEED] [--output OUTPUT]\n"
LATTICE_USAGE = "usage: conicbundle lattice [-h] [--input INPUT] [--output OUTPUT]\n"
QUOTED = ", ".join(f"'{name}'" for name in CHOICES[1:-1].split(","))
INVALID_DASHES = ("conicbundle: error: argument command: invalid choice: '--' "
                  f"(choose from {QUOTED})\n")

# (id, argv, exit code, stdout, stderr)
USAGE_CASES = [
    ("no-argv", [], 2, "",
     USAGE + "conicbundle: error: the following arguments are required: command\n"),
    ("help", ["-h"], 0, USAGE + f"""
Exact decision procedures for real conic-bundle models.

positional arguments:
  {CHOICES}

options:
  -h, --help            show this help message and exit
""", ""),
    ("unknown", ["frobnicate"], 2, "",
     USAGE + f"conicbundle: error: argument command: invalid choice: 'frobnicate' "
             f"(choose from {QUOTED})\n"),
    ("twist-help", ["twist", "-h"], 0, TWIST_USAGE + """
options:
  -h, --help       show this help message and exit
  --input INPUT    JSON request file (default: stdin)
  --output OUTPUT  output file (default: stdout)
""", ""),
    ("selftest-help", ["selftest", "-h"], 0, SELFTEST_USAGE + """
options:
  -h, --help       show this help message and exit
  --seed SEED
  --output OUTPUT  output file (default: stdout)
""", ""),
    ("bad-seed", ["selftest", "--seed", "x"], 2, "",
     SELFTEST_USAGE + "conicbundle selftest: error: argument --seed: invalid int value: 'x'\n"),
    ("bogus-option", ["lattice", "--bogus"], 2, "",
     USAGE + "conicbundle: error: unrecognized arguments: --bogus\n"),
    ("extra-argument", ["lattice", "extra"], 2, "",
     USAGE + "conicbundle: error: unrecognized arguments: extra\n"),
    ("input-without-file", ["twist", "--input"], 2, "",
     TWIST_USAGE + "conicbundle twist: error: argument --input: expected one argument\n"),
    # 3.13's argparse prints the help for these two and 3.11's refuses them
    ("attached-to-help", ["lattice", "-hx"], 2, "",
     LATTICE_USAGE + "conicbundle lattice: error: argument -h/--help: ignored explicit "
                     "argument 'x'\n"),
    ("attached-to-top-help", ["-hx"], 2, "",
     USAGE + "conicbundle: error: argument -h/--help: ignored explicit argument 'x'\n"),
    # 3.11 takes "--" for the command; 3.13.13 drops it and reads the next argument
    ("leading-dashes", ["--", "lattice"], 2, "", USAGE + INVALID_DASHES),
    ("dashes-after-unknown", ["-x", "--", "lattice"], 2, "", USAGE + INVALID_DASHES),
    # an empty option value, or a "--" that argparse dropped, names no file and no seed
    ("seed-dashes", ["selftest", "--seed=--"], 2, "",
     SELFTEST_USAGE + "conicbundle selftest: error: argument --seed: expected one argument\n"),
    ("empty-input", ["lattice", "--input="], 2, "",
     LATTICE_USAGE + "conicbundle lattice: error: argument --input: expected one argument\n"),
    ("input-dashes", ["lattice", "--input=--"], 2, "",
     LATTICE_USAGE + "conicbundle lattice: error: argument --input: expected one argument\n"),
    ("empty-output", ["lattice", "--output="], 2, "",
     LATTICE_USAGE + "conicbundle lattice: error: argument --output: expected one argument\n"),
    ("output-dashes", ["lattice", "--output=--"], 2, "",
     LATTICE_USAGE + "conicbundle lattice: error: argument --output: expected one argument\n"),
    # the one subcommand whose usage wraps
    ("wrapped-usage", ["decide-verytransitive", "--input"], 2, "",
     "usage: conicbundle decide-verytransitive [-h] [--input INPUT]\n" + " " * 41
     + "[--output OUTPUT]\nconicbundle decide-verytransitive: error: argument --input: "
       "expected one argument\n"),
]


def usage_drift():
    """One line per usage case and terminal width whose bytes differ."""
    lines = []
    saved = os.environ.get("COLUMNS")
    try:
        for columns in COLUMNS:
            os.environ["COLUMNS"] = columns
            for name, argv, *expected in USAGE_CASES:
                if list(run_captured(argv)) != expected:
                    lines.append(f"usage {name} at COLUMNS={columns}: bytes differ")
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return lines


def main():
    lines = []
    for w in WORKLOADS:
        requests = load(w)
        results = [replay(e["argv"], e["stdin"]) for e in requests]
        lines += [f"{w} {line}" for line in drift(requests, results)]
    print(json.dumps({"version": sys.version.split()[0], "optimize": sys.flags.optimize,
                      "drift": lines + usage_drift()}))


if __name__ == "__main__":
    main()
