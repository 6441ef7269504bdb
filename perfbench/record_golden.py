#!/usr/bin/env python3
"""Record the golden corpus of every workload.

Each request of the first round of the workload's deck at
workloads.GOLDEN_SEED is stored with
its exit code and exact stdout in golden/<workload>.json, one request per
line.  The benchmark replays these records on every run.  Re-record only
when an output change is intended and explained:

    python3 perfbench/record_golden.py

An answer that fails the exact answer check is never recorded.
"""

from __future__ import annotations

import json
import sys

import answers
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    for workload in workloads.WORKLOADS:
        _, cli, _ = run.set_up(workload, workloads.GOLDEN_SEED)
        reqs = workloads.deck(workload, workloads.GOLDEN_SEED, rounds=1)
        lines = []
        for req in reqs:
            code, _, out, _ = run.invoke(cli, req.argv, req.payload)
            problems = answers.check(req, code, out)
            if problems:
                print(f"{workload} {req.category}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            lines.append(json.dumps({"argv": list(req.argv), "stdin": req.payload,
                                     "exit": code, "stdout": out}, sort_keys=True))
        path = run.HERE / "golden" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(f'{{"workload": "{workload}", "seed": {workloads.GOLDEN_SEED}, '
                        '"requests": [\n' + ",\n".join(lines) + "\n]}\n")
        print(f"{path.name}: {len(lines)} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
