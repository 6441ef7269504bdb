#!/usr/bin/env python3
"""Closed-loop benchmark of the conicbundle command line.

One client in one process, no threads: each request of the workload's
seeded deck goes to the public entry point cli.run, in process, only after
the previous one has returned.  The library is imported from src/ of the
checkout this file sits in.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 10 --trace 0

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced replay.  --profile N prints the top N cProfile entries of one round
of each workload's mix instead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import io
import json
import math
import os
import pstats
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import answers  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
WARMUP_REQUESTS = 20
# The timed loop runs in parts; each break takes COLD_PER_PART cold starts
# from a handful of COLD_REQUESTS light requests.
PARTS = 6
COLD_REQUESTS = 6
COLD_PER_PART = 3
# Tail percentiles tried from the top; the first with ten samples beyond it
# wins.  Each workload starts from a fixed one, so that a fast spell of the
# machine cannot change which percentile is reported; a run with too few
# samples steps down.  The fiber workloads start from p90, the highest that a
# 25 s run on a 2-core x86 machine fills.  decide fills p99, but its top 1%
# is a dozen size-sweep instances whose cost moves by a third from one seed
# to the next, so it starts from p95, which the upper end of the regular
# stabilizer and region-path requests and the lighter sweeps share.
LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_TOP = {"decide": 95.0, "fiber-miss": 90.0, "fiber-hit": 90.0}

END_TO_END = (
    ("setup_s", "s"), ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"), ("ok_frac", "ratio"), ("cold_start_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("cli.run.calls", "count"), ("cli.run.ms", "ms"), ("cli.run.self_ms", "ms"),
    ("cli.run.self_share", "ratio"),
    ("cli.run.p50_ms.height_small", "ms"), ("cli.run.p50_ms.height_medium", "ms"),
    ("cli.run.p50_ms.height_large", "ms"),
    ("cli.golden_drift", "count"),
    ("projline.config_equiv.calls", "count"), ("projline.config_equiv.ms", "ms"),
    ("projline.realizable_permutations.ms", "ms"), ("projline.stabilizer.ms", "ms"),
    ("projline.moebius_from_triples.calls", "count"),
    ("conic_model.decide_birational.ms", "ms"), ("conic_model.decide_marked_iso.ms", "ms"),
    ("conic_model.decide_very_transitive.ms", "ms"),
    ("twist.find_fiber_point.calls", "count"), ("twist.find_fiber_point.hits", "count"),
    ("twist.find_fiber_point.hit_ratio", "ratio"), ("twist.find_fiber_point.hit_ms", "ms"),
    ("twist.find_fiber_point.miss_ms", "ms"),
    ("twist.find_fiber_point.large_height_calls", "count"),
    ("twist.sample_surface_points.ms", "ms"), ("twist.synthesize_twist.ms", "ms"),
    ("twist.verify_twist.ms", "ms"), ("twist.interpolate.calls", "count"),
    ("twist.interpolate.ms", "ms"), ("twist.interpolate.max_nodes", "count"),
    ("polynomial.solve_linear.calls", "count"), ("polynomial.solve_linear.ms", "ms"),
    ("polynomial.solve_linear.max_n", "count"),
    ("delpezzo.fiber_points.calls", "count"), ("delpezzo.fiber_points.empty_ratio", "ratio"),
    ("delpezzo.fiber_points.ms", "ms"),
    ("delpezzo.geiser.calls", "count"), ("delpezzo.geiser.ms", "ms"),
    ("delpezzo.biconic_interval_image.ms", "ms"), ("delpezzo.biconic_from_config.ms", "ms"),
    ("planner.find_rect_path.calls", "count"), ("planner.find_rect_path.ms", "ms"),
    ("planner.find_rect_path.grid_cells", "count"), ("planner.validate_path.ms", "ms"),
    ("lattice.exceptional_classes.ms", "ms"), ("lattice.perm_preserves_form.ms", "ms"),
    ("search.miss_share", "ratio"), ("trace.overhead_frac", "ratio"),
)


def set_up(workload: str, seed: int):
    """Import conicbundle afresh from src/ and build the deck."""
    for name in [n for n in sys.modules if n == "conicbundle" or n.startswith("conicbundle.")]:
        del sys.modules[name]
    start = perf_counter()
    cli = importlib.import_module("conicbundle.cli")
    reqs = workloads.deck(workload, seed)
    return perf_counter() - start, cli, reqs


def invoke(cli, argv, payload: str):
    """One request through cli.run with standard streams swapped for
    buffers: (exit code or None if it raised, seconds, stdout, stderr)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(payload), out, err
    code = None
    start = perf_counter()
    try:
        code = cli.run(list(argv))
    except Exception as exc:  # a request that raises is a failed request
        err.write(f"{type(exc).__name__}: {exc}\n")
    finally:
        elapsed = perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, elapsed, out.getvalue(), err.getvalue()


class Outcomes:
    """First answer to each deck request, and which requests answered
    differently when repeated."""

    def __init__(self, reqs):
        self.reqs = reqs
        self.first = {}
        self.unstable = set()

    def record(self, k: int, code, out: str):
        answer = (code, out)
        if k not in self.first:
            self.first[k] = answer
        elif self.first[k] != answer:
            self.unstable.add(k)

    def bad(self) -> dict:
        """Deck index -> problems, checked once per distinct request."""
        problems = {}
        for k, (code, out) in self.first.items():
            found = answers.check(self.reqs[k], code, out)
            if k in self.unstable:
                found.append("answer changed between repeats")
            if found:
                problems[k] = found
        return problems


def closed_loop(cli, reqs, seconds: float, outcomes: Outcomes, first: int = 0,
                gauge: speed.Gauge | None = None):
    """Walk the deck from request `first` for `seconds`, probing the
    machine's speed every speed.TICK_S if a gauge is given; returns
    [(deck index, start time, latency s)] and the wall time without probes."""
    samples = []
    start = perf_counter()
    deadline = start + seconds
    next_tick = start + speed.TICK_S
    probing = 0.0
    i = first
    while (now := perf_counter()) < deadline:
        if gauge is not None and now >= next_tick:
            probing += gauge.tick()
            next_tick = now + speed.TICK_S
            now = perf_counter()
        k = i % len(reqs)
        code, elapsed, out, _ = invoke(cli, reqs[k].argv, reqs[k].payload)
        outcomes.record(k, code, out)
        samples.append((k, now, elapsed))
        i += 1
    if gauge is not None:
        probing += gauge.tick()
    return samples, perf_counter() - start - probing


def replay_golden(cli, workload: str):
    """Replay the recorded corpus: (requests, exit-code drift, byte drift)."""
    record = json.loads((HERE / "golden" / f"{workload}.json").read_text())
    exit_drift = byte_drift = 0
    for entry in record["requests"]:
        code, _, out, _ = invoke(cli, entry["argv"], entry["stdin"])
        if code != entry["exit"]:
            exit_drift += 1
        elif out != entry["stdout"]:
            byte_drift += 1
    return len(record["requests"]), exit_drift, byte_drift


def cold_start(req):
    """One request in a fresh interpreter, between two start probes:
    (seconds at reference speed, answer is right)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = speed.start_probe(env, ROOT)
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "conicbundle.cli", *req.argv],
                          input=req.payload, capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    elapsed = perf_counter() - start
    after = speed.start_probe(env, ROOT)
    scale = speed.START_REFERENCE_S / ((before + after) / 2)
    return elapsed * scale, not answers.check(req, proc.returncode, proc.stdout)


def tail(latencies, top: float = LADDER[0]):
    """(percentile, value): the highest ladder percentile up to `top` with
    at least ten samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in LADDER:
        if p <= top and n * (100 - p) / 100 >= 10:
            return p, ordered[math.ceil(p / 100 * n) - 1]
    return 0.0, ordered[0]


def _failed_samples(samples, problems) -> int:
    return sum(1 for k, *_ in samples if k in problems)


def _at_reference(gauge: speed.Gauge, start: float, seconds: float) -> float:
    """`seconds` measured from `start`, rescaled to the reference speed."""
    return seconds * gauge.scale(start, start + seconds)


def _describe(problems, reqs):
    for k, found in sorted(problems.items())[:10]:
        print(f"FAILED {reqs[k].category} #{k}: {'; '.join(found)}")


def end_to_end(workload: str, seed: int, seconds: float):
    gauge = speed.Gauge()
    start = perf_counter()
    elapsed, cli, reqs = set_up(workload, seed)
    setups = [(start, elapsed)]
    outcomes = Outcomes(reqs)
    for req in reqs[:WARMUP_REQUESTS]:
        invoke(cli, req.argv, req.payload)
    light = workloads.COLD_CATEGORIES[workload]
    handful = [r for r in reqs if r.category in light][:COLD_REQUESTS]
    # Set-up repeats and cold starts run in the breaks between the loop's
    # parts, with its clock stopped.  Every time is rescaled to the reference
    # speed: in-process ones by the probes nearest to them, cold starts by
    # the start probes around each.
    # Later set-ups only replace sys.modules; the loop keeps its first import.
    samples, wall, cold = [], 0.0, []
    for part in range(PARTS):
        got, elapsed = closed_loop(cli, reqs, seconds / PARTS, outcomes, len(samples), gauge)
        samples += got
        wall += elapsed
        cold += [cold_start(handful[(COLD_PER_PART * part + j) % len(handful)])
                 for j in range(COLD_PER_PART)]
        if len(setups) < SETUP_REPEATS:
            start = perf_counter()
            setups.append((start, set_up(workload, seed)[0]))
            gauge.tick()
    problems = outcomes.bad()
    golden_n, exit_drift, byte_drift = replay_golden(cli, workload)
    cold_n = len(cold)
    attempted = len(samples) + cold_n + golden_n
    failed = (_failed_samples(samples, problems) + sum(1 for _, ok in cold if not ok)
              + exit_drift)
    raw_s = sum(elapsed for *_, elapsed in samples)
    lat = [_at_reference(gauge, t, elapsed) * 1e3 for _, t, elapsed in samples]
    p, tail_ms = tail(lat, TAIL_TOP[workload])
    _describe(problems, reqs)
    print(f"{workload} seed {seed}: {len(samples)} requests in {wall:.2f} s; "
          f"latency_tail_ms is p{p:g} ({len(lat)} samples, "
          f"{len(lat) - math.ceil(p / 100 * len(lat))} beyond); cold start over "
          f"{cold_n} processes; golden {golden_n} replayed, {exit_drift} exit-code "
          f"and {byte_drift} byte drifts; {len(gauge.lengths)} speed probes, median "
          f"{gauge.median_probe_ms():.3f} ms against the reference {speed.REFERENCE_S * 1e3:g} ms")
    values = {
        "setup_s": statistics.median(_at_reference(gauge, *s) for s in setups),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_ms,
        # The loop's wall time at reference speed: rescaled as its requests were.
        "throughput_rps": len(samples) / (wall * sum(lat) / 1e3 / raw_s),
        "ok_frac": 1 - failed / attempted,
        "cold_start_ms": statistics.median(s for s, _ in cold) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, END_TO_END, attempted, failed


def per_layer(workload: str, seed: int, seconds: float):
    _, cli, reqs = set_up(workload, seed)
    outcomes = Outcomes(reqs)
    for req in reqs[:WARMUP_REQUESTS]:
        invoke(cli, req.argv, req.payload)
    samples, _ = closed_loop(cli, reqs, seconds / 2, outcomes)
    tracer = tracing.Tracer()
    tracer.install()
    traced = []
    try:
        for k, *_ in samples:
            code, elapsed, out, _ = invoke(cli, reqs[k].argv, reqs[k].payload)
            tracer.fold()
            outcomes.record(k, code, out)
            traced.append(elapsed)
    finally:
        tracer.uninstall()
    problems = outcomes.bad()
    golden_n, exit_drift, byte_drift = replay_golden(cli, workload)
    attempted = 2 * len(samples) + golden_n
    failed = 2 * _failed_samples(samples, problems) + exit_drift
    _describe(problems, reqs)
    untraced_s = sum(elapsed for *_, elapsed in samples)
    print(f"{workload} seed {seed}: {len(samples)} requests replayed under tracing; "
          f"{untraced_s:.2f} s untraced, {sum(traced):.2f} s traced")
    values = layer_values(tracer, samples, reqs, byte_drift)
    values["trace.overhead_frac"] = sum(traced) / untraced_s - 1
    return values, PER_LAYER, attempted, failed


def layer_values(tr, samples, reqs, golden_drift: int) -> dict:
    def ratio(part, whole):
        return part / whole if whole else 0.0

    values = {}
    for name, unit in PER_LAYER:
        func, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = tr.calls.get(func, 0)
        elif stat == "ms":
            values[name] = tr.ms.get(func, 0.0)
    run_ms = tr.ms.get("cli.run", 0.0)
    for height in workloads.HEIGHT_NAMES:
        lat = [elapsed * 1e3 for k, _, elapsed in samples if reqs[k].height == height]
        values[f"cli.run.p50_ms.height_{height}"] = statistics.median(lat) if lat else 0.0
    fiber_calls = tr.calls.get("twist.find_fiber_point", 0)
    conic_calls = tr.calls.get("delpezzo.fiber_points", 0)
    c = tr.counts
    values.update({
        "cli.run.self_ms": tr.self_ms.get("cli.run", 0.0),
        "cli.run.self_share": ratio(tr.self_ms.get("cli.run", 0.0), run_ms),
        "cli.golden_drift": golden_drift,
        "twist.find_fiber_point.hits": int(c["fiber_hits"]),
        "twist.find_fiber_point.hit_ratio": ratio(c["fiber_hits"], fiber_calls),
        "twist.find_fiber_point.hit_ms": c["fiber_hit_ms"],
        "twist.find_fiber_point.miss_ms": c["fiber_miss_ms"],
        "twist.find_fiber_point.large_height_calls": int(c["fiber_large_height"]),
        "twist.interpolate.max_nodes": int(c["max_nodes"]),
        "polynomial.solve_linear.max_n": int(c["max_n"]),
        "delpezzo.fiber_points.empty_ratio": ratio(c["conic_empty"], conic_calls),
        "planner.find_rect_path.grid_cells": int(c["grid_cells"]),
        "search.miss_share": ratio(c["fiber_miss_ms"] + c["conic_empty_ms"], run_ms),
    })
    return values


def profile(names, seed: int, top: int):
    """Top cProfile entries over one round of each workload's mix."""
    for workload in names:
        _, cli, _ = set_up(workload, seed)
        reqs = workloads.deck(workload, seed, rounds=1)
        prof = cProfile.Profile()
        prof.enable()
        for req in reqs:
            invoke(cli, req.argv, req.payload)
        prof.disable()
        print(f"== {workload}: one round of {len(reqs)} requests, seed {seed} ==")
        pstats.Stats(prof, stream=sys.stdout).sort_stats("cumulative").print_stats(top)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, metavar="N",
                        help="print the top N cProfile entries per workload and exit")
    args = parser.parse_args(argv)
    if not (SRC / "conicbundle" / "cli.py").is_file():
        print(f"conicbundle sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.profile is not None:
        profile([args.workload] if args.workload else workloads.WORKLOADS, args.seed, args.profile)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    measure = per_layer if args.trace else end_to_end
    values, table, attempted, failed = measure(args.workload, args.seed, args.seconds)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
