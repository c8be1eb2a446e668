"""depgrowth pipeline benchmark.

    python3 perfbench/run.py --workload full-all --seed 1 --seconds 16 --trace 0

Run from the root of a checkout. Inputs are generated from ``--seed`` under
``.perfbench_work/``; the program under test is ``src/depgrowth``, run as
cold subprocesses on one CPU, timed against a speed probe on that CPU (see
``spawn.py``). With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of one traced
in-process run (perfbench/README.md lists both).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
# set-up is timed this many times per run and reported as the median
SETUP_REPEATS = 3
# timed commands per run at least, however short --seconds is
MIN_COMMANDS = 2


def _machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    loc = 0
    for path in sorted((ROOT / "src" / "depgrowth").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                loc += 1
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(), "src_loc": loc}


def _run_once(workload, tally: list[int], runner) -> object:
    """One timed command and its check; ``tally`` is [attempted, failed]."""
    workload.before()
    child = runner(workload.command())
    tally[0] += workload.operations
    if child.code != 0:
        workload.problems.append(f"depgrowth {workload.command()[0]} exited {child.code}; see {workload.log}")
        tally[1] += workload.operations
    else:
        tally[1] += min(workload.operations, workload.after())
    return child


def _samples(children: list) -> dict:
    """Per-child figures for the metadata: scaled, raw and the slowdown."""
    return {
        "wall_s": [round(c.wall_s, 4) for c in children],
        "cpu_s": [round(c.cpu_s, 4) for c in children],
        "raw_wall_s": [round(c.raw_wall_s, 4) for c in children],
        "raw_cpu_s": [round(c.raw_cpu_s, 4) for c in children],
        "slowdown": [round(c.slowdown, 3) for c in children],
    }


def measure(workload, seconds: int) -> tuple[dict, dict, list[int]]:
    setups = [workload.setup() for _ in range(SETUP_REPEATS)]
    workload.reference()
    tally = [0, 0]
    children = []
    start = time.perf_counter()
    while len(children) < MIN_COMMANDS or time.perf_counter() - start < seconds:
        children.append(_run_once(workload, tally, workload.cli))
    metrics = {
        "setup_s": statistics.median(c.wall_s for c in setups),
        "wall_s": statistics.median(c.wall_s for c in children),
        "cpu_s": statistics.median(c.cpu_s for c in children),
        "peak_rss_mb": max(c.rss_mb for c in children),
    }
    meta = {
        "setup_samples": _samples(setups),
        "command_samples": _samples(children),
        **workload.metadata(metrics["wall_s"]),
    }
    return metrics, meta, tally


def trace_run(workload) -> tuple[dict, dict, list[int]]:
    import tracer

    workload.setup()
    workload.reference()
    tally = [0, 0]
    plain = _run_once(workload, tally, lambda args: workload.cli(args, probe=False))
    trace_file = workload.ws / "trace.json"
    traced = _run_once(workload, tally, lambda args: workload.traced_cli(args, trace_file))
    if traced.code != 0:
        return {}, {}, tally
    trace = json.loads(trace_file.read_text(encoding="utf-8"))
    metrics = tracer.layer_metrics(trace, workload.stub_arrivals())
    metrics["synth.build_world_s"] = workload.synth["build_world_s"]
    metrics["synth.write_corpus_s"] = workload.synth["write_corpus_s"]
    metrics["trace.overhead_s"] = traced.raw_wall_s - plain.raw_wall_s
    stage_sum = sum(v for k, v in metrics.items() if k.startswith("cli.stage_s."))
    meta = {
        "untraced_wall_s": plain.raw_wall_s,
        "untraced_peak_rss_mb": plain.rss_mb,
        "traced_wall_s": traced.raw_wall_s,
        "stage_sum_s": stage_sum,
        "stage_sum_within_overhead": abs(stage_sum - plain.raw_wall_s) <= abs(metrics["trace.overhead_s"]),
        "spans": len(trace["spans"]),
    }
    return metrics, meta, tally


def _spec_units(trace: bool) -> dict[str, str]:
    """Metric name to unit, as BENCHMARK.json lists them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="depgrowth pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=("full-all", "daily-dump-filter", "analyze-only", "rate-live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("bench", "full"),
        default="bench",
        help="bench: the seconds-long corpus; full: the ROADMAP yardstick corpus (minutes per command)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "depgrowth" / "cli.py").is_file() or not (ROOT / "tests" / "oracles").is_dir():
        print("perfbench: run from a depgrowth checkout (src/depgrowth or tests/oracles is missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import selfcheck
    import workloads

    problems = selfcheck.run()
    ws = workloads.fresh(ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}")
    # Children run on the last CPU this process may use; the benchmark
    # process itself (checks, stub server) moves to the others.
    cpus = os.sched_getaffinity(0)
    timed_cpu = max(cpus)
    launcher = workloads.Launcher(ROOT, timed_cpu)
    if len(cpus) > 1:
        os.sched_setaffinity(0, cpus - {timed_cpu})
    workload = workloads.WORKLOADS[args.workload](ROOT, ws, args.seed, args.scale, launcher)
    try:
        if args.trace:
            metrics, meta, (attempted, failed) = trace_run(workload)
        else:
            metrics, meta, (attempted, failed) = measure(workload, args.seconds)
    finally:
        workload.close()
        launcher.close()
    problems += workload.problems
    shutil.rmtree(ws, ignore_errors=True)
    units = _spec_units(bool(args.trace))
    if metrics and set(metrics) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    print("meta: " + json.dumps({"workload": args.workload, "seed": args.seed, "scale": args.scale, **_machine(), **meta}, sort_keys=True))
    for problem in problems:
        print(f"problem: {problem}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6f} {units.get(name, '?')}")
    print(f"{'failed_ratio':32s} {failed / attempted:16.6f} ratio")
    print(
        json.dumps(
            {
                "correct": not problems and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units.get(name, "?")} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
