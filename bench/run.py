"""The cuckooprf benchmark: one workload, one closed-loop caller.

    python3 bench/run.py --workload birthday --seed 1 --seconds 20 --trace 0

The caller is this process, single-threaded: it calls
cuckooprf.cli.main for one unit of work after another, each with a seed
drawn from --seed, and checks every unit's rows (workloads.py).

--trace 0 measures the end-to-end metrics for --seconds: oracle answers
per second (median over units), the set-up time of a fresh interpreter
(median of SETUP_REPEATS), and the peak RSS of this process.

--trace 1 runs each unit three times, untraced and then twice under the
layer tracer (layertrace.py), and reports the per-layer metrics of the
first traced run, averaged per unit. A unit fails when a traced run's
rows differ from the untraced rows or the two traced runs differ in
any count.

Metric names and units come from BENCHMARK.json. Stdout ends with a
readable summary, an "env" line and one JSON result line; the exit
code is 2 when the benchmark itself cannot run (no source tree, broken
checker), and 0 otherwise, with the verdict in the result's "correct".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import at_reference_speed, reference_s
from selftest import checker_problems
from workloads import WORKLOADS, call_cli, check_unit, unit_seeds

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SOURCE = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
MIN_UNITS = 3
PROBE_TIMEOUT_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup(workload: str, seed: int, untraced_call_s: float | None = None) -> dict:
    """One set-up in a fresh interpreter (setup_probe.py); its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SOURCE), env.get("PYTHONPATH"))))
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    if untraced_call_s is not None:
        cmd.append(repr(untraced_call_s))
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def _report(index, problems: list[str]):
    for problem in problems:
        print(f"unit {index} failed: {problem}", file=sys.stderr)


def _warm_up(w, seed: int) -> int:
    """Make the set-up call in this process; 1 if it failed, else 0.

    It fills the same caches as in a fresh interpreter, so timed units
    start warm. A failure counts as one failed unit.
    """
    warm = call_cli(w.setup_argv(seed))
    if warm.error is None and warm.exit_code == 0:
        return 0
    _report("set-up", [warm.error or f"exit code {warm.exit_code}: {warm.stderr.strip()}"])
    return 1


def run_timed(w, seed: int, seconds: float) -> dict:
    probes = [probe_setup(w.name, seed) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(
        at_reference_speed(p["import_s"] + p["call_s"], p["reference_s"]) for p in probes)
    attempted = failed = _warm_up(w, seed)
    rates, passing, raw_rates, references = [], [], [], [reference_s()]
    seeds = unit_seeds(seed)
    deadline = perf_counter() + seconds
    while len(rates) < MIN_UNITS or perf_counter() < deadline:
        result = call_cli(w.argv(next(seeds)))
        references.append(reference_s())
        problems = check_unit(w, result)
        _report(attempted, problems)
        attempted += 1
        failed += bool(problems)
        # the host's speed over the unit: the mean of the loop before and after
        unit_s = at_reference_speed(result.seconds, (references[-2] + references[-1]) / 2)
        rates.append(w.answers_per_unit / unit_s)
        raw_rates.append(w.answers_per_unit / result.seconds)
        if not problems:
            passing.append(rates[-1])
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "answers_per_s": statistics.median(passing or rates),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "notes": {"units": len(rates), "answers_per_unit": w.answers_per_unit,
                  "answers_per_s_min": min(rates), "answers_per_s_max": max(rates),
                  "unadjusted_answers_per_s": statistics.median(raw_rates),
                  "unadjusted_setup_s": statistics.median(
                      p["import_s"] + p["call_s"] for p in probes),
                  "reference_s_median": statistics.median(references)},
    }


SETUP_LAYER_METRICS = ("gf.self_s", "gf.mul_calls", "batch.self_s",
                       "batch.const_mul_builds", "batch.const_mul_hit_frac")


def run_traced(w, seed: int, seconds: float) -> dict:
    import layertrace  # imports cuckooprf, so only once the source is on the path

    call_s = statistics.median(probe_setup(w.name, seed)["call_s"] for _ in range(3))
    traced_setups = [probe_setup(w.name, seed, call_s) for _ in range(2)]
    setup = layertrace.layer_metrics(traced_setups[0]["counts"], traced_setups[0]["times"])
    attempted = failed = _warm_up(w, seed)
    if traced_setups[0]["counts"] != traced_setups[1]["counts"]:
        _report("set-up", ["call counts differ between two traced runs"])
        attempted, failed = attempted + 1, failed + 1

    cost = layertrace.HookCost.measure()
    per_unit, overheads = [], []
    seeds = unit_seeds(seed)
    deadline = perf_counter() + seconds
    while not per_unit or perf_counter() < deadline:
        argv = w.argv(next(seeds))
        base = call_cli(argv)
        tracers = (layertrace.Tracer(), layertrace.Tracer())
        traced = [call_cli(argv, tracer.run) for tracer in tracers]
        problems = check_unit(w, base)
        for result in traced:
            problems += check_unit(w, result)
            if result.stdout != base.stdout:
                problems.append("traced rows differ from untraced rows")
        if tracers[0].counts != tracers[1].counts:
            problems.append("call counts differ between two traced runs")
        _report(attempted, problems)
        attempted += 1
        failed += bool(problems)
        per_unit.append(layertrace.layer_metrics(tracers[0].counts,
                                                 tracers[0].times(base.seconds, cost)))
        overheads.append(traced[0].seconds - base.seconds)

    metrics = {name: statistics.fmean(m[name] for m in per_unit) for name in per_unit[0]}
    metrics.update({f"setup.{name}": setup[name] for name in SETUP_LAYER_METRICS})
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": {"traced_units": len(per_unit), "hook_cost_per_event_s": cost.per_event,
                  "hook_cost_per_c_call_s": cost.per_c_call},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, args) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def declared_metrics(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "cuckooprf" / "cli.py").is_file():
        print(f"no cuckooprf source tree under {SOURCE}", file=sys.stderr)
        return 2
    # One worker thread for numpy and BLAS, set before numpy loads; the
    # set-up probes inherit it.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SOURCE))
    import cuckooprf
    if Path(cuckooprf.__file__).resolve().parent != SOURCE / "cuckooprf":
        print(f"imported cuckooprf from {cuckooprf.__file__}, not {SOURCE}", file=sys.stderr)
        return 2

    broken = checker_problems()
    if broken:
        print("the unit check is broken: " + "; ".join(broken), file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    w = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_timed
    try:
        result = run(w, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    if set(result["metrics"]) != set(units):
        print(f"emitted metrics {sorted(result['metrics'])} differ from BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 2

    failed_frac = result["failed"] / result["attempted"]
    print(f"workload {w.name}: {result['attempted']} units, {result['failed']} failed")
    for name, unit in units.items():
        print(f"  {name:34s} {result['metrics'][name]:>16.6g} {unit}")
    print(f"  {'failed_frac':34s} {failed_frac:>16.6g} ratio")
    print("env " + json.dumps({**environment(args.seed, args), **result["notes"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
