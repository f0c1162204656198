"""Benchmark of the digitwitness CLI on four pinned workloads.

Run from the root of a checkout; the program is imported from its `src/`:

    python3 perfbench/run.py --workload construct-cubic --seed 1 --seconds 25 --trace 0

--trace 0 runs the workload's jobs as subprocesses, one at a time, and
prints the end-to-end metrics.  --trace 1 prints the per-layer metrics of
all four workloads (see layers.py).  --workload all runs every workload in
turn.  Every job's output is checked by check.py, which shares no code with
the program; the last line of output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads as wl  # noqa: E402

# Jobs per run at least, however short --seconds is.
MIN_JOBS = 5

E2E_UNITS = {
    "items_per_s": "1/s",
    "cpu_us_per_item": "us",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def run_end_to_end(w: wl.Workload, seed: int, seconds: float, env: wl.Env) -> dict:
    """Rounds of a job, a one-item job and a probe, for `seconds`.

    On the 2-vCPU VM the benchmark was built on, each vCPU switches every
    few seconds between a fast state and one about 1.7x slower, and the
    share of slow time drifts over minutes: the fastest density-square job
    of a 25 s window went from 1.63 s to 0.92 s within four minutes.  So
    each time is calibrated against wl.Probe, a fixed load run between
    jobs, with the mean of the probes just before and just after it:

        calibrated time = measured time * REFERENCE_PROBE_S / probe time

    and the metrics take the median calibrated job.  A job with workers > 1
    waits for its slowest worker, so for it the probe runs once on each
    CPU: the slowest pass calibrates wall time and their mean calibrates
    CPU time.  Raw values are printed in the info line.
    """
    inputs = wl.prepare(w, seed, env)
    out = env.path("out.jsonl")
    probe = wl.Probe()
    jobs, shas = wl.Tally(), set()

    def job(args: list[str], size: int):
        """Run and check one job; the result if it passed, else None."""
        result = wl.run_job(env, args)
        found, sha = wl.check_output(w, inputs, out, size, seed, result.code)
        jobs.record(f"{w.name} {size} items", found)
        if found:
            return None
        if size == w.size:
            shas.add(sha)
        return result

    def calibrate() -> tuple[float, float]:
        """Probe times matching a job's wall time and its CPU time."""
        times = probe.run_on_each_cpu() if w.workers > 1 else [probe.run()]
        return max(times), statistics.fmean(times)

    job(wl.setup_args(w, inputs, out), 1)  # warm-up: byte-compiles the source
    ref = wl.REFERENCE_PROBE_S
    runs, wall_cal, cpu_cal, setup_raw, setup_cal = [], [], [], [], []
    before = calibrate()
    start, rounds = time.perf_counter(), 0
    while rounds < MIN_JOBS or time.perf_counter() - start < seconds:
        result = job(wl.job_args(w, inputs, out), w.size)
        setup = job(wl.setup_args(w, inputs, out), 1)
        after = calibrate()
        wall_probe, cpu_probe = (before[0] + after[0]) / 2, (before[1] + after[1]) / 2
        if result:
            runs.append(result)
            wall_cal.append(result.wall_s * ref / wall_probe)
            cpu_cal.append(result.cpu_s * ref / cpu_probe)
        if setup:
            setup_raw.append(setup.wall_s)
            setup_cal.append(setup.wall_s * ref / cpu_probe)
        before = after
        rounds += 1
    if not runs or not setup_cal:
        raise wl.SetupError(f"no {w.name} job passed its checks: {jobs.problems[:3]}")
    if len(shas) != 1:
        jobs.failed += 1
        jobs.problems.append(f"jobs of one configuration wrote {len(shas)} different outputs")
    raw_job_s = statistics.median(r.wall_s for r in runs)
    values = {
        "items_per_s": w.size / statistics.median(wall_cal),
        "cpu_us_per_item": statistics.median(cpu_cal) / w.size * 1e6,
        "peak_rss_mb": statistics.median(r.rss_kb for r in runs) / 1024,
        "setup_s": statistics.median(setup_cal),
    }
    return {
        "values": values,
        "jobs": jobs,
        "info": {
            "g": inputs.g, "jobs": len(runs), "items_per_job": w.size,
            "raw_items_per_s": round(w.size / raw_job_s, 1),
            "raw_setup_s": round(statistics.median(setup_raw), 4),
            "records_sha256": sorted(shas)[0],
        },
    }


def metadata(root: str) -> dict:
    """Commit, interpreter, cores and the src/ line count (ROADMAP aim 2)."""
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as handle:
            src_lines += handle.read().count(b"\n")
    return {
        "commit": _commit(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def _commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _import_program(root: str) -> dict:
    """The program's modules, imported from the checkout's src/."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    mods = {
        name: importlib.import_module(f"digitwitness.{name}")
        for name in ("cli", "construction", "digits", "intpoly", "oracle")
    }
    if not mods["cli"].__file__.startswith(src + os.sep):
        raise ImportError(f"digitwitness imported from {mods['cli'].__file__}, not {src}")
    return mods


def report(name: str, result: dict, units: dict[str, str], meta: dict) -> dict:
    """Print one workload's result readably, then as the JSON result line."""
    print(f"== {name}  {json.dumps(result.get('info', {}))}")
    for metric, unit in units.items():
        print(f"  {metric:<50} {result['values'][metric]:>14.6g} {unit}")
    jobs = result["jobs"]
    failed_frac = jobs.failed / jobs.attempted
    print(f"  {'failed_frac':<50} {failed_frac:>14.6g} ({jobs.failed}/{jobs.attempted} jobs)")
    for problem in jobs.problems[:20]:
        print(f"  FAILED: {problem}")
    print(json.dumps({"meta": meta}))
    line = {
        "correct": jobs.failed == 0,
        "attempted": jobs.attempted,
        "failed": jobs.failed,
        "metrics": {
            metric: {"value": result["values"][metric], "unit": unit}
            for metric, unit in units.items()
        },
    }
    print(json.dumps(line), flush=True)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "digitwitness", "cli.py")):
        print("error: no src/digitwitness/cli.py here; run from the repository root",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(work)
    env = wl.Env(root, work)
    meta = metadata(root)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    try:
        if args.trace:
            result = layers.run_traced(args.seed, args.seconds, env, _import_program(root))
            ok = report("traced", result, layers.layer_metric_units(), meta)["correct"]
        else:
            for name in names:
                result = run_end_to_end(wl.WORKLOADS[name], args.seed, args.seconds, env)
                ok = report(name, result, E2E_UNITS, meta)["correct"] and ok
    except wl.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
