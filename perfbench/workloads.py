"""The four pinned CLI workloads, their seeded inputs, the job runner and
the calibration probe.

A job is one CLI invocation run as a subprocess, one at a time, from the
benchmark process: a closed loop with one client.  Every job writes its
records to a file with --out, as a user waiting for a file would, and is
checked by `check` after it ends, outside the timed region.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

import check

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")

# The console script `digitwitness` runs exactly this.
CLI_STUB = "import sys; from digitwitness.cli import main; sys.exit(main())"

# A job that runs this long has hung; it is killed and counted as failed.
JOB_TIMEOUT_S = 60.0

# Share of verify input rows corrupted at set-up (wrong sq, duplicate n, malformed).
CORRUPT_FRACTION = 0.01


@dataclass(frozen=True)
class Workload:
    """One pinned CLI configuration; `size` is the item count of one job."""

    name: str
    command: str  # construct, verify or density
    q: int
    m: int
    h: int  # the polynomial is x^h
    size: int
    workers: int

    def scaled(self, scale: int) -> "Workload":
        """The same workload with `size // scale` items, for quick tests."""
        return replace(self, size=max(self.size // scale, 4))


WORKLOADS = {
    w.name: w
    for w in (
        # Why each was chosen is in BENCHMARK.json and README.md.
        Workload("construct-cubic", "construct", 2, 3, 3, 20000, 2),
        Workload("construct-deep", "construct", 3, 5, 8, 1500, 1),
        Workload("verify-cubic", "verify", 2, 3, 3, 20000, 1),
        Workload("density-square", "density", 2, 3, 2, 1_000_000, 1),
    )
}


def target_g(w: Workload, seed: int) -> int:
    """The residue class the seed picks for construct and verify."""
    return random.Random(f"{seed}:{w.name}").randrange(w.m)


@dataclass
class Inputs:
    """Everything a run of one workload needs, made from the seed."""

    g: int
    verify_path: str = ""  # corrupted witness file (verify only)
    one_row_path: str = ""  # first witness row alone (verify only)
    malformed: frozenset = frozenset()
    expected_ok: tuple = ()
    density_counts: dict = field(default_factory=dict)  # N -> exact recount


class Env:
    """The checkout under test: where its source is and where jobs write."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.vars = dict(os.environ)
        src = os.path.join(root, "src")
        self.vars["PYTHONPATH"] = src + (
            os.pathsep + self.vars["PYTHONPATH"] if self.vars.get("PYTHONPATH") else ""
        )

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


def job_args(w: Workload, inputs: Inputs, out: str, *, size=None, workers=None,
             in_path=None) -> list[str]:
    """CLI arguments for one job; `size` and `workers` override the workload's."""
    size = w.size if size is None else size
    workers = w.workers if workers is None else workers
    poly = f"x^{w.h}"
    if w.command == "construct":
        return ["construct", "--q", str(w.q), "--m", str(w.m), "--g", str(inputs.g),
                "--poly", poly, "--limit", str(size), "--workers", str(workers),
                "--out", out]
    if w.command == "verify":
        return ["verify", "--q", str(w.q), "--m", str(w.m), "--g", str(inputs.g),
                "--poly", poly, "--in", in_path or inputs.verify_path, "--out", out]
    extra = ["--tolerance", "1"] if size == 1 else []
    return ["density", "--q", str(w.q), "--m", str(w.m), "--poly", poly,
            "--N", str(size), "--workers", str(workers), *extra, "--out", out]


def setup_args(w: Workload, inputs: Inputs, out: str) -> list[str]:
    """The same command at one item: the fixed cost of an invocation."""
    return job_args(w, inputs, out, size=1, in_path=inputs.one_row_path)


# About the median pass of Probe on the 2-vCPU VM the benchmark was built
# on.  Fixed: it only sets the scale of the calibrated times.
REFERENCE_PROBE_S = 0.090


class Probe:
    """A fixed pure-Python load that calibrates a run against machine speed.

    It shares no code with the program and never changes with it: a loop of
    16-bit table digit sums over small squares (like density), chunked
    base-3 digit sums of 8-kbit ints (like construct-deep's self-check), and
    a JSON round trip of witness-shaped records (like construct and verify).
    The benchmark runs it after every job; see run.py for how it is used.
    """

    def __init__(self):
        self.table = [0] * (1 << 16)
        for i in range(1, 1 << 16):
            self.table[i] = self.table[i >> 1] + (i & 1)
        self.big = 3**5000
        self.records = [
            {"schema": "witness/1", "n": str(7**400 + i), "k": i, "m0": "16384",
             "m1": "1", "m2": "16384", "m3": "16384", "u": 15, "M": 93,
             "sq": 145, "residue": 1, "e": 0}
            for i in range(300)
        ]

    def run(self) -> float:
        """Wall seconds of one pass of the load."""
        table, counts = self.table, [0, 0, 0]
        start = time.perf_counter()
        for n in range(90000):
            v, s = n * n, 0
            while v:
                v, r = divmod(v, 1 << 16)
                s += table[r]
            counts[s % 3] += 1
        for k in range(1, 41):
            counts[check.digit_sum(self.big * k, 3) % 3] += 1
        for _ in range(12):
            counts[len(json.loads(json.dumps(self.records))) % 3] += 1
        return time.perf_counter() - start

    def run_on_each_cpu(self) -> list[float]:
        """One pass pinned to each CPU this process may use, in turn."""
        allowed = os.sched_getaffinity(0)
        try:
            times = []
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                times.append(self.run())
            return times
        finally:
            os.sched_setaffinity(0, allowed)


class Tally:
    """Jobs attempted and failed, with the first problems of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems[:5]]


@dataclass
class JobResult:
    code: int
    wall_s: float
    cpu_s: float  # user + system of the whole process tree
    rss_kb: int  # largest resident set of any process in the tree


def run_job(env: Env, args: list[str]) -> JobResult:
    """Run one CLI invocation through launch.py and return its usage.

    The job runs in its own process group, so a job that outlives JOB_TIMEOUT_S is
    killed with all its workers and reported as failed (code -9).
    """
    with open(env.path("stderr.txt"), "ab") as err:
        proc = subprocess.Popen(
            [sys.executable, LAUNCHER, sys.executable, "-c", CLI_STUB, *args],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            env=env.vars, cwd=env.root, start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return JobResult(code=-9, wall_s=JOB_TIMEOUT_S, cpu_s=0.0, rss_kb=0)
    if proc.returncode != 0:
        return JobResult(code=-1, wall_s=0.0, cpu_s=0.0, rss_kb=0)
    return JobResult(**json.loads(stdout))


class SetupError(RuntimeError):
    """The program failed while the benchmark made its inputs."""


def prepare(w: Workload, seed: int, env: Env) -> Inputs:
    """Make the seeded inputs of one workload.

    For verify-cubic the witness file comes from the program itself: it is
    constructed, checked in full, and then a seeded 1% of rows is corrupted.
    """
    inputs = Inputs(g=target_g(w, seed))
    if w.command != "verify":
        return inputs
    clean = env.path("verify-input-clean.jsonl")
    result = run_job(env, job_args(WORKLOADS["construct-cubic"], inputs, clean,
                                   size=w.size))
    if result.code != 0:
        raise SetupError(f"construct for the verify input exited {result.code}")
    try:
        records, _ = check.read_records(clean)
    except (OSError, ValueError) as exc:
        raise SetupError(f"unreadable verify input: {exc!r}") from None
    problems = check.check_witnesses(
        records, q=w.q, m=w.m, g=inputs.g, h=w.h, count=w.size, seed=seed,
        sample=w.size,
    )
    if problems:
        raise SetupError(f"verify input failed its check: {problems[:3]}")
    with open(clean) as handle:
        lines = handle.read().splitlines()
    rng = random.Random(f"{seed}:corrupt")
    corrupted, malformed, expected_ok = check.corrupt_lines(
        lines, rng, max(3, round(len(lines) * CORRUPT_FRACTION))
    )
    inputs.verify_path = env.path("verify-input.jsonl")
    inputs.one_row_path = env.path("verify-one-row.jsonl")
    with open(inputs.verify_path, "w") as handle:
        handle.write("\n".join(corrupted) + "\n")
    with open(inputs.one_row_path, "w") as handle:
        handle.write(lines[0] + "\n")
    inputs.malformed = frozenset(malformed)
    inputs.expected_ok = tuple(expected_ok)
    return inputs


# The CLI's default --tolerance; one-item density jobs pass --tolerance 1.
DENSITY_TOLERANCE = Fraction(1, 50)


def check_output(w: Workload, inputs: Inputs, path: str, size: int, seed: int,
                 code: int) -> tuple[list[str], str]:
    """Check one job's exit code and output file.

    Returns the problems found and the SHA-256 of the primary records.
    """
    try:
        records, sha = check.read_records(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"], ""
    expected = 0
    if w.command == "construct":
        problems = check.check_witnesses(
            records, q=w.q, m=w.m, g=inputs.g, h=w.h, count=size, seed=seed
        )
    elif w.command == "verify":
        malformed, ok = (set(), [True]) if size == 1 else (
            set(inputs.malformed), list(inputs.expected_ok))
        problems = check.check_verify(records, malformed, ok)
        expected = 0 if not malformed and all(ok) else 1
    else:
        if size not in inputs.density_counts:
            inputs.density_counts[size] = check.recount(w.q, w.m, w.h, size)
        counts = inputs.density_counts[size]
        within = check.density_within(
            counts, size, Fraction(1) if size == 1 else DENSITY_TOLERANCE)
        problems = check.check_density(
            records, n_limit=size, expected_counts=counts, expected_within=within)
        expected = 0 if all(within) else 1
    if code != expected:
        problems.append(f"exit code {code}, expected {expected}")
    return problems, sha
