"""Per-layer timings of the digitwitness CLI, measured from outside the program.

The traced run calls `digitwitness.cli.main(argv)` in-process at --workers 1
(spans made in forked workers would be lost) and, for the length of each
traced job, replaces public functions of the program's modules with timing
wrappers defined here.  Nothing inside `src/` is changed.

Spans are kept at stage granularity: one per job, plan, witness, offset,
composition, k selection, evaluation, file read, verification and tally.
`digit_sum` is called about ten times per witness, and giving each call a
span costs about half the witness time, so its calls are only added to the
open span's leaf counters; the digit-sum time of each stage is then read off
its parent span (offset, self-check, verify).

Every traced run covers all four workloads, so each prints every per-layer
metric; metric names carry the workload they were measured on.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter_ns

import check
import workloads as wl

LADDER_BASES = (2, 3, 10)
LADDER_BITS = {"1k": 1000, "10k": 10_000, "100k": 100_000}

# name -> unit; the order is the order they are printed in.
CONSTRUCT_LAYERS = {
    "construction.plan_ms": "ms",
    "intpoly.compose_us": "us",
    "construction.offset_self_us": "us",
    "digits.offset_sum_us": "us",
    "construction.select_k_us": "us",
    "intpoly.eval_us": "us",
    "digits.selfcheck_sum_us": "us",
    "construction.witness_self_us": "us",
    "cli.write_us": "us",
    "digits.kbits_per_item": "kbit",
}
VERIFY_LAYERS = {
    "cli.read_us": "us",
    "oracle.verify_self_us": "us",
    "digits.verify_sum_us": "us",
    "cli.write_us": "us",
    "digits.kbits_per_item": "kbit",
}
DENSITY_LAYERS = {
    "oracle.values_ns": "ns",
    "oracle.tally_digits_ns": "ns",
}
WORKLOAD_LAYERS = {
    "construct-cubic": CONSTRUCT_LAYERS,
    "construct-deep": CONSTRUCT_LAYERS,
    "verify-cubic": VERIFY_LAYERS,
    "density-square": DENSITY_LAYERS,
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for workload, layers in WORKLOAD_LAYERS.items():
        units.update({f"{workload}.{name}": unit for name, unit in layers.items()})
    units["cli.parallel_efficiency"] = "ratio"
    units["oracle.parallel_efficiency"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    for q in LADDER_BASES:
        for label in LADDER_BITS:
            units[f"digits.digit_sum_us.q{q}.{label}bits"] = "us"
    return units


@dataclass
class Totals:
    """Aggregate of all spans with one name."""

    total_ns: int = 0
    self_ns: int = 0  # total minus child spans and leaf calls
    leaf_ns: int = 0
    leaf_bits: int = 0


class Tracer:
    """In-memory spans around the program's public functions.

    A span is [name, parent index, start ns, end ns, leaf ns, leaf input
    bits].  Leaf calls are timed into the innermost open span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._patched: list[tuple] = []

    def timed(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter_ns()
                stack.pop()

        return wrapper

    def span(self, module, attr: str, name: str) -> None:
        self._patch(module, attr, self.timed(name, getattr(module, attr)))

    def leaf(self, module, attr: str) -> None:
        """Time calls f(value, ...) on an int into the enclosing span."""
        fn = getattr(module, attr)
        spans, stack = self.spans, self.stack

        def wrapper(value, *args):
            start = perf_counter_ns()
            result = fn(value, *args)
            record = spans[stack[-1]]
            record[4] += perf_counter_ns() - start
            record[5] += value.bit_length()
            return result

        self._patch(module, attr, wrapper)

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def totals(self) -> dict[str, Totals]:
        child_ns = [0] * len(self.spans)
        for name, parent, start, end, *_ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, Totals] = {}
        for index, (name, _, start, end, leaf_ns, leaf_bits) in enumerate(self.spans):
            t = out.setdefault(name, Totals())
            t.total_ns += end - start
            t.self_ns += end - start - child_ns[index] - leaf_ns
            t.leaf_ns += leaf_ns
            t.leaf_bits += leaf_bits
        return out


def _instrument(tracer: Tracer, mods) -> None:
    cli, construction, oracle = mods["cli"], mods["construction"], mods["oracle"]
    tracer.span(construction, "make_plan", "construction.make_plan")
    tracer.span(construction, "witness_for", "construction.witness_for")
    tracer.span(construction, "digit_sum_offset", "construction.digit_sum_offset")
    tracer.span(construction, "poly_compose", "intpoly.poly_compose")
    tracer.span(construction, "select_k", "construction.select_k")
    tracer.span(construction, "poly_eval", "intpoly.poly_eval")
    tracer.leaf(construction, "digit_sum")
    tracer.span(cli, "read_witness_file", "cli.read_witness_file")
    tracer.span(oracle, "verify_witnesses", "oracle.verify_witnesses")
    tracer.leaf(oracle, "digit_sum")
    tracer.span(oracle, "tally_range", "oracle.tally_range")


def _layer_values(w: wl.Workload, t: dict[str, Totals], extra_ns: int) -> dict[str, float]:
    """Per-layer values of one traced job from its span totals."""
    t = defaultdict(Totals, t)
    per = w.size * 1000  # ns per item -> us per item
    if w.command == "construct":
        plan, wit, off = (t["construction.make_plan"], t["construction.witness_for"],
                          t["construction.digit_sum_offset"])
        return {
            "construction.plan_ms": plan.total_ns / 1e6,
            "intpoly.compose_us": t["intpoly.poly_compose"].total_ns / per,
            "construction.offset_self_us": off.self_ns / per,
            "digits.offset_sum_us": off.leaf_ns / per,
            "construction.select_k_us": t["construction.select_k"].total_ns / per,
            "intpoly.eval_us": t["intpoly.poly_eval"].total_ns / per,
            "digits.selfcheck_sum_us": wit.leaf_ns / per,
            "construction.witness_self_us": wit.self_ns / per,
            "cli.write_us": (t["cli.main"].total_ns - plan.total_ns - wit.total_ns) / per,
            "digits.kbits_per_item": (off.leaf_bits + wit.leaf_bits) / per,
        }
    if w.command == "verify":
        read, ver = t["cli.read_witness_file"], t["oracle.verify_witnesses"]
        return {
            "cli.read_us": read.total_ns / per,
            "oracle.verify_self_us": ver.self_ns / per,
            "digits.verify_sum_us": ver.leaf_ns / per,
            "cli.write_us": (t["cli.main"].total_ns - read.total_ns - ver.total_ns) / per,
            "digits.kbits_per_item": ver.leaf_bits / per,
        }
    # density: extra_ns is the time to iterate polynomial_values alone
    return {
        "oracle.values_ns": extra_ns / w.size,
        "oracle.tally_digits_ns": (t["oracle.tally_range"].total_ns - extra_ns) / w.size,
    }


def _values_ns(mods, w: wl.Workload) -> int:
    """Time to iterate oracle.polynomial_values over the density range alone."""
    p = mods["intpoly"].IntPolynomial.monomial(w.h)
    start = perf_counter_ns()
    for _ in mods["oracle"].polynomial_values(p, 0, w.size):
        pass
    return perf_counter_ns() - start


def _ladder(mods, seed: int) -> tuple[dict[str, float], list[str]]:
    """Median time of digit_sum on seeded random ints, 9 points."""
    digit_sum = mods["digits"].digit_sum
    rng = random.Random(f"{seed}:ladder")
    values, problems = {}, []
    for q in LADDER_BASES:
        for label, bits in LADDER_BITS.items():
            ints = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(3)]
            for v in ints:
                if digit_sum(v, q) != check.digit_sum(v, q):
                    problems.append(f"digit_sum q={q} at {bits} bits disagrees")
            samples = []
            deadline = time.perf_counter() + 0.1
            while len(samples) < 5 or time.perf_counter() < deadline:
                v = ints[len(samples) % len(ints)]
                start = perf_counter_ns()
                digit_sum(v, q)
                samples.append(perf_counter_ns() - start)
            values[f"digits.digit_sum_us.q{q}.{label}bits"] = statistics.median(samples) / 1e3
    return values, problems


def run_traced(seed: int, seconds: float, env: wl.Env, mods, scale: int = 1) -> dict:
    """The traced run: layer split of every workload, parallel efficiency,
    tracing overhead and the digit-sum ladder.  Returns the result fields."""
    started = time.perf_counter()
    cli = mods["cli"]
    works = [w.scaled(scale) for w in wl.WORKLOADS.values()]
    jobs = wl.Tally()
    inputs = {w.name: wl.prepare(w, seed, env) for w in works}
    out = env.path("inproc.jsonl")

    def in_process(w: wl.Workload, tracer=None, size=None) -> float:
        inp = inputs[w.name]
        size = w.size if size is None else size
        if size == 1:
            argv = wl.setup_args(w, inp, out)
        else:
            argv = wl.job_args(w, inp, out, workers=1)
        main = cli.main if tracer is None else tracer.timed("cli.main", cli.main)
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
        problems, _ = wl.check_output(w, inp, out, size, seed, code)
        jobs.record(f"{w.name} in-process", problems)
        return wall

    for w in works:  # warm-up: digit-sum tables, lazy imports
        in_process(w, size=1)

    values: dict[str, float] = {}
    by_name = {w.name: w for w in works}
    for metric, w in (("cli.parallel_efficiency", by_name["construct-cubic"]),
                      ("oracle.parallel_efficiency", by_name["density-square"])):
        inp, timing, shas = inputs[w.name], {}, {}
        for workers in (2, 1):
            path = env.path(f"workers{workers}.jsonl")
            result = wl.run_job(env, wl.job_args(w, inp, path, workers=workers))
            problems, shas[workers] = wl.check_output(
                w, inp, path, w.size, seed, result.code)
            if shas[workers] != shas[2]:
                problems.append("output differs from the 2-worker output")
            jobs.record(f"{w.name} --workers {workers}", problems)
            if problems:
                raise wl.SetupError(f"{w.name} --workers {workers}: {problems[:3]}")
            timing[workers] = result.wall_s
        values[metric] = timing[1] / (2 * timing[2])

    ladder, problems = _ladder(mods, seed)
    values.update(ladder)
    jobs.record("digit_sum ladder", problems)

    # Passes of untraced + traced in-process jobs while another pass fits
    # in --seconds; always at least one.
    per_pass: dict[str, list[float]] = {}
    walls = {"traced": 0.0, "untraced": 0.0}
    passes, pass_s = 0, 0.0
    while passes == 0 or time.perf_counter() - started + pass_s < seconds:
        pass_start = time.perf_counter()
        for w in works if passes % 2 == 0 else reversed(works):
            walls["untraced"] += in_process(w)
            tracer = Tracer()
            _instrument(tracer, mods)
            try:
                walls["traced"] += in_process(w, tracer)
            finally:
                tracer.restore()
            extra = _values_ns(mods, w) if w.command == "density" else 0
            for name, value in _layer_values(w, tracer.totals(), extra).items():
                per_pass.setdefault(f"{w.name}.{name}", []).append(value)
        passes += 1
        pass_s = time.perf_counter() - pass_start
    values.update({name: statistics.median(v) for name, v in per_pass.items()})
    values["trace.overhead_frac"] = (walls["traced"] - walls["untraced"]) / walls["untraced"]
    return {
        "values": values,
        "jobs": jobs,
        "info": {"passes": passes, "workloads": "all"},
    }
