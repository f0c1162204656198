"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

import ast
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

# Divides every workload's item count, so a whole run takes seconds.
TINY = 1000


@pytest.fixture
def env(tmp_path):
    return wl.Env(ROOT, str(tmp_path))


def _job(env, w, inputs, size):
    out = env.path("job.jsonl")
    result = wl.run_job(env, wl.job_args(w, inputs, out, size=size))
    assert wl.check_output(w, inputs, out, size, 1, result.code)[0] == []
    records, _ = check.read_records(out)
    return records


def test_checker_imports_nothing_from_the_program():
    with open(os.path.join(HERE, "check.py")) as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "digitwitness" for name in imported)


@pytest.mark.parametrize("field, change", [
    ("n", lambda v: str(int(v) + 2)),
    ("sq", lambda v: v + 3),
    ("m1", lambda v: str(int(v) + 1)),
])
def test_checker_flags_a_tampered_witness(env, field, change):
    w = wl.WORKLOADS["construct-cubic"]
    inputs = wl.prepare(w, 3, env)
    records = _job(env, w, inputs, 12)
    kwargs = dict(q=w.q, m=w.m, g=inputs.g, h=w.h, count=12, seed=3, sample=12)
    assert check.check_witnesses(records, **kwargs) == []
    records[5][field] = change(records[5][field])
    assert check.check_witnesses(records, **kwargs)


def test_checker_flags_a_tampered_density_count(env):
    w = wl.WORKLOADS["density-square"]
    inputs = wl.prepare(w, 3, env)
    records = _job(env, w, inputs, 3000)
    counts = check.recount(w.q, w.m, w.h, 3000)
    kwargs = dict(n_limit=3000, expected_counts=counts,
                  expected_within=check.density_within(counts, 3000, wl.DENSITY_TOLERANCE))
    assert check.check_density(records, **kwargs) == []
    records[0]["count"] += 1
    records[1]["count"] -= 1  # the sum still matches N; the recount does not
    assert check.check_density(records, **kwargs)
    records[1]["count"] += 1
    assert check.check_density(records, **kwargs)


def test_checker_flags_a_wrong_verify_flag(env):
    w = wl.WORKLOADS["verify-cubic"].scaled(TINY)
    inputs = wl.prepare(w, 5, env)
    records = _job(env, w, inputs, w.size)
    expected_ok = list(inputs.expected_ok)
    assert check.check_verify(records, set(inputs.malformed), expected_ok) == []
    flipped = expected_ok.index(True)
    expected_ok[flipped] = False
    assert check.check_verify(records, set(inputs.malformed), expected_ok)


def test_same_seed_regenerates_identical_inputs(tmp_path):
    def inputs_for(seed, sub):
        os.makedirs(tmp_path / sub)
        inputs = wl.prepare(wl.WORKLOADS["verify-cubic"].scaled(TINY), seed,
                            wl.Env(ROOT, str(tmp_path / sub)))
        with open(inputs.verify_path, "rb") as handle:
            return inputs.g, handle.read(), inputs.malformed, inputs.expected_ok

    first, again, other = inputs_for(11, "a"), inputs_for(11, "b"), inputs_for(12, "c")
    assert first == again
    assert first != other
    for w in wl.WORKLOADS.values():
        assert wl.target_g(w, 11) == wl.target_g(w, 11)


def test_every_printed_metric_is_declared(env, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}

    result = run.run_end_to_end(wl.WORKLOADS["verify-cubic"].scaled(TINY), 1, 0, env)
    line = run.report("verify-cubic", result, run.E2E_UNITS, {})
    assert line["correct"], result["jobs"].problems
    assert {k: v["unit"] for k, v in line["metrics"].items()} == end_to_end

    result = layers.run_traced(1, 0, env, run._import_program(ROOT), scale=TINY)
    line = run.report("traced", result, layers.layer_metric_units(), {})
    assert line["correct"], result["jobs"].problems
    assert {k: v["unit"] for k, v in line["metrics"].items()} == per_layer
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == line
