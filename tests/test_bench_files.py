"""Every committed BENCH_*.json at the repository root is complete.

A BENCH file has two sides, "parent" and "change".  Each side holds the
`{"meta": ...}` line of `perfbench/run.py` and, under "workloads", that
script's result line for each workload.  Only completeness is checked here;
no bound is put on any metric value.
"""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
@pytest.mark.parametrize("side", ["parent", "change"])
def test_side_is_complete(path, side):
    with open(path) as handle:
        bench = json.load(handle)
    assert side in bench
    assert "src_lines" in bench[side]["meta"]
    results = bench[side]["workloads"]
    assert WORKLOADS <= set(results)
    for name, line in results.items():
        assert line["correct"] is True and line["failed"] == 0, name
        assert END_TO_END <= set(line["metrics"]), name
