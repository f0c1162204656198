"""Which modules a CLI run imports: the process-pool stack and pickle never,
not even when workers are forked, and dataclasses, inspect and csv never."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from digitwitness import parallel

POOL_STACK = {"concurrent.futures", "concurrent.futures.process", "multiprocessing"}
# pickle is loaded only for a worker's exception
FORK_UNUSED = POOL_STACK | {"pickle"}
# dataclasses imports inspect; together they cost a one-item construct about
# 10 ms and 0.8 MiB (2-vCPU VM, Python 3.11.7)
RECORD_STACK = {"dataclasses", "inspect"}

# Runs each argv list through cli.main in one interpreter and prints the
# watched modules loaded at the end and those of them it added; the set is
# taken before the import, so a site hook that loads any of them cannot count
# against the program.
SCRIPT = """
import json, sys
before = set(sys.modules)
from digitwitness.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = set(sys.modules) & set(json.loads(sys.argv[2]))
print(json.dumps({"codes": codes, "loaded": sorted(loaded), "added": sorted(loaded - before)}))
"""

CUBIC = ["--q", "2", "--m", "3", "--g", "1", "--poly", "x^3"]


def watched_modules(runs, watched):
    """(loaded, added): the watched modules present after the runs, and those
    the import of the CLI and the runs added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(
        None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]
    ))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(runs), json.dumps(sorted(watched))],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(runs), result.stderr
    return set(report["loaded"]), set(report["added"])


def one_process_runs(tmp_path):
    """Every command once, each in a single process."""
    witnesses = str(tmp_path / "w.jsonl")
    return [
        ["construct", *CUBIC, "--limit", "300", "--workers", "1",
         "--out", str(tmp_path / "w1.jsonl")],
        ["construct", *CUBIC, "--limit", "1", "--workers", "2", "--out", witnesses],
        ["verify", *CUBIC, "--in", witnesses, "--out", str(tmp_path / "v.jsonl")],
        ["density", "--q", "2", "--m", "3", "--poly", "x^2", "--N", "100000",
         "--workers", "1", "--out", str(tmp_path / "d1.jsonl")],
        ["density", "--q", "2", "--m", "3", "--poly", "x^2", "--N", "1",
         "--tolerance", "1", "--workers", "2", "--out", str(tmp_path / "d2.jsonl")],
        ["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N", "N0",
         "--out", str(tmp_path / "c.jsonl")],
        ["lemma", "--q", "2", "--l", "3", "--out", str(tmp_path / "l.jsonl")],
    ]


def test_one_process_runs_never_import_the_pool_stack(tmp_path):
    assert watched_modules(one_process_runs(tmp_path), POOL_STACK)[1] == set()


def test_one_process_runs_never_import_dataclasses_or_inspect(tmp_path):
    assert watched_modules(one_process_runs(tmp_path), RECORD_STACK)[1] == set()


def test_no_run_in_either_format_imports_csv(tmp_path):
    # every record, the CSV header included, comes from cli's one builder
    runs = [argv + ["--format", fmt] for fmt in ("csv", "json")
            for argv in one_process_runs(tmp_path)]
    assert watched_modules(runs, {"csv", "_csv"})[1] == set()


@pytest.mark.skipif(parallel._cpu_count() < 2, reason="one CPU forks no worker")
def test_runs_that_fork_workers_import_no_pool_stack_and_no_pickle(tmp_path):
    # 600 witnesses are three 256-witness chunks and N = 200000 four 2^16-value
    # chunks, so two workers are forked for each
    runs = [["construct", *CUBIC, "--limit", "600", "--workers", "2",
             "--out", str(tmp_path / "w.jsonl")],
            ["density", "--q", "2", "--m", "3", "--poly", "x^2", "--N", "200000",
             "--workers", "2", "--out", str(tmp_path / "d.jsonl")]]
    assert watched_modules(runs, FORK_UNUSED)[1] == set()
