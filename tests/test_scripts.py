"""Smoke tests: the experiment scripts under scripts/ run and print their header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "name, args, header",
    [
        ("density_convergence.py", ["--max-exp", "3"],
         "densities of s_2(x^2(n)) mod 3"),
        ("witness_anatomy.py", [], "target: s_2(p(n)) = 1 (mod 3),  p = x^3"),
    ],
)
def test_script_runs(name, args, header):
    result = run_script(name, *args)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == header
