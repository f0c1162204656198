"""Smoke tests: the experiment scripts under scripts/ run and print their header,
and the README's library example runs as written."""

import os
import re
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


def test_witness_anatomy_runs_past_the_str_limit():
    # n has 5379 decimal digits and p(n) 536 kbits, past the 4300 digits
    # str() writes
    result = run_script("witness_anatomy.py", "--q", "10", "--m", "7", "--g", "0",
                        "--poly", "x^30")
    assert result.returncode == 0, result.stderr
    assert "has 5379 decimal digits" in result.stdout
    assert "\ntotal digit sum 362782 = k*(q-1) + offset" in result.stdout


@pytest.mark.parametrize(
    "name, args, message",
    [("density_convergence.py", ["--poly", "x^"], "argument --poly: cannot parse"),
     ("witness_anatomy.py", ["--q", "\u0662"], "argument --q: a decimal string must be")],
    ids=["truncated-poly", "arabic-indic-q"],
)
def test_scripts_read_options_as_the_cli_does(name, args, message):
    # --poly x^ was a traceback, and int() reads an Arabic-Indic two
    result = run_script(name, *args)
    assert result.returncode == 2 and result.stdout == ""
    assert message in result.stderr


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_witness_anatomy_refuses_a_witness_past_the_cap():
    # make_plan holds the cap, so the script refuses before building anything
    result = run_script("witness_anatomy.py", "--poly", "x^200")
    assert result.returncode != 0 and result.stdout == ""
    assert "could exceed the 4194304-bit cap on one witness" in result.stderr
