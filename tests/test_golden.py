"""Golden contract: pinned CLI invocations must keep writing the same bytes.

Each case runs `cli.main` in-process with `--out` and compares the SHA-256
of the file it wrote with a constant.  The constants were recorded before
the CLI and its parallel paths were refactored; a change to any of them is
a change to the output format and must be deliberate.
"""

import hashlib
import json

import pytest

from digitwitness import cli

CUBE_300 = ["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
            "--limit", "300"]
CUBE_300_SHA = "6d0d03e7a10c1f1cc29c4ad09eeeede1f452269168b96eb0f50a3f1bc8c58b3c"

GOLDEN = {
    "construct-shifted-csv": (
        ["construct", "--q", "10", "--m", "7", "--g", "0", "--poly", "1,0,-2,0",
         "--limit", "5", "--format", "csv", "--workers", "2"],
        0, "46ffe1da42feeae522e306f8f83e5872b327f44476f23847b503c86711dfe94e",
    ),
    "density-json-1": (
        ["density", "--q", "2", "--m", "3", "--poly", "x^2", "--N", "200000",
         "--workers", "1"],
        0, "1b883b35abefe448c728b6ee080513897f53f67818c57b4c3236b18ee3510927",
    ),
    "density-csv-3": (
        ["density", "--q", "2", "--m", "3", "--poly", "x^2", "--N", "200000",
         "--workers", "3", "--format", "csv"],
        0, "50721cdab58daa112e09c4997c158892c9a569568328e5da1834cf2321cc2e72",
    ),
    "certify": (
        ["certify", "--q", "2", "--m", "3", "--h", "3", "--N-at", "N0*q^(3h+1)"],
        0, "22ec2c8b0e11d0338c257ea500e0561e7f8a4dff34c575aa125eddd9ea3b156d",
    ),
    "lemma-csv": (
        ["lemma", "--q", "2", "--l", "3", "--u", "15", "--mode", "random",
         "--count", "50", "--seed", "7", "--format", "csv"],
        0, "e61c5e55fb0054870432d6776426f233e997d9146b52c8b9084e10289ed08af4",
    ),
    "lemma-exhaustive": (
        ["lemma", "--q", "2", "--l", "3", "--u", "15", "--mode", "exhaustive",
         "--max-per-range", "5"],
        0, "b531ea7b017981766be1efa90fa662fcdd5de7d6f8da6640ac2e72523e52b7e9",
    ),
    "lemma-exhaustive-csv": (
        ["lemma", "--q", "3", "--l", "2", "--u", "8", "--mode", "exhaustive",
         "--max-per-range", "3", "--format", "csv"],
        0, "1b2a80a4a55f6040854e2ba79d7536ba06d28b7c0d24ac09ca10680bb6c91c55",
    ),
}


def run_sha(argv, path):
    code = cli.main(argv + ["--out", str(path)])
    return code, hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_construct_cube_any_workers(tmp_path, workers):
    assert run_sha(CUBE_300 + ["--workers", workers], tmp_path / "out") == (
        0, CUBE_300_SHA)


def test_verify_cube_file(tmp_path):
    witnesses = tmp_path / "witnesses.jsonl"
    assert run_sha(CUBE_300, witnesses) == (0, CUBE_300_SHA)
    argv = ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
            "--in", str(witnesses)]
    assert run_sha(argv, tmp_path / "out") == (
        0, "d2daa2ab7669e1912d2ae8f0c9dedc023cbcedde25e139a5fcb52a48da5a726c")


def corrupt_json(text):
    """Malformed, blank, inconsistent, duplicated and cut-off rows."""
    lines = text.splitlines()
    record = json.loads(lines[40])
    record["sq"] += 1
    lines[40] = json.dumps(record, separators=(",", ":"))
    lines[150] = lines[150][: len(lines[150]) // 2]
    lines.insert(100, "")
    lines.insert(200, lines[10])
    lines[-1] = lines[-1][: len(lines[-1]) // 3]
    return "\n".join(lines)  # the file ends inside its last row


def corrupt_csv(text):
    """One row short of a column."""
    lines = text.splitlines()
    lines[77] = lines[77].rsplit(",", 1)[0]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "fmt, corrupt, sha",
    [
        ("json", corrupt_json,
         "5b2e53774c147cdb975c1f274149905e8c06b212196be074ad8fe45ccc7f3d7b"),
        ("csv", corrupt_csv,
         "83145d14c8b56e00e48d2e8c8e18e4767e1875d9364c32f70009c1d7d6a66eec"),
    ],
    ids=["json", "csv"],
)
def test_verify_corrupted_cube_file(tmp_path, fmt, corrupt, sha):
    witnesses = tmp_path / "witnesses"
    assert cli.main(CUBE_300 + ["--format", fmt, "--out", str(witnesses)]) == 0
    witnesses.write_text(corrupt(witnesses.read_text()))
    argv = ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
            "--in", str(witnesses)]
    assert run_sha(argv, tmp_path / "out") == (1, sha)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(tmp_path, name):
    argv, code, sha = GOLDEN[name]
    assert run_sha(argv, tmp_path / "out") == (code, sha)
