"""Golden contract: pinned CLI invocations must keep writing the same bytes.

Each case runs `cli.main` in-process with `--out` and compares the SHA-256
of the file it wrote with a constant.  The constants were recorded before
the CLI and its parallel paths were refactored; a change to any of them is
a change to the output format and must be deliberate.
"""

import hashlib

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
        0, "56a016fad9d314a4a1e3ef1363826178fb58283ef89316e2880c0645ecfa7230",
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(tmp_path, name):
    argv, code, sha = GOLDEN[name]
    assert run_sha(argv, tmp_path / "out") == (code, sha)
