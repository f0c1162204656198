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
    # x^8 at q=3 runs the stepped compositions at h=8; the cube at 16400
    # rows crosses its m0 wrap at 16384 inside a chunk of one of two
    # workers; the quartic has a shift e > 0 and zero coefficients in p
    "construct-deep-x8": (
        ["construct", "--q", "3", "--m", "5", "--g", "2", "--poly", "x^8",
         "--limit", "20"],
        0, "1f8132279628bf8ae13064503773d31fe182ccc3b2dde74d4a3687afd24a5893",
    ),
    "construct-cube-wrap": (
        ["construct", "--q", "2", "--m", "3", "--g", "0", "--poly", "x^3",
         "--limit", "16400", "--workers", "2"],
        0, "5a55de540214ef0da677035fb0435a762a57f2d4860cd0690ef7e11e0ae95cd2",
    ),
    "construct-quartic-csv": (
        ["construct", "--q", "10", "--m", "7", "--g", "3", "--poly", "2,0,-5,1,7",
         "--limit", "12", "--format", "csv"],
        0, "3cec1be4a8ae4c53cf98cf6102ae9356a822d08c8c4160cab982ede751c5183e",
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
        ["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N", "N0*q^(3h+1)"],
        0, "22ec2c8b0e11d0338c257ea500e0561e7f8a4dff34c575aa125eddd9ea3b156d",
    ),
    "certify-csv": (
        ["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N", "N0*q^(3h+1)",
         "--format", "csv"],
        0, "816e4c9b81476e7c28c2c90cc2d725c4b5654efb7d37941624a686db64f15307",
    ),
    "lemma-proof": (
        ["lemma", "--q", "2", "--l", "3"],
        0, "acbf441fa2b84a5a9289a7440e76b9ee697c91032ddbcb49921cde8e6a779ef6",
    ),
    "lemma-proof-csv": (
        ["lemma", "--q", "3", "--l", "2", "--format", "csv"],
        0, "d5a88d048fd4102580f5e7387868d1e1416f41a0f87c2638b2075a9bdbea0ed2",
    ),
}


def run_sha(argv, path):
    code = cli.main(argv + ["--out", str(path)])
    return code, hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_construct_cube_any_workers(tmp_path, workers):
    assert run_sha(CUBE_300 + ["--workers", workers], tmp_path / "out") == (
        0, CUBE_300_SHA)


def verify_cube_argv(witnesses):
    return ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
            "--in", str(witnesses)]


def test_verify_cube_file(tmp_path):
    witnesses = tmp_path / "witnesses.jsonl"
    assert run_sha(CUBE_300, witnesses) == (0, CUBE_300_SHA)
    argv = verify_cube_argv(witnesses)
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
    "fmt, corrupt, out_fmt, sha",
    [
        ("json", corrupt_json, "json",
         "5b2e53774c147cdb975c1f274149905e8c06b212196be074ad8fe45ccc7f3d7b"),
        ("csv", corrupt_csv, "json",
         "83145d14c8b56e00e48d2e8c8e18e4767e1875d9364c32f70009c1d7d6a66eec"),
        ("json", corrupt_json, "csv",
         "22a621bcd567bf9745698f970d6d307d95805c9b5b975adcbc42ce04b0c22a22"),
    ],
    ids=["json", "csv", "json-to-csv"],
)
def test_verify_corrupted_cube_file(tmp_path, fmt, corrupt, out_fmt, sha):
    witnesses = tmp_path / "witnesses"
    assert cli.main(CUBE_300 + ["--format", fmt, "--out", str(witnesses)]) == 0
    witnesses.write_text(corrupt(witnesses.read_text()))
    argv = verify_cube_argv(witnesses) + ["--format", out_fmt]
    assert run_sha(argv, tmp_path / "out") == (1, sha)


def late_faults(text):
    """Past row 2500: rows 2700 and 2701 swapped, a copy of the row that
    lands out of order, a copy of row 10, and a copy of row 20 with m2 one
    higher, whose n no longer matches its quadruple."""
    lines = text.splitlines()
    lines[2700], lines[2701] = lines[2701], lines[2700]
    record = json.loads(lines[20])
    record["m2"] = str(int(record["m2"]) + 1)
    lines.insert(2900, json.dumps(record, separators=(",", ":")))
    lines.insert(2800, lines[2701])
    lines.insert(2600, lines[10])
    return "\n".join(lines) + "\n"


def test_verify_late_faults(tmp_path):
    witnesses = tmp_path / "witnesses.jsonl"
    assert cli.main(CUBE_300[:-1] + ["3000", "--out", str(witnesses)]) == 0
    witnesses.write_text(late_faults(witnesses.read_text()))
    out = tmp_path / "out"
    assert run_sha(verify_cube_argv(witnesses), out) == (
        1, "cf9e29eb6c08c428da639941de2f6fe72a146ee1262c1d13c32573de03ea3c3a")
    failed = [json.loads(line) for line in out.read_text().splitlines()]
    failed = {r["index"]: r["detail"] for r in failed if not r["ok"] and r["index"]}
    assert sorted(failed) == [2600, 2801, 2902]
    assert failed[2600] == "duplicate n, first seen at index 10"
    assert failed[2801] == "duplicate n, first seen at index 2702"
    assert failed[2902].startswith("n does not match its quadruple")
    assert failed[2902].endswith("; duplicate n, first seen at index 20")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(tmp_path, name):
    argv, code, sha = GOLDEN[name]
    assert run_sha(argv, tmp_path / "out") == (code, sha)


FIELDS = {"construct": cli.WITNESS_FIELDS, "certify": cli.BOUNDS_FIELDS,
          "verify": cli.VERIFY_FIELDS, "density": cli.DENSITY_FIELDS,
          "lemma": cli.LEMMA_PROOF_FIELDS}


@pytest.mark.parametrize("name", sorted(GOLDEN) + ["verify-cube"])
def test_golden_json_records_fill_every_field(tmp_path, name):
    # each golden's configuration in JSON: the writer pads no short record,
    # so every record is "schema" and then all of its command's fields
    if name == "verify-cube":
        argv = verify_cube_argv(tmp_path / "witnesses.jsonl")
        assert cli.main(CUBE_300 + ["--out", argv[-1]]) == 0
    else:
        argv = [a for a in GOLDEN[name][0] if a not in ("--format", "csv")]
    out = tmp_path / "out.jsonl"
    assert cli.main(argv + ["--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        assert list(json.loads(line)) == ["schema", *FIELDS[argv[0]]]
