import csv
import io
import json
import os
import reprlib
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from digitwitness import bounds, cli, construction, oracle, parallel
from digitwitness.construction import ConsistencyError, CubicParams, Witness, build_cubic
from digitwitness.digits import _DECIMAL_DIGITS_CAP, decimal_str, digit_sum
from digitwitness.intpoly import IntPolynomial, poly_eval

# The --tolerance grammar, as its refusal states it
TOLERANCE_GRAMMAR = "P or P/Q, P and Q ASCII [0-9]+ of at most 4300 digits, Q >= 1"

WITNESS_KEYS = [
    "schema", "n", "k", "m0", "m1", "m2", "m3", "u", "M", "sq", "residue", "e",
]


def run(argv):
    return cli.main(argv)


def run_lines(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, [line for line in out.splitlines() if line]


def decimal_value(text):
    """int(text), also past the 4300 digits int() accepts by default."""
    digits = text.removeprefix("-")
    assert digits[0] != "0" or digits == "0"
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def test_witness_values_writes_the_decimal_fields_as_strings():
    # verify reads only DECIMAL_FIELDS past STR_DIGITS characters
    values = cli.witness_values(Witness(1, 2, CubicParams(3, 4, 5, 6, 7), 8, 9, 10, 11))
    strings = [f for f, v in zip(cli.WITNESS_FIELDS, values) if isinstance(v, str)]
    assert strings == list(cli.DECIMAL_FIELDS)


def generic_line(fmt, schema, fields, values):
    """The record of `values` as json.dumps and csv.writer would write it."""
    if fmt == "json":
        record = {"schema": schema, **dict(zip(fields, values))}
        return json.dumps(record, separators=(",", ":")) + "\n"
    stream = io.StringIO()
    csv.writer(stream, lineterminator="\n").writerow(values)
    return stream.getvalue()


def generic_witness_line(fmt, w):
    return generic_line(fmt, "witness/1", cli.WITNESS_FIELDS, cli.witness_values(w))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_witness_lines_are_the_generic_encoders_bytes(fmt):
    # a negative M, an e above 0, and an n and m0 of more digits than any
    # STR_DIGITS (at most 4300), which only decimal_str's strings can carry
    big = 10**5000 + 7
    params = CubicParams(big, 4, 5, 6, 7)
    hand_made = [
        Witness(big, 2, params, -9, 9, 0, 3),
        Witness(1, 1, CubicParams(1, 1, 1, 1, 1), -(10**30), 0, 0, 10**20),
    ]
    line = cli._Record(fmt, "witness/1", cli.WITNESS_FIELDS).line
    for w in hand_made:
        assert line % cli.witness_values(w) == generic_witness_line(fmt, w)
    # a chunk of real witnesses of x^3 - 2x, whose shift e is 2
    target = construction.CongruenceTarget(q=10, m=7, g=3)
    p = IntPolynomial.from_coeffs([0, -2, 0, 1])
    plan = construction.make_plan(target, p)
    witnesses = construction.construct_family(target, p, limit=5)
    assert cli._witness_lines(line, plan, 0, 5) == "".join(
        generic_witness_line(fmt, w) for w in witnesses
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_the_passing_verify_line_is_the_writers_bytes(fmt):
    # cmd_verify writes a passing row as this one %-format over its index
    passed = cli._Record(
        fmt, "verify/1", cli.VERIFY_FIELDS, line=None, ok=True, detail=""
    ).line
    for index in (0, 10**6):
        assert passed % index == generic_line(
            fmt, "verify/1", cli.VERIFY_FIELDS, (None, index, True, "")
        )
    # a fixed text that CSV quotes, whose "%" the format escapes
    fixed = cli._Record(fmt, "verify/1", cli.VERIFY_FIELDS, line=7, detail='5% "a,b"')
    assert fixed.render(-3, False) == generic_line(
        fmt, "verify/1", cli.VERIFY_FIELDS, (7, -3, False, '5% "a,b"')
    )


SCHEMAS = [
    ("witness/1", cli.WITNESS_FIELDS), ("bounds/1", cli.BOUNDS_FIELDS),
    ("verify/1", cli.VERIFY_FIELDS), ("verify-summary/1", cli.VERIFY_FIELDS),
    ("density/1", cli.DENSITY_FIELDS), ("lemma-proof/1", cli.LEMMA_PROOF_FIELDS),
]
# Values of each field kind.  No text holds a raw "\r": Python 3.11's
# csv.writer leaves a "\r" cell unquoted with lineterminator="\n", and no cell
# the program writes can hold one, as verify splits lines by str.splitlines
# and quotes the values it reports through repr.
KIND_SAMPLES = {
    "int": [0, -7, 10**30],
    "dec": ["0", "1" + "0" * 5000, "-12/7"],
    "bool": [True, False],
    "opt": [None, -3, 10**20],
    "text": ["", "a,b", 'say "hi"', "back\\slash", "\u0663", "\udc80", "two\nlines"],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("schema, fields", SCHEMAS)
def test_every_schemas_records_are_the_generic_encoders_bytes(fmt, schema, fields):
    record = cli._Record(fmt, schema, fields)
    kinds = [cli._KINDS.get(field, "int") for field in fields]
    for i in range(len(KIND_SAMPLES["text"])):
        values = [KIND_SAMPLES[kind][(i + j) % len(KIND_SAMPLES[kind])]
                  for j, kind in enumerate(kinds)]
        assert record.render(*values) == generic_line(fmt, schema, fields, values)
    if fmt == "csv":
        assert record.header == generic_line(fmt, schema, fields, fields)
    else:
        assert record.header == ""


class TestParsePoly:
    def test_monomial_shorthand(self):
        assert cli.parse_poly("x^3") == IntPolynomial.monomial(3)
        assert cli.parse_poly("x") == IntPolynomial.monomial(1)

    def test_coefficient_list_high_to_low(self):
        assert cli.parse_poly("1,0,-2,0") == IntPolynomial.from_coeffs([0, -2, 0, 1])

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            cli.parse_poly("x**3")
        with pytest.raises(ValueError):
            cli.parse_poly("3x+1")

    def test_degree_cap(self):
        assert cli.parse_poly("x^1024").degree == 1024
        assert cli.parse_poly(",".join(["1"] + ["0"] * 1024)).degree == 1024
        for text in ("x^1025", ",".join(["1"] + ["0"] * 1025)):
            with pytest.raises(ValueError, match="degree 1025 is above the cap 1024"):
                cli.parse_poly(text)

    def test_long_exponent_is_refused_by_its_digit_count(self):
        # leading zeros count, as int() counts them
        for text in ("x^" + "9" * 5000, "x^" + "0" * 5000 + "1024"):
            with pytest.raises(ValueError) as info:
                cli.parse_poly(text)
            assert str(info.value) == (
                f"the exponent of {len(text) - 2} digits is longer than the "
                f"4300-digit cap"
            )
        # 4300 digits are read; the degree cap quotes the degree cut short
        with pytest.raises(ValueError) as info:
            cli.parse_poly("x^" + "9" * 4300)
        assert str(info.value) == (
            f"polynomial degree {reprlib.repr(10**4300 - 1)} is above the cap 1024"
        )

    def test_long_coefficient_is_refused_before_int_reads_it(self):
        assert cli.parse_poly("1,-" + "9" * 4300).coeffs[0] == -int("9" * 4300)
        for text, digits in (("1," + "9" * 4301, 4301), ("-" + "1" * 5000 + ",0", 5000)):
            with pytest.raises(ValueError) as info:
                cli.parse_poly(text)
            assert str(info.value) == (
                f"a coefficient of {digits} digits is longer than the 4300-digit cap"
            )

    @pytest.mark.parametrize(
        "poly, message",
        [("x^" + "9" * 5000, "the exponent of 5000 digits is longer than the "
          "4300-digit cap"),
         ("1," + "9" * 5000, "a coefficient of 5000 digits is longer than the "
          "4300-digit cap")],
        ids=["exponent", "coefficient"],
    )
    def test_long_numbers_are_a_quick_usage_error(self, capsys, poly, message):
        start = time.perf_counter()
        code = run(["density", "--q", "2", "--m", "3", "--poly", poly, "--N", "2"])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.endswith(f"digitwitness density: error: argument --poly: {message}\n")

    def test_long_garbage_is_quoted_cut_short(self, capsys):
        # the whole text was echoed: a million characters on one stderr line
        poly = "y" * 10**6
        start = time.perf_counter()
        code = run(["density", "--q", "2", "--m", "3", "--poly", poly, "--N", "2"])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()[-1]) < 200
        assert err.endswith(
            f"error: argument --poly: cannot parse polynomial {reprlib.repr(poly)}: "
            f"use x^H or a comma-separated coefficient list, highest degree first\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--q", "2", "--m", "3", "--poly", "x^30000000", "--N", "5"],
            ["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^30000000"],
            ["density", "--q", "2", "--m", "3", "--poly", "x^4000", "--N", "2"],
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^4000",
             "--in", "missing.jsonl"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_degree_cap_is_a_quick_usage_error(self, capsys, argv):
        start = time.perf_counter()
        code = run(argv)
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.splitlines()[-1].startswith(
            f"digitwitness {argv[0]}: error: argument --poly: polynomial degree "
        )
        assert err.endswith(" is above the cap 1024\n")


class TestConstruct:
    def test_emits_requested_count_with_schema(self, capsys):
        code, lines = run_lines(
            capsys,
            ["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--limit", "10"],
        )
        assert code == 0
        assert len(lines) == 10
        for line in lines:
            record = json.loads(line)
            assert list(record) == WITNESS_KEYS
            assert record["schema"] == "witness/1"
            assert record["residue"] == 1
            assert isinstance(record["n"], str) and record["n"].isdigit()

    def test_csv_format(self, capsys):
        code, lines = run_lines(
            capsys,
            ["construct", "--q", "2", "--m", "3", "--g", "0", "--poly", "x^3",
             "--limit", "2", "--format", "csv"],
        )
        assert code == 0
        assert lines[0] == "n,k,m0,m1,m2,m3,u,M,sq,residue,e"
        assert len(lines) == 3

    def test_shifted_polynomial_records_e(self, capsys):
        code, lines = run_lines(
            capsys,
            ["construct", "--q", "10", "--m", "7", "--g", "0", "--poly", "1,0,-2,0",
             "--limit", "5"],
        )
        assert code == 0
        assert len(lines) == 5
        assert all(json.loads(line)["e"] == 2 for line in lines)

    def test_missing_required_flag_is_usage_error(self, capsys):
        code = run(["construct", "--q", "2", "--g", "1", "--poly", "x^3"])
        capsys.readouterr()
        assert code == 2

    def test_gcd_violation_is_config_error(self, capsys):
        code = run(
            ["construct", "--q", "10", "--m", "3", "--g", "0", "--poly", "x^3",
             "--limit", "1"]
        )
        err = capsys.readouterr().err
        assert code == 2 and "coprime" in err

    def test_scale_below_minimum_is_config_error(self, capsys):
        code = run(
            ["construct", "--q", "2", "--m", "3", "--g", "0", "--poly", "x^3",
             "--limit", "1", "--u", "14"]
        )
        err = capsys.readouterr().err
        assert code == 2 and "minimum scale" in err

    def test_deterministic_output(self, tmp_path):
        args = ["construct", "--q", "2", "--m", "3", "--g", "2", "--poly", "x^3",
                "--limit", "25"]
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_chunks_are_the_same_bytes_at_any_worker_count(self, tmp_path):
        # 600 rows are three 256-witness chunks, each rendered by a worker
        args = ["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
                "--limit", "600", "--format", "csv"]
        outputs = []
        for workers in ("1", "2", "3"):
            path = tmp_path / f"w{workers}.csv"
            assert run(args + ["--workers", workers, "--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0].count(b"\n") == 601
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no worker is forked")
    def test_a_worker_that_dies_is_an_error_line(self, tmp_path, monkeypatch, capsys):
        # as when the OOM killer ends a worker: the output is cut short
        lines = cli._witness_lines

        def dies_at_256(line, plan, start, stop):
            if start == 256:
                os._exit(3)
            return lines(line, plan, start, stop)

        monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "_witness_lines", dies_at_256)
        code = run(
            ["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--limit", "600", "--workers", "2", "--out", str(tmp_path / "w.jsonl")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err == "error: a worker exited with status 3 before sending chunk 1\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_workers_preserve_output(self, tmp_path):
        args = ["construct", "--q", "2", "--m", "3", "--g", "2", "--poly", "x^3",
                "--limit", "30"]
        serial, parallel = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        assert run(args + ["--out", str(serial)]) == 0
        assert run(args + ["--out", str(parallel), "--workers", "3"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_broken_invariant_is_verification_failure(
        self, capsys, monkeypatch, workers
    ):
        def broken_select_k(plan, offset):
            raise ConsistencyError("no k hits the target")

        monkeypatch.setattr(construction, "select_k", broken_select_k)
        code = run(
            ["construct", "--q", "2", "--m", "3", "--g", "0", "--poly", "x^3",
             "--limit", "200", "--workers", workers]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: no k hits the target\n"


    def test_values_past_the_str_limit_are_written(self, capsys):
        code, lines = run_lines(
            capsys,
            ["construct", "--q", "10", "--m", "7", "--g", "0", "--poly", "x^30",
             "--limit", "1"],
        )
        assert code == 0 and len(lines) == 1
        record = json.loads(lines[0])
        params = construction.CubicParams(
            *(int(record[f]) for f in ("m0", "m1", "m2", "m3", "u"))
        )
        n = decimal_value(record["n"])
        assert len(record["n"]) > 4300
        assert n == poly_eval(build_cubic(params), 10 ** record["k"]) + record["e"]


    def test_large_positive_constant_term_round_trips(self, tmp_path, capsys):
        # x^30 + 10^1000 at q = 2: a 6206-digit n, and p(n) of 618 kbit, which
        # the witness bound, charging the shift for negative coefficients
        # only, keeps under the 2^22-bit cap
        path = tmp_path / "w.jsonl"
        target = ["--q", "2", "--m", "3", "--g", "1",
                  "--poly", ",".join(["1"] + ["0"] * 29 + [str(10**1000)])]
        assert run(["construct", *target, "--limit", "2", "--out", str(path)]) == 0
        code, lines = run_lines(capsys, ["verify", *target, "--in", str(path)])
        assert code == 0
        assert json.loads(lines[-1])["detail"] == "total=2 failed=0 malformed=0"

    @pytest.mark.parametrize("poly", ["0", "0,0"])
    def test_zero_polynomial_is_a_usage_error(self, capsys, poly):
        code = run(["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", poly])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: polynomial degree must be >= 1, got -1\n"

    @pytest.mark.parametrize(
        "q, m, poly, u, refused",
        [
            ("2", "3", "x^1000", None, True),
            ("2", "3", "x^120", None, True),
            ("2", "3", "x^1000000", None, True),
            ("3", "5", "x^3", "100000000", True),
            ("2", "10000001", "x^3", None, True),
            ("2", "3", "x^60", None, False),
            ("10", "7", "x^30", None, False),
            ("3", "5", "x^41", None, False),
            ("10", "7", "x^48", None, False),
            ("2", "3", "1,0,-2,0", "15", False),
        ],
    )
    def test_value_cap_is_checked_before_the_plan(
        self, capsys, monkeypatch, q, m, poly, u, refused
    ):
        def reached(*args):
            raise ValueError("plan reached")

        monkeypatch.setattr(construction, "translate_shift", reached)
        argv = ["construct", "--q", q, "--m", m, "--g", "1", "--poly", poly,
                "--limit", "1"] + (["--u", u] if u else [])
        start = time.perf_counter()
        code = run(argv)
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        if not refused:
            assert err == "error: plan reached\n"
        elif poly == "x^1000000":  # parse_poly's degree cap refuses it first
            assert err.endswith("error: argument --poly: polynomial degree 1000000 "
                                "is above the cap 1024\n")
        else:
            assert err.startswith("error: p(n) for p = ")
            assert err.endswith("could exceed the 4194304-bit cap on one witness\n")

    def test_a_plan_whose_t_l_is_costly_to_build_is_refused(self, capsys, monkeypatch):
        # building t^200 at q=2, u=727 took 26.6 s; the witness cap refuses
        # x^200's plan at that scale before any product
        def reached(*args):
            raise AssertionError("product reached")

        monkeypatch.setattr(construction, "poly_compose", reached)
        monkeypatch.setattr(construction, "poly_translate", reached)
        start = time.perf_counter()
        code = run(["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^200",
                    "--u", "727"])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("error: p(n) for p = x^200 at q=2, m=3 could exceed the "
                       "4194304-bit cap on one witness\n")

    def test_shift_search_past_the_cap_is_a_usage_error(self, capsys, monkeypatch):
        # x^3 - 10^4299*x^2: the witness bound accepts it, and the search for
        # e = 10^4299 took 16.4 s before the cap refused it
        def reached(*args):
            raise ValueError("translation reached")

        monkeypatch.setattr(construction, "poly_translate", reached)
        poly = ",".join(["1", str(-(10**4299)), "0", "0"])
        code = run(["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", poly,
                    "--limit", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: shift search: h*bits(c + 1) = 42843 passes the 2^14 cap\n"


class TestVerify:
    def construct_file(self, tmp_path, fmt="json", limit=8):
        path = tmp_path / f"witnesses.{fmt}"
        code = run(
            ["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--limit", str(limit), "--format", fmt, "--out", str(path)]
        )
        assert code == 0
        return path

    def test_round_trip_passes(self, tmp_path, capsys):
        path = self.construct_file(tmp_path)
        code, lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        assert code == 0
        summary = json.loads(lines[-1])
        assert summary["schema"] == "verify-summary/1" and summary["ok"]

    def test_csv_round_trip(self, tmp_path, capsys):
        path = self.construct_file(tmp_path, fmt="csv")
        code, _ = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        assert code == 0

    def test_corrupted_value_fails(self, tmp_path, capsys):
        path = self.construct_file(tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[4])
        record["n"] = str(int(record["n"]) + 1)
        lines[4] = json.dumps(record, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        code, out_lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        assert code == 1
        failing = [json.loads(l) for l in out_lines if not json.loads(l)["ok"]]
        assert any(row.get("index") == 4 for row in failing)

    def test_malformed_row_reports_line_number(self, tmp_path, capsys):
        path = self.construct_file(tmp_path, limit=3)
        lines = path.read_text().splitlines()
        lines[1] = '{"schema":"witness/1","n":"not a number"}'
        path.write_text("\n".join(lines) + "\n")
        code, out_lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        assert code == 1
        malformed = [json.loads(l) for l in out_lines if json.loads(l).get("line")]
        assert malformed and malformed[0]["line"] == 2

    def test_json_rows_that_are_not_witness_objects(self, tmp_path, capsys):
        path = self.construct_file(tmp_path, limit=1)
        path.write_text(path.read_text() + '[1]\n7\n{"schema":"witness/1"}\n')
        code, out_lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        details = [json.loads(l)["detail"] for l in out_lines]
        assert code == 1
        assert details[:3] == [
            "malformed row: expected a JSON object, got list",
            "malformed row: expected a JSON object, got int",
            "malformed row: 'n'",  # the first missing key in WITNESS_FIELDS
        ]

    def test_json_values_that_are_not_integers(self, tmp_path, capsys):
        # construct writes every value as an int or a decimal string
        path = self.construct_file(tmp_path, limit=2)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["residue"] == 1 and rows[1]["u"] == 15
        rows[0]["residue"], rows[1]["u"] = True, 15.9
        edits = [("sq", None), ("residue", [1]), ("e", {}), ("n", True)]
        for field, value in edits:
            rows.append({**rows[0], "residue": 1, field: value})
        # two bad fields: the first in WITNESS_FIELDS order is named
        rows.append({**rows[0], "residue": 1, "M": None, "u": [1]})
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        code, out_lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        records = [json.loads(l) for l in out_lines]
        assert code == 1
        assert [(r["line"], r["detail"]) for r in records[:7]] == [
            (1, "malformed row: residue must be an integer, got bool"),
            (2, "malformed row: u must be an integer, got float"),
            (3, "malformed row: sq must be an integer, got NoneType"),
            (4, "malformed row: residue must be an integer, got list"),
            (5, "malformed row: e must be an integer, got dict"),
            (6, "malformed row: n must be an integer, got bool"),
            (7, "malformed row: u must be an integer, got list"),
        ]
        assert records[-1]["detail"] == "total=0 failed=0 malformed=7"

    def test_csv_cells_that_are_not_ascii_decimals(self, tmp_path, capsys):
        # int() reads every one of these cells but the empty one
        path = self.construct_file(tmp_path, fmt="csv", limit=1)
        header, row = path.read_text().splitlines()
        edits = [("k", "+5"), ("m0", " 5"), ("u", "\u0663"), ("n", ""),
                 ("e", "1_000"), ("m3", "+5"), ("residue", " 5")]
        rows = [header]
        for field, cell in edits:
            cells = row.split(",")
            cells[cli.WITNESS_FIELDS.index(field)] = cell
            rows.append(",".join(cells))
        path.write_text("\n".join(rows) + "\n")
        code, out_lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        records = [json.loads(l) for l in out_lines]
        assert code == 1
        assert [(r["line"], r["detail"]) for r in records[:-1]] == [
            (line, f"malformed row: {field} must be ASCII digits after an "
                   f"optional '-', got {cell!r}")
            for line, (field, cell) in enumerate(edits, 2)
        ]
        assert records[-1]["detail"] == "total=0 failed=0 malformed=7"

    @pytest.mark.parametrize(
        "text",
        ["n," + "y" * 300_000 + "\n",
         json.dumps({"schema": "z" * 300_000}) + "\n"],
        ids=["csv-header", "json-schema"],
    )
    def test_a_long_unexpected_header_or_schema_is_quoted_short(
        self, tmp_path, capsys, text
    ):
        path = tmp_path / "rows.txt"
        path.write_text(text)
        code = run(
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert len(out) < 1000
        assert json.loads(out.splitlines()[0])["detail"].startswith(
            "malformed row: unexpected "
        )

    @pytest.mark.parametrize(
        "header, detail",
        [("n,k,m0,m1,m2,m3,u,offset,sq,residue,e",
          "unexpected CSV header: column 8 is 'offset', expected 'M'"),
         ("n,k,m0,m1,m2,m3,u,M,sq,residue",
          "unexpected CSV header of 10 columns, expected 11"),
         ("n,k,m0,m1,m2,m3,u,M,sq,residue,e,",
          "unexpected CSV header of 12 columns, expected 11")],
        ids=["wrong-cell", "short", "long"],
    )
    def test_a_wrong_csv_header_names_what_differs(
        self, tmp_path, capsys, header, detail
    ):
        path = tmp_path / "rows.csv"
        path.write_text(header + "\n1,2,3,4,5,6,7,8,9,10,11\n")
        code = run(
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)]
        )
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert code == 1
        assert [(r["line"], r["detail"]) for r in records[:-1]] == [
            (1, f"malformed row: {detail}")
        ]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_every_record_is_the_generic_encoders_bytes(self, tmp_path, capsys, fmt):
        # passing, failing and malformed rows and the summary; a schema with
        # a quote and a comma makes csv quote its cell
        path = self.construct_file(tmp_path, limit=6)
        rows = path.read_text().splitlines()
        record = json.loads(rows[2])
        record["sq"] += 1
        rows[2] = json.dumps(record)
        rows[4] = json.dumps({"schema": 'a"b,c'})
        rows.append('{"schema":"witness/1"}')
        path.write_text("\n".join(rows) + "\n")
        code = run(
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--format", fmt, "--in", str(path)]
        )
        lines = capsys.readouterr().out.splitlines(True)
        assert code == 1
        for line in lines:
            if fmt == "json":
                again = json.dumps(json.loads(line), separators=(",", ":")) + "\n"
            else:
                stream = io.StringIO()
                csv.writer(stream, lineterminator="\n").writerows(
                    csv.reader([line])
                )
                again = stream.getvalue()
            assert again == line
        records = (
            [json.loads(line) for line in lines] if fmt == "json"
            else list(csv.DictReader(lines))
        )
        assert [str(r["ok"]) for r in records] == (
            ["False"] * 2 + ["True", "True", "False", "True", "True"] + ["False"]
        )

    def test_line_numbers_follow_str_splitlines(self, tmp_path, capsys):
        # \x0c and \x1e end a line for str.splitlines, not for file iteration
        path = self.construct_file(tmp_path, limit=2)
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:20] + "\x0c" + lines[0][20:]
        path.write_text("\n".join(lines + [lines[1]]) + "\x1e\nnot json\n")
        code, out_lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        records = [json.loads(l) for l in out_lines]
        assert code == 1
        assert [r["line"] for r in records if r["line"]] == [1, 2, 6]
        assert [r["ok"] for r in records if r["index"] is not None] == [True, False]
        assert records[-1]["detail"] == "total=2 failed=1 malformed=3"

    def test_peak_memory_grows_little_per_row(self, tmp_path):
        # only the duplicate check's map of n may grow with the file
        rows = self.construct_file(tmp_path, limit=4000).read_text().splitlines(True)
        small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
        small.write_text("".join(rows[:500]))
        large.write_text("".join(rows))
        argv = ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
                "--out", str(tmp_path / "out"), "--in"]
        assert run(argv + [str(small)]) == 0  # fills lazily built state first
        peaks = []
        for path in (small, large):
            tracemalloc.start()
            try:
                assert run(argv + [str(path)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (len(rows) - 500) < 300

    @pytest.mark.parametrize(
        "text", ["", ",".join(cli.WITNESS_FIELDS) + "\n"],
        ids=["empty", "csv-header-only"],
    )
    def test_empty_file_is_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "rows.txt"
        path.write_text(text)
        code = run(
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)]
        )
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: no witness rows")

    def test_out_may_name_the_input(self, tmp_path, capsys):
        path = self.construct_file(tmp_path, limit=3)
        argv = ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
                "--in", str(path)]
        assert run(argv) == 0
        expected = capsys.readouterr().out
        assert run(argv + ["--out", str(path)]) == 0
        assert path.read_text() == expected

    def test_rejected_file_leaves_no_out_file(self, tmp_path, capsys):
        path, out = tmp_path / "empty.jsonl", tmp_path / "out"
        path.write_text("\n")
        code = run(
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path), "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_nonpositive_modulus_is_usage_error(self, tmp_path, capsys, m):
        path = self.construct_file(tmp_path, limit=2)
        code = run(["verify", "--q", "2", "--m", m, "--g", "1", "--poly", "x^3",
                    "--in", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: modulus must be >= 1, got {m}\n"

    @pytest.mark.parametrize("q", ["1", "0", "-3"])
    def test_base_below_two_is_usage_error_before_any_row(self, tmp_path, capsys, q):
        path, out = tmp_path / "rows.jsonl", tmp_path / "out"
        path.write_text("not a witness\n")
        code = run(["verify", "--q", q, "--m", "3", "--g", "1", "--poly", "x^3",
                    "--in", str(path), "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert code == 2 and stdout == "" and not out.exists()
        assert err == f"error: base must be >= 2, got {q}\n"

    def test_deeply_nested_json_row_is_malformed(self, tmp_path, capsys):
        path = self.construct_file(tmp_path, limit=2)
        rows = path.read_text().splitlines()
        path.write_text("\n".join([rows[0], '{"n":' + "[" * 100000, rows[1]]) + "\n")
        code, lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        records = [json.loads(line) for line in lines]
        assert code == 1
        assert records[0]["line"] == 2
        assert records[0]["detail"].startswith("malformed row: ")
        assert [r["ok"] for r in records[1:3]] == [True, True]
        assert records[-1]["detail"] == "total=2 failed=0 malformed=1"

    def edited_row_records(self, tmp_path, capsys, edits, traced=False):
        """Verify records after applying `edits` to the second of three rows."""
        path = self.construct_file(tmp_path, limit=3)
        argv = ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
                "--in", str(path)]
        assert run(argv) == 0  # fills lazily built state before any tracing
        capsys.readouterr()
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record.update(edits)
        lines[1] = json.dumps(record, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        peak = None
        if traced:
            tracemalloc.start()
            try:
                code = run(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        else:
            code = run(argv)
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert code == 1
        assert [r["ok"] for r in records] == [True, False, True, False]
        return records[1]["detail"], peak

    @pytest.mark.parametrize("k", [10**7, 0, -1])
    def test_implausible_k_is_flagged_without_rebuilding_n(
        self, tmp_path, capsys, k
    ):
        detail, peak = self.edited_row_records(tmp_path, capsys, {"k": k}, True)
        assert f"k {k} cannot rebuild n from its quadruple" in detail
        assert "n does not match" not in detail
        assert peak < 1 << 20

    def test_negative_polynomial_value_is_a_row_failure(self, tmp_path, capsys):
        detail, _ = self.edited_row_records(tmp_path, capsys, {"n": "-5"})
        assert "p(n) = -125 is negative" in detail
        assert "digit sum" not in detail

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({"n": "1" + "0" * 3999, "k": 12000}, "n does not match its quadruple: "),
            ({"n": "-" + "7" * 1500}, "p(n) = -"),
            ({"k": "9" * 4300, "M": "9" * 4300}, "k*(q-1)+offset 1999"),
        ],
        ids=["rebuilt-n", "negative-p(n)", "sq-check"],
    )
    def test_messages_may_quote_numbers_past_the_str_limit(
        self, tmp_path, capsys, edits, message
    ):
        # each quoted number has more than the 4300 digits str() allows
        detail, _ = self.edited_row_records(tmp_path, capsys, edits)
        assert message in detail

    def test_mismatch_message_writes_bit_lengths(self, tmp_path, capsys):
        # a 5000-digit n whose row passes every other check, and a rebuilt n
        # of about 10850 digits: the message gives sizes, not the numbers
        n = 10**4999
        while digit_sum(n**3, 2) % 3 != 1:
            n += 1
        sq = digit_sum(n**3, 2)
        edits = {"n": decimal_str(n), "k": 12000, "M": sq - 12000, "sq": sq}
        detail, _ = self.edited_row_records(tmp_path, capsys, edits)
        assert len(detail) < 200
        assert detail == (
            "n does not match its quadruple: the rebuilt n has 36015 bits, "
            "n has 16607 and their difference 36015"
        )

    def test_row_past_the_value_cap_is_flagged_quickly(self, tmp_path, capsys):
        # |p(n)| <= A*|n|^h could reach 1000 * 13288 bits: a row failure,
        # found before p(n) is evaluated
        path = tmp_path / "w.jsonl"
        assert run(["construct", "--q", "3", "--m", "5", "--g", "1", "--poly", "x^3",
                    "--limit", "1", "--out", str(path)]) == 0
        record = json.loads(path.read_text())
        record["n"] = "1" + "0" * 3999
        path.write_text(json.dumps(record) + "\n")
        start = time.perf_counter()
        code, lines = run_lines(
            capsys,
            ["verify", "--q", "3", "--m", "5", "--g", "1", "--poly", "x^1000",
             "--in", str(path)],
        )
        assert time.perf_counter() - start < 1
        assert code == 1
        detail = json.loads(lines[0])["detail"]
        assert "p(n) could exceed the 4194304-bit cap" in detail
        assert "digit sum" not in detail
        assert json.loads(lines[1])["detail"] == "total=1 failed=1 malformed=0"

    def test_undecodable_lines_are_malformed_rows(self, tmp_path, capsys):
        path = self.construct_file(tmp_path, limit=3)
        rows = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"\xff\xfe" + rows[0] + rows[1] + b"\xc3(\n" + rows[2])
        code, lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        records = [json.loads(line) for line in lines]
        assert code == 1
        assert [(r["line"], r["detail"]) for r in records[:2]] == [
            (1, "malformed row: line is not valid UTF-8"),
            (3, "malformed row: line is not valid UTF-8"),
        ]
        assert [r["ok"] for r in records[2:4]] == [True, True]
        assert records[-1]["detail"] == "total=2 failed=0 malformed=2"

    def test_replacement_character_is_valid_utf8(self, tmp_path, capsys):
        # U+FFFD written as UTF-8 is a valid character, not a decoding error
        path = self.construct_file(tmp_path, limit=2)
        rows = path.read_text().splitlines()
        rows[1] = rows[1][:-1] + ',"note":"\ufffd"}'
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        assert code == 0
        assert json.loads(lines[-1])["detail"] == "total=2 failed=0 malformed=0"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_values_past_the_str_limit_round_trip(self, tmp_path, capsys, fmt):
        # an x^30 witness at q = 10 has a 5379-digit n
        path = tmp_path / f"w.{fmt}"
        target = ["--q", "10", "--m", "7", "--g", "0", "--poly", "x^30"]
        assert run(["construct", *target, "--limit", "1", "--format", fmt,
                    "--out", str(path)]) == 0
        code, lines = run_lines(capsys, ["verify", *target, "--in", str(path)])
        assert code == 0
        assert json.loads(lines[-1])["detail"] == "total=1 failed=0 malformed=0"

        # one digit of n edited: a failing row, not a malformed one
        text = path.read_text()
        start = text.index("0" * 20)
        path.write_text(text[:start] + "1" + text[start + 1 :])
        code, lines = run_lines(capsys, ["verify", *target, "--in", str(path)])
        records = [json.loads(line) for line in lines]
        assert code == 1
        assert records[0]["index"] == 0
        assert records[0]["detail"].startswith("n does not match its quadruple: ")
        assert records[-1]["detail"] == "total=1 failed=1 malformed=0"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
    )
    def test_round_trip_under_the_lowest_int_str_limit(self, tmp_path):
        # -X int_max_str_digits (or PYTHONINTMAXSTRDIGITS) may lower the limit
        # to 640 digits; an x^20 witness at q = 10 has a 2502-digit n
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(
            None, [str(Path(__file__).resolve().parents[1] / "src"),
                   env.get("PYTHONPATH")]
        ))
        main = "import sys; from digitwitness.cli import main; sys.exit(main())"
        path = tmp_path / "w.jsonl"
        target = ["--q", "10", "--m", "7", "--g", "0", "--poly", "x^20"]
        for argv in (["construct", *target, "--limit", "1", "--out", str(path)],
                     ["verify", *target, "--in", str(path)]):
            result = subprocess.run(
                [sys.executable, "-X", "int_max_str_digits=640", "-c", main, *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert result.returncode == 0, result.stdout + result.stderr
        assert len(json.loads(path.read_text())["n"]) == 2502

    def test_csv_cells_past_the_csv_field_limit(self, tmp_path, capsys):
        # at u = 45000 n has more digits than the 131072 characters csv
        # reads in one cell
        path = tmp_path / "w.csv"
        target = ["--q", "2", "--m", "3", "--g", "1", "--poly", "x^3"]
        assert run(["construct", *target, "--u", "45000", "--limit", "1",
                    "--format", "csv", "--out", str(path)]) == 0
        assert len(path.read_text().splitlines()[1].split(",")[0]) > 131072
        code, _ = run_lines(capsys, ["verify", *target, "--in", str(path)])
        assert code == 0

    @pytest.mark.parametrize(
        "n, message",
        [
            ("1" * (_DECIMAL_DIGITS_CAP + 1),
             "of 1262613 digits is longer than the 1262612-digit cap"),
            ("1_" * 2200, "must be ASCII digits"),
        ],
        ids=["past-the-cap", "underscores"],
    )
    def test_long_bad_digit_strings_are_malformed_quickly(
        self, tmp_path, capsys, n, message
    ):
        path = self.construct_file(tmp_path, limit=1)
        record = json.loads(path.read_text())
        record["n"] = n
        path.write_text(json.dumps(record) + "\n")
        start = time.perf_counter()
        code, lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        assert time.perf_counter() - start < 1
        assert code == 1
        assert json.loads(lines[0])["line"] == 1
        assert message in json.loads(lines[0])["detail"]

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("n", lambda v: v[:3] + "_" + v[3:]),
            ("m0", lambda v: "+" + v),
            # U+0660 to U+0669, the Arabic-Indic digits
            ("n", lambda v: v.translate({0x30 + d: 0x0660 + d for d in range(10)})),
            ("m1", lambda v: f" {v} "),
        ],
        ids=["underscore-n", "plus-m0", "arabic-indic-n", "spaces-m1"],
    )
    def test_decimal_fields_are_ascii_digits_only(
        self, tmp_path, capsys, field, edit
    ):
        # int() reads each edited value as the construct wrote; verify does not
        path = self.construct_file(tmp_path, limit=1)
        record = json.loads(path.read_text())
        value = record[field]
        record[field] = edit(value)
        assert int(record[field]) == int(value) and record[field] != value
        path.write_text(json.dumps(record) + "\n")
        code, lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        assert code == 1
        assert json.loads(lines[0])["detail"].startswith(
            f"malformed row: {field} must be ASCII digits after an optional '-'"
        )
        assert json.loads(lines[-1])["detail"] == "total=0 failed=0 malformed=1"

    @pytest.mark.parametrize("field", ["m2", "residue"])
    def test_an_empty_csv_cell_names_its_field(self, tmp_path, capsys, field):
        # the JSON rows of test_decimal_fields_are_ascii_digits_only name theirs
        path = self.construct_file(tmp_path, fmt="csv", limit=1)
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        cells[cli.WITNESS_FIELDS.index(field)] = ""
        path.write_text(f"{header}\n{','.join(cells)}\n")
        code, records = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        assert code == 1
        assert json.loads(records[0])["detail"] == (
            f"malformed row: {field} must be ASCII digits after an optional '-', "
            f"got ''"
        )

    def test_a_signed_small_field_reads_alike_in_csv_and_json(self, tmp_path, capsys):
        # json reads a k of "-" and 4300 digits, as int() does; so does CSV
        k = -int("9" * 4300)
        csv_path = self.construct_file(tmp_path, fmt="csv", limit=1)
        header, row = csv_path.read_text().splitlines()
        cells = row.split(",")
        cells[cli.WITNESS_FIELDS.index("k")] = str(k)
        csv_path.write_text(f"{header}\n{','.join(cells)}\n")
        json_path = tmp_path / "edited.jsonl"
        record = {"schema": "witness/1", **dict(zip(cli.WITNESS_FIELDS, cells))}
        for field in cli.WITNESS_FIELDS:
            if field not in cli.DECIMAL_FIELDS:
                record[field] = int(record[field])
        json_path.write_text(json.dumps(record) + "\n")
        target = ["--q", "2", "--m", "3", "--g", "1", "--poly", "x^3"]
        results = [run_lines(capsys, ["verify", *target, "--in", str(path)])
                   for path in (csv_path, json_path)]
        assert results[0] == results[1]
        code, lines = results[0]
        assert code == 1 and json.loads(lines[0])["index"] == 0
        assert json.loads(lines[-1])["detail"] == "total=1 failed=1 malformed=0"

    def test_a_quoted_csv_row_is_malformed(self, tmp_path, capsys):
        # construct writes no quotes; the csv module would read '"5"' as 5
        path = self.construct_file(tmp_path, fmt="csv", limit=1)
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        cells[1] = f'"{cells[1]}"'
        path.write_text(f"{header}\n{','.join(cells)}\n")
        code, lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        assert code == 1
        assert json.loads(lines[0])["detail"].startswith(
            "malformed row: k must be ASCII digits after an optional '-'"
        )
        assert json.loads(lines[-1]) == {
            "schema": "verify-summary/1", "line": None, "index": None, "ok": False,
            "detail": "total=0 failed=0 malformed=1",
        }

    def test_n_is_rebuilt_without_the_construction_cubic(
        self, tmp_path, capsys, monkeypatch
    ):
        # a defect in build_cubic would pass construct's self-check; verify
        # must not share it (oracle's own name is patched too, if it has one)
        path = self.construct_file(tmp_path)

        def wrong(params):
            return IntPolynomial.from_coeffs(
                [params.m0 + 1, -params.m1, params.m2, params.m3]
            )

        monkeypatch.setattr(construction, "build_cubic", wrong)
        monkeypatch.setattr(oracle, "build_cubic", wrong, raising=False)
        code, lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        assert code == 0
        assert json.loads(lines[-1])["detail"] == "total=8 failed=0 malformed=0"

    def test_long_values_outside_n_and_the_quadruple_are_malformed(
        self, tmp_path, capsys
    ):
        # construct writes only n and the quadruple as decimal strings
        path = self.construct_file(tmp_path, limit=1)
        record = json.loads(path.read_text())
        record["k"] = "1" * 5000
        path.write_text(json.dumps(record) + "\n")
        code, lines = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
             "--in", str(path)],
        )
        assert code == 1
        assert json.loads(lines[0])["detail"] == (
            "malformed row: k of 5000 digits is longer than the 4300-digit cap"
        )

    def test_rebuilt_n_past_the_value_cap_is_flagged_quickly(self, tmp_path, capsys):
        # n has 1.49 Mbit, so k may pass the size rule up to there; q^(3k)
        # has 4.35 Mbit: a row failure, found before n is rebuilt or quoted
        start = time.perf_counter()
        detail, _ = self.edited_row_records(
            tmp_path, capsys, {"n": "1" + "0" * 450_000, "k": 1_450_000}
        )
        assert time.perf_counter() - start < 2
        assert "n rebuilt at k 1450000 could exceed the 4194304-bit cap" in detail
        assert "does not match" not in detail

    def test_wrong_target_residue_fails(self, tmp_path, capsys):
        path = self.construct_file(tmp_path, limit=2)
        code, _ = run_lines(
            capsys,
            ["verify", "--q", "2", "--m", "3", "--g", "2", "--poly", "x^3",
             "--in", str(path)],
        )
        assert code == 1


class TestCertify:
    def test_at_n0(self, capsys):
        code, lines = run_lines(
            capsys, ["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N", "N0"]
        )
        assert code == 0
        record = json.loads(lines[0])
        assert record["schema"] == "bounds/1"
        assert record["u0"] == 15 and record["u"] == 15
        assert record["N0"] == str(2**27 * 41472**10)
        assert record["verdict"] is True

    def test_expression_with_scale_step(self, capsys):
        code, lines = run_lines(
            capsys,
            ["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N",
             "N0*q^(3h+1)"],
        )
        assert code == 0
        assert json.loads(lines[0])["u"] == 16

    def test_explicit_decimal_n(self, capsys):
        n0 = 2**27 * 41472**10
        code, lines = run_lines(
            capsys, ["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N", str(n0)]
        )
        assert code == 0 and json.loads(lines[0])["verdict"] is True

    @pytest.mark.parametrize(
        "literal, expression",
        [(str(2**27 * 41472**10), "N0"), ("1" + "0" * 1000, "10^1000"),
         ("1" + "0" * 5000, "10^5000")],
        ids=["N0", "10^1000", "10^5000"],
    )
    def test_literal_n_writes_the_bytes_of_its_expression(
        self, capsys, literal, expression
    ):
        # decimal_int reads a literal past the 4300 digits int() takes
        argv = ["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N"]
        assert run(argv + [expression]) == 0
        by_expression = capsys.readouterr().out
        assert run(argv + [literal]) == 0
        assert capsys.readouterr().out == by_expression

    @pytest.mark.parametrize(
        "n, same",
        [("007", "7"), (" 5", "5"), ("N0*0010", "N0*10"), (" N0 * q ", "N0*q")],
        ids=["leading-zeros", "leading-space", "zeros-in-expression", "spaces"],
    )
    def test_leading_zeros_and_spaces_are_read(self, capsys, n, same):
        argv = ["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N"]
        outcomes = []
        for text in (n, same):
            code = run(argv + [text])
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("n", ["abc", "1.5", "2^-1", ""])
    def test_malformed_n_gets_the_evaluator_message(self, capsys, n):
        code = run(["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N", n])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        with pytest.raises(ValueError) as expected:
            cli._eval_n_expression(n, 2, 3, 3, 2**27 * 41472**10)
        assert err == f"error: {expected.value}\n"

    def test_monomial_poly_accepted(self, capsys):
        code, lines = run_lines(
            capsys,
            ["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N", "N0"],
        )
        assert code == 0 and json.loads(lines[0])["h"] == 3

    def test_general_poly_rejected(self, capsys):
        code = run(
            ["certify", "--q", "2", "--m", "3", "--poly", "1,0,-2,0", "--N", "N0"]
        )
        err = capsys.readouterr().err
        assert code == 2 and "monomial" in err

    def test_x0_is_refused_by_the_degree_rule(self, capsys):
        # x^0 is a monomial; explicit_constants' h >= 1 rule refuses it
        code = run(["certify", "--q", "2", "--m", "3", "--poly", "x^0", "--N", "5"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: need h >= 1, got h=0\n"

    def test_n_below_n0_rejected(self, capsys):
        code = run(["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N", "N0-1"])
        err = capsys.readouterr().err
        assert code == 2 and "below N0" in err

    def test_csv_format(self, capsys):
        code, lines = run_lines(
            capsys,
            ["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N", "N0",
             "--format", "csv"],
        )
        assert code == 0
        assert lines[0].startswith("q,m,h,u0,N0,")


    def test_one_run_builds_the_constants_once(self, capsys, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return explicit_constants(*args)

        explicit_constants = bounds.explicit_constants
        monkeypatch.setattr(bounds, "explicit_constants", counted)
        code = run(["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N", "N0"])
        assert code == 0 and calls == [(2, 3, 3)]

    @pytest.mark.parametrize(
        "q, m, h", [(2, 3, 86), (2, 3, 300), (2, 3, 100000), (2, 1000001, 3),
                    (2**3000 + 1, 3, 3)],
        ids=["h=86", "h=300", "h=100000", "m=1000001", "q=2^3000+1"],
    )
    def test_n0_past_the_n_cap_is_refused_before_it_is_built(
        self, capsys, monkeypatch, q, m, h
    ):
        # N0 has more than 3(bits(q)-1)(2h+m) + 3h(3h+1) bits, so none of
        # these N0 is reachable under the 2^16-bit cap on --N; min_u is
        # explicit_constants' first call after its guard.  x^100000 is
        # refused earlier still, by parse_poly's degree cap.
        def refused(*args):
            raise AssertionError("constants built past the cap")

        monkeypatch.setattr(bounds, "min_u", refused)
        code = run(["certify", "--q", str(q), "--m", str(m), "--poly", f"x^{h}",
                    "--N", "5"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        if h > 1024:
            assert err.endswith("error: argument --poly: polynomial degree 100000 "
                                "is above the cap 1024\n")
        else:
            assert "65536-bit cap" in err and "below N0" in err

    def test_below_n0_message_quotes_n0_past_the_str_limit(self, capsys):
        # at q=2, m=3 the largest degree under the cap is 84; its N0 has 24k digits
        code = run(["certify", "--q", "2", "--m", "3", "--poly", "x^84", "--N", "5"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: N=5 is below N0=")
        text = err.removeprefix("error: N=5 is below N0=").strip()
        assert len(text) > 4300
        assert decimal_value(text) == bounds.explicit_constants(2, 3, 84).n0

    def test_values_past_the_str_limit_are_written(self, capsys):
        code, lines = run_lines(
            capsys,
            ["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N", "2^20000"],
        )
        assert code == 0
        record = json.loads(lines[0])
        assert len(record["N"]) > 4300
        assert decimal_value(record["N"]) == 2**20000
        assert record["verdict"] is True
        constants = bounds.explicit_constants(2, 3, 3)
        report = bounds.certify_lower_bound(constants, 2**20000)
        assert int(record["required"]) == report.required
        assert int(record["guaranteed"]) == report.guaranteed

    @pytest.mark.parametrize(
        "expr, value",
        [("N0", 2**27 * 41472**10), ("N0*q^(3h+1)", 2**37 * 41472**10),
         ("2N0-(q)(m)h", 2**28 * 41472**10 - 18), ("-q+q^m^2", 510),
         ("+2^65535", 2**65535), ("0^0", 1)],
        ids=["N0", "scale-step", "implicit-products", "right-assoc", "cap", "0^0"],
    )
    def test_expression_values(self, expr, value):
        assert cli._eval_n_expression(expr, 2, 3, 3, 2**27 * 41472**10) == value

    @pytest.mark.parametrize(
        "expr",
        ["9^9^9^9", "2^-1", "N0^N0", "N0*(q+1", "2^65536", "q(3)",
         # a name after N0, ** as a second ^, a literal after a literal
         "N0q", "h**2", "2 3",
         pytest.param("(" * 10**5 + "1" + ")" * 10**5, id="nested-parentheses")],
    )
    def test_unsafe_expression_rejected(self, capsys, expr):
        code = run(["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N", expr])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        # the message quotes a long expression cut short, as reprlib does
        shown = reprlib.repr(expr)
        assert err.startswith(f"error: cannot evaluate N expression {shown}")
        assert len(err.splitlines()) == 1


class TestDensity:
    def test_degenerate_table(self, capsys):
        code, lines = run_lines(
            capsys,
            ["density", "--q", "2", "--m", "3", "--poly", "x^2", "--N", "1"],
        )
        # one tally: far from the 1/3 prediction, so the tolerance gate fails
        assert code == 1
        rows = [json.loads(l) for l in lines]
        assert [r["count"] for r in rows] == [1, 0, 0]

    def test_exact_parity_split_passes(self, capsys):
        code, lines = run_lines(
            capsys,
            ["density", "--q", "3", "--m", "2", "--poly", "x^2", "--N", "100"],
        )
        assert code == 0
        rows = [json.loads(l) for l in lines]
        assert all(r["within_tolerance"] for r in rows)
        assert rows[0]["prediction"] == "1/2"

    def test_workers_identical_output(self, tmp_path):
        args = ["density", "--q", "2", "--m", "3", "--poly", "x^3", "--N", "20000"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(args + ["--out", str(a)])
        run(args + ["--workers", "8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("q", ["2", "3"])
    def test_negative_polynomial_value_is_a_usage_error(self, capsys, q):
        # x - 5 is negative at n = 0; q = 2 takes the bit_count path
        code = run(["density", "--q", q, "--m", "2", "--poly", "1,-5", "--N", "10"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: polynomial takes negative value -5\n"

    def test_rejects_nonpositive_n(self, capsys):
        code = run(["density", "--q", "2", "--m", "3", "--poly", "x^2", "--N", "0"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "tolerance, message",
        [("1e999999999999", f"'1e999999999999' is not {TOLERANCE_GRAMMAR}"),
         ("1/" + "1" * 4301,
          "a decimal string of 4301 digits is longer than the 4300-digit cap"),
         ("1" * 10**6,
          "a decimal string of 1000000 digits is longer than the 4300-digit cap")],
        ids=["exponent", "long-denominator", "million-digits"],
    )
    def test_bad_tolerance_is_a_quick_usage_error(self, capsys, tolerance, message):
        # no exponent syntax, so nothing can grow to 10**999999999999
        start = time.perf_counter()
        code = run(["density", "--q", "2", "--m", "3", "--poly", "x^2", "--N", "10",
                    "--tolerance", tolerance])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.endswith(f"error: argument --tolerance: {message}\n")

    @pytest.mark.parametrize(
        "text, value",
        [("1/50", Fraction(1, 50)), ("0", Fraction(0)), ("1", Fraction(1)),
         ("001/050", Fraction(1, 50)),
         # Fraction() read the first six of these
         ("0.02", None), ("2e-2", None), ("\u0660.\u0660\u0662", None), ("1_0", None),
         (" 1", None), ("+1", None), ("-1", None), ("1/0", None), ("1/-2", None),
         ("1/", None), ("/2", None)],
    )
    def test_tolerance_is_an_exact_fraction(self, text, value):
        # P or P/Q, with P and Q ASCII [0-9]+ read by decimal_int, and Q >= 1
        if value is not None:
            assert cli.tolerance(text) == value
        else:
            with pytest.raises(ValueError) as info:
                cli.tolerance(text)
            assert str(info.value) == f"{text!r} is not {TOLERANCE_GRAMMAR}"

    def test_tolerance_terms_stop_at_the_str_limit(self):
        assert cli.tolerance("1" * 4300 + "/" + "3" * 4300) == Fraction(1, 3)
        with pytest.raises(ValueError, match="^a decimal string of 4301 digits"):
            cli.tolerance("1" * 4301)

    def test_modulus_cap_is_a_quick_usage_error(self, capsys):
        m = oracle._MODULUS_CAP + 1
        start = time.perf_counter()
        code = run(["density", "--q", "2", "--m", str(m), "--poly", "x^2",
                    "--N", "1000"])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: modulus {m} is above the cap 65536\n"

    def test_rejects_base_below_two(self, capsys):
        # a base-1 digit table would never stop growing
        code = run(["density", "--q", "1", "--m", "3", "--poly", "x^2", "--N", "5"])
        assert code == 2 and "base must be >= 2" in capsys.readouterr().err


class TestLemma:
    def test_proof_mode_writes_one_record(self, capsys):
        code, lines = run_lines(capsys, ["lemma", "--q", "2", "--l", "3"])
        assert code == 0
        assert [json.loads(line) for line in lines] == [
            {"schema": "lemma-proof/1", "q": 2, "l": 3, "D": "10368", "ok": True,
             "first_violation": None},
        ]

    def test_proof_mode_fails_with_exit_1(self, capsys, monkeypatch):
        # at D = 4 the test fails at x^3, and the q=2, u=6 box does hold
        # quadruples whose t^3 has a negative x^3 coefficient
        monkeypatch.setattr(construction, "m1_divisor", lambda q, h: 4)
        code, lines = run_lines(
            capsys, ["lemma", "--q", "2", "--l", "3", "--format", "csv"]
        )
        assert code == 1
        assert lines == ["q,l,D,ok,first_violation", "2,3,4,False,3"]

    @pytest.mark.parametrize(
        "old, message",
        [(["--mode", "exhaustive"], "unrecognized arguments: --mode exhaustive"),
         (["--max-per-range", "4"], "unrecognized arguments: --max-per-range 4")],
        ids=["exhaustive", "max-per-range"],
    )
    def test_exhaustive_mode_is_gone(self, capsys, old, message):
        # the proof covers every box the exhaustive walk cut a corner of
        code = run(["lemma", "--q", "2", "--l", "3", *old])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize(
        "extra",
        [["--u", "15"], ["--count", "5"], ["--seed", "5"],
         ["--count", "5", "--seed", "5"]],
        ids=["proof-u", "proof-count", "proof-seed", "random-no-u"],
    )
    def test_options_of_the_other_mode_are_refused(self, capsys, extra):
        # the proof covers every quadruple sampling could draw, so sampling,
        # lemma's other mode, is gone and so are its options
        code = run(["lemma", "--q", "2", "--l", "3"] + extra)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.endswith(f"error: unrecognized arguments: {' '.join(extra)}\n")

    def test_proof_past_the_cap_is_refused(self, capsys, monkeypatch):
        def reached(*args):
            raise AssertionError("work reached")

        monkeypatch.setattr(construction, "m1_divisor", reached)
        monkeypatch.setattr(construction, "poly_compose", reached)
        start = time.perf_counter()
        code = run(["lemma", "--q", "2", "--l", "100"])
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: the proof at q=2, l=100 could pass the 2^39 work cap\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_proof_past_the_cap_is_refused_before_any_output(
        self, capsys, tmp_path, fmt
    ):
        # nothing is written, not even a CSV header, and a file --out names
        # keeps its bytes
        kept = tmp_path / "kept.jsonl"
        kept.write_bytes(b"earlier output\n")
        code = run(["lemma", "--q", "2", "--l", "100", "--format",
                    fmt, "--out", str(kept)])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.startswith("error: the proof at q=2")
        assert kept.read_bytes() == b"earlier output\n"

    def test_values_past_the_str_limit_are_written(self, capsys):
        # D = 3q(6q)^3 at q = 10^1100 has 4403 digits
        q = 10**1100
        code, lines = run_lines(capsys, ["lemma", "--q", str(q), "--l", "3"])
        assert code == 0 and len(lines) == 1
        record = json.loads(lines[0])
        assert len(record["D"]) > 4300
        assert decimal_value(record["D"]) == 3 * q * (6 * q) ** 3
        assert record["ok"] is True


def test_json_records_carry_only_csv_columns(tmp_path, capsys):
    # JSON and CSV output must carry the same facts
    witnesses = tmp_path / "witnesses.jsonl"
    construct = ["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
                 "--limit", "3"]
    assert run(construct + ["--out", str(witnesses)]) == 0
    commands = [
        (construct, cli.WITNESS_FIELDS),
        (["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N", "N0"],
         cli.BOUNDS_FIELDS),
        (["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
          "--in", str(witnesses)], cli.VERIFY_FIELDS),
        (["density", "--q", "2", "--m", "3", "--poly", "x^2", "--N", "100"],
         cli.DENSITY_FIELDS),
        (["lemma", "--q", "2", "--l", "3"], cli.LEMMA_PROOF_FIELDS),
    ]
    for argv, fields in commands:
        _, lines = run_lines(capsys, argv)
        _, csv_lines = run_lines(capsys, argv + ["--format", "csv"])
        header, *rows = csv.reader(csv_lines)
        records = list(map(json.loads, lines))
        assert header == fields and len(rows) == len(records)
        for record, row in zip(records, rows):
            # "schema", then every CSV column in order; null is ""
            assert list(record) == ["schema", *fields]
            assert row == ["" if record[f] is None else str(record[f]) for f in fields]


BAD_POLY = ("argument --poly: cannot parse polynomial '3x+1': use x^H or a "
            "comma-separated coefficient list, highest degree first")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
          "--workers", "0"], "workers must be >= 1"),
        (["density", "--q", "2", "--m", "3", "--poly", "x^2", "--N", "10",
          "--workers", "0"], "workers must be >= 1"),
        (["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
          "--limit", "-1"], "limit must be >= 0"),
        (["density", "--q", "2", "--m", "3", "--poly", "x^2", "--N", "10",
          "--tolerance", "-1"], f"argument --tolerance: '-1' is not {TOLERANCE_GRAMMAR}"),
        (["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", "3x+1"], BAD_POLY),
        (["certify", "--q", "2", "--m", "3", "--poly", "3x+1", "--N", "N0"], BAD_POLY),
        (["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "3x+1",
          "--in", "missing.jsonl"], BAD_POLY),
        (["density", "--q", "2", "--m", "3", "--poly", "3x+1", "--N", "10"], BAD_POLY),
        # str.strip() and \s read these as x^3 and x
        *((["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", poly,
            "--limit", "1"],
           f"argument --poly: cannot parse polynomial {poly!r}: use x^H or a "
           f"comma-separated coefficient list, highest degree first")
          for poly in ("\u3000x^3", "1 , 0", " x^3", "x^3\t")),
    ],
    ids=["construct-workers", "density-workers", "construct-limit",
         "density-tolerance", "construct-poly", "certify-poly", "verify-poly",
         "density-poly", "ideographic-space-poly", "spaced-commas-poly",
         "leading-space-poly", "trailing-tab-poly"],
)
def test_refused_values_leave_the_out_file_alone(tmp_path, capsys, argv, message):
    # a library refusal is main's one "error: ..." line; an option's is
    # argparse's usage text and a "prog command: error: argument ..." line
    kept = tmp_path / "kept.jsonl"
    kept.write_bytes(b"earlier output\n")
    code = run(argv + ["--out", str(kept)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    if message.startswith("argument "):
        assert err.startswith("usage: ")
        assert err.endswith(f"\ndigitwitness {argv[0]}: error: {message}\n")
    else:
        assert err == f"error: {message}\n"
    assert kept.read_bytes() == b"earlier output\n"


# Each command with every option it reads given a valid value
FULL_ARGV = {
    "construct": ["--q", "2", "--m", "3", "--g", "1", "--poly", "x^3", "--u", "15",
                  "--limit", "1", "--workers", "1"],
    "certify": ["--q", "2", "--m", "3", "--poly", "x^3", "--N", "N0"],
    "verify": ["--q", "2", "--m", "3", "--g", "1", "--poly", "x^3", "--in", "w.jsonl"],
    "density": ["--q", "2", "--m", "3", "--poly", "x^2", "--N", "10", "--workers", "1",
                "--tolerance", "1"],
    "lemma": ["--q", "2", "--l", "3"],
}


@pytest.mark.parametrize(
    "literal", ["+5", "1_000", "\u0663"], ids=["plus", "underscore", "arabic-indic"]
)
@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, argv in FULL_ARGV.items()
     for option in argv[::2] if option != "--in"],
    ids=lambda value: value.lstrip("-"),
)
def test_every_integer_reads_ascii_digits_only(capsys, command, option, literal):
    # int() and Fraction() read all three literals; decimal_int, behind every
    # integer the CLI reads, refuses them.  Each option's reader reports the
    # refusal as argparse's, except certify's --N, read in cmd_certify: its
    # grammar has a unary +, so its "+5" is 5, refused as below N0.
    argv = list(FULL_ARGV[command])
    argv[argv.index(option) + 1] = literal
    code = run([command, *argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    if option == "--N" and command == "certify":
        assert err.startswith("error: N=5 is below N0=" if literal == "+5" else
                              f"error: cannot evaluate N expression {literal!r}")
    else:
        expected = {
            "--poly": f"cannot parse polynomial {literal!r}: ",
            "--tolerance": f"{literal!r} is not {TOLERANCE_GRAMMAR}",
        }.get(option, f"a decimal string must be ASCII digits after an optional "
                      f"'-', got {literal!r}")
        assert err.startswith("usage: ")
        assert err.splitlines()[-1].startswith(
            f"digitwitness {command}: error: argument {option}: {expected}"
        )


def test_integer_options_stop_at_the_str_limit(capsys):
    # 4300 characters are read, as int() reads them; one more is refused
    argv = ["construct", "--q", "2", "--m", "3", "--poly", "x^3", "--limit", "1",
            "--g"]
    assert run(argv + ["1" * 4300]) == 0
    capsys.readouterr()
    assert run(argv + ["1" * 4301]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(
        "error: argument --g: a decimal string of 4301 digits is longer than the "
        "4300-digit cap\n"
    )


def test_integer_options_count_digits_after_the_sign(capsys):
    # "-" and 4300 digits is read, as int() and --poly's coefficients read it
    argv = ["construct", "--q", "2", "--m", "3", "--poly", "x^3", "--limit", "1",
            "--g"]
    assert run(argv + ["-" + "1" * 4300]) == 0
    capsys.readouterr()
    assert run(argv + ["-" + "1" * 4301]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(
        "error: argument --g: a decimal string of 4301 digits is longer than the "
        "4300-digit cap\n"
    )


@pytest.mark.parametrize(
    "argv, removed",
    [(["certify", *FULL_ARGV["certify"], "--h", "3"], "--h 3"),
     (["certify", *FULL_ARGV["certify"], "--N-at", "N0"], "--N-at N0"),
     (["lemma", "--q", "2", "--l", "3", "--mode", "proof"], "--mode proof"),
     (["lemma", "--q", "2", "--l", "3", "--u", "15", "--count", "1", "--seed", "1"],
      "--u 15 --count 1 --seed 1")],
    ids=["certify-h", "certify-N-at", "lemma-mode", "lemma-sampling"],
)
def test_second_spellings_are_gone(capsys, argv, removed):
    # certify reads h only from --poly and N only from --N, and lemma only
    # proves; --h is no abbreviation of --help
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.endswith(f"error: unrecognized arguments: {removed}\n")


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_closed_stdout_ends_the_run_quietly(workers):
    # `construct ... | head -1`: the reader closes the pipe after one line,
    # construct exits 1 with nothing on stderr, and at two workers its pool
    # shuts down instead of leaving the run hanging
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(
        None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]
    ))
    main = "import sys; from digitwitness.cli import main; sys.exit(main())"
    argv = ["construct", "--q", "2", "--m", "3", "--g", "0", "--poly", "x^3",
            "--limit", "100000", "--workers", workers]
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-c", main, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first["schema"] == "witness/1"
    assert (code, err) == (1, b"")


def test_csv_on_stdout_is_the_same_at_two_workers():
    # the CSV header is still in stdout's buffer when the workers are forked;
    # a worker that flushed it on its way out would print it twice (with
    # PYTHONUNBUFFERED set, there is no buffer to flush)
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(
        None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]
    ))
    main = "import sys; from digitwitness.cli import main; sys.exit(main())"
    argv = ["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
            "--limit", "600", "--format", "csv", "--workers"]
    outputs = [
        subprocess.run([sys.executable, "-c", main, *argv, workers], env=env,
                       capture_output=True, timeout=60)
        for workers in ("1", "2")
    ]
    assert [(p.returncode, p.stderr) for p in outputs] == [(0, b"")] * 2
    assert outputs[0].stdout.count(b"\n") == 601
    assert outputs[1].stdout == outputs[0].stdout
