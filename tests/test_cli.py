import json
import tracemalloc

import pytest

from digitwitness import cli, construction
from digitwitness.construction import ConsistencyError
from digitwitness.intpoly import IntPolynomial

WITNESS_KEYS = [
    "schema", "n", "k", "m0", "m1", "m2", "m3", "u", "M", "sq", "residue", "e",
]


def run(argv):
    return cli.main(argv)


def run_lines(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, [line for line in out.splitlines() if line]


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
        assert run(argv + [str(small)]) == 0  # builds the digit-sum table
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

    def edited_row_records(self, tmp_path, capsys, field, value, traced=False):
        """Verify records after setting `field` of the second of three rows."""
        path = self.construct_file(tmp_path, limit=3)
        argv = ["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
                "--in", str(path)]
        assert run(argv) == 0  # builds the digit-sum table before any tracing
        capsys.readouterr()
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record[field] = value
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
        detail, peak = self.edited_row_records(tmp_path, capsys, "k", k, True)
        assert f"k {k} cannot rebuild n from its quadruple" in detail
        assert "n does not match" not in detail
        assert peak < 1 << 20

    def test_negative_polynomial_value_is_a_row_failure(self, tmp_path, capsys):
        detail, _ = self.edited_row_records(tmp_path, capsys, "n", "-5")
        assert "p(n) = -125 is negative" in detail
        assert "digit sum" not in detail

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
            capsys, ["certify", "--q", "2", "--m", "3", "--h", "3", "--N-at", "N0"]
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
            ["certify", "--q", "2", "--m", "3", "--h", "3", "--N-at",
             "N0*q^(3h+1)"],
        )
        assert code == 0
        assert json.loads(lines[0])["u"] == 16

    def test_explicit_decimal_n(self, capsys):
        n0 = 2**27 * 41472**10
        code, lines = run_lines(
            capsys, ["certify", "--q", "2", "--m", "3", "--h", "3", "--N", str(n0)]
        )
        assert code == 0 and json.loads(lines[0])["verdict"] is True

    def test_monomial_poly_accepted(self, capsys):
        code, lines = run_lines(
            capsys,
            ["certify", "--q", "2", "--m", "3", "--poly", "x^3", "--N-at", "N0"],
        )
        assert code == 0 and json.loads(lines[0])["h"] == 3

    def test_general_poly_rejected(self, capsys):
        code = run(
            ["certify", "--q", "2", "--m", "3", "--poly", "1,0,-2,0", "--N-at", "N0"]
        )
        err = capsys.readouterr().err
        assert code == 2 and "monomial" in err

    def test_n_below_n0_rejected(self, capsys):
        code = run(["certify", "--q", "2", "--m", "3", "--h", "3", "--N-at", "N0-1"])
        err = capsys.readouterr().err
        assert code == 2 and "below N0" in err

    def test_csv_format(self, capsys):
        code, lines = run_lines(
            capsys,
            ["certify", "--q", "2", "--m", "3", "--h", "3", "--N-at", "N0",
             "--format", "csv"],
        )
        assert code == 0
        assert lines[0].startswith("q,m,h,u0,N0,")


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
        "expr", ["9^9^9^9", "2^-1", "N0^N0", "N0*(q+1", "2^65536", "q(3)"]
    )
    def test_unsafe_expression_rejected(self, capsys, expr):
        code = run(["certify", "--q", "2", "--m", "3", "--h", "3", "--N-at", expr])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot evaluate N expression {expr!r}")


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

    def test_rejects_nonpositive_n(self, capsys):
        code = run(["density", "--q", "2", "--m", "3", "--poly", "x^2", "--N", "0"])
        capsys.readouterr()
        assert code == 2

    def test_rejects_base_below_two(self, capsys):
        # a base-1 digit table would never stop growing
        code = run(["density", "--q", "1", "--m", "3", "--poly", "x^2", "--N", "5"])
        assert code == 2 and "base must be >= 2" in capsys.readouterr().err


class TestLemma:
    def test_random_mode_requires_seed(self, capsys):
        code = run(
            ["lemma", "--q", "2", "--l", "3", "--u", "15", "--mode", "random",
             "--count", "5"]
        )
        err = capsys.readouterr().err
        assert code == 2 and "--seed" in err

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_random_mode_rejects_nonpositive_count(self, capsys, count):
        code, lines = run_lines(
            capsys,
            ["lemma", "--q", "2", "--l", "3", "--u", "15", "--mode", "random",
             "--count", count, "--seed", "42"],
        )
        assert code == 2 and lines == []

    def test_random_mode_all_pass(self, capsys):
        code, lines = run_lines(
            capsys,
            ["lemma", "--q", "2", "--l", "3", "--u", "15", "--mode", "random",
             "--count", "20", "--seed", "42"],
        )
        assert code == 0
        summary = json.loads(lines[-1])
        assert summary["total"] == 20 and summary["failed"] == 0

    def test_random_mode_is_reproducible(self, tmp_path):
        args = ["lemma", "--q", "2", "--l", "3", "--u", "15", "--mode", "random",
                "--count", "10", "--seed", "7"]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_exhaustive_truncated_box(self, capsys):
        code, lines = run_lines(
            capsys,
            ["lemma", "--q", "2", "--l", "3", "--u", "15", "--mode", "exhaustive",
             "--max-per-range", "4"],
        )
        assert code == 0
        summary = json.loads(lines[-1])
        assert summary["total"] == 4**3 * 3  # m1 range holds only 3 values

    @pytest.mark.parametrize("per", ["0", "-2"])
    def test_exhaustive_rejects_nonpositive_max_per_range(self, capsys, per):
        code = run(["lemma", "--q", "2", "--l", "3", "--u", "15", "--mode",
                    "exhaustive", "--max-per-range", per])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: max-per-range must be >= 1\n"

    def test_unbounded_exhaustive_run_is_refused(self, capsys):
        code = run(["lemma", "--q", "2", "--l", "3", "--u", "15", "--mode",
                    "exhaustive"])
        err = capsys.readouterr().err
        assert code == 2 and "--max-per-range" in err


def test_json_records_carry_only_csv_columns(tmp_path, capsys):
    # JSON and CSV output must carry the same facts
    witnesses = tmp_path / "witnesses.jsonl"
    construct = ["construct", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
                 "--limit", "3"]
    assert run(construct + ["--out", str(witnesses)]) == 0
    commands = [
        (construct, cli.WITNESS_FIELDS),
        (["certify", "--q", "2", "--m", "3", "--h", "3", "--N-at", "N0"],
         cli.BOUNDS_FIELDS),
        (["verify", "--q", "2", "--m", "3", "--g", "1", "--poly", "x^3",
          "--in", str(witnesses)], cli.VERIFY_FIELDS),
        (["density", "--q", "2", "--m", "3", "--poly", "x^2", "--N", "100"],
         cli.DENSITY_FIELDS),
        (["lemma", "--q", "2", "--l", "3", "--u", "15", "--mode", "random",
          "--count", "3", "--seed", "1"], cli.LEMMA_FIELDS),
    ]
    extra = {}
    for argv, fields in commands:
        _, lines = run_lines(capsys, argv)
        for record in map(json.loads, lines):
            keys = set(record) - {"schema"} - set(fields)
            if keys:
                extra[record["schema"]] = sorted(keys)
    assert extra == {}


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()
