"""Command-line surface: construct, certify, verify, density, lemma.

All commands emit machine-readable JSON lines (default) or CSV, and
identical configuration reproduces identical bytes.  Exit codes: 0 success /
all checks passed, 1 verification failure, 2 usage or configuration error.

Each record's fields and their order are stated once, in a *_FIELDS list:
it is the CSV header, and a JSON record is "schema" followed by those fields
in order.  A record that fills only the leading fields (lemma/1) omits the
rest from its JSON object and leaves their CSV cells empty.  Witness records
use the "witness/1" schema over WITNESS_FIELDS, with n and the quadruple as
decimal strings (they outgrow machine words); verify reads them back through
the same list.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import operator
import re
import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from functools import partial
from typing import IO, Callable, Iterator, Optional

from . import bounds, construction, oracle
from .construction import CongruenceTarget, CubicParams, Witness
from .digits import STR_DIGITS, decimal_int, decimal_str
from .intpoly import IntPolynomial
from .parallel import chunked_map

WITNESS_FIELDS = ["n", "k", "m0", "m1", "m2", "m3", "u", "M", "sq", "residue", "e"]
# The fields that may be longer than STR_DIGITS characters, which verify
# reads with decimal_int; witness_values writes exactly these through
# decimal_str.
DECIMAL_FIELDS = ("n", "m0", "m1", "m2", "m3")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


# Largest --poly degree, checked before any coefficient is built.  The
# density tally starts from h + 1 values of p whatever N is (x^4000 took over
# a minute at N = 2), and construct and certify refuse every degree above 86.
_DEGREE_CAP = 1 << 10


def parse_poly(text: str) -> IntPolynomial:
    """x^H / x monomial shorthand, or a high-to-low comma coefficient list."""
    s = text.strip()
    if s == "x":
        return IntPolynomial.monomial(1)
    match = re.fullmatch(r"x\^0*(\d+)", s)
    if match:
        exponent = match.group(1)
        if len(exponent) > len(str(_DEGREE_CAP)):
            raise ValueError(
                f"polynomial degree of {len(exponent)} digits is above the cap "
                f"{_DEGREE_CAP}"
            )
        degree = int(exponent)
    elif re.fullmatch(r"-?\d+(\s*,\s*-?\d+)*", s):
        degree = s.count(",")
    else:
        raise ValueError(
            f"cannot parse polynomial {text!r}: use x^H or a comma-separated "
            f"coefficient list, highest degree first"
        )
    if degree > _DEGREE_CAP:
        raise ValueError(f"polynomial degree {degree} is above the cap {_DEGREE_CAP}")
    if match:
        return IntPolynomial.monomial(degree)
    tokens = s.split(",")
    if max(len(tok.strip().lstrip("-")) for tok in tokens) > STR_DIGITS:
        raise ValueError(
            f"a coefficient is longer than the {STR_DIGITS}-digit limit"
        )
    return IntPolynomial.from_coeffs(reversed([int(tok) for tok in tokens]))


class _Writer:
    """Streams records as JSON lines or CSV rows; `fields` is the CSV header.

    A record's values fill the leading fields in order.  Its JSON object is
    {"schema": ..., field: value, ...} over the fields it fills; its CSV row
    pads the rest with empty cells (None is also an empty cell).
    """

    def __init__(self, stream: IO[str], fmt: str, fields: list[str]):
        self.stream = stream
        self.fields = fields
        self._csv = None
        if fmt == "csv":
            self._csv = csv.writer(stream, lineterminator="\n")
            self._csv.writerow(fields)

    def write(self, schema: str, *values) -> None:
        if self._csv is not None:
            self._csv.writerow(values + ("",) * (len(self.fields) - len(values)))
        else:
            record = {"schema": schema, **dict(zip(self.fields, values))}
            self.stream.write(json.dumps(record, separators=(",", ":")) + "\n")


@contextmanager
def _output(args: argparse.Namespace, fields: list[str]) -> Iterator[_Writer]:
    """A writer on --out, closed on exit, or on stdout when --out is unset."""
    if not args.out:
        yield _Writer(sys.stdout, args.format, fields)
        return
    with open(args.out, "w") as stream:
        yield _Writer(stream, args.format, fields)


def witness_values(w: Witness) -> tuple:
    """The witness/1 values of w, in WITNESS_FIELDS order, DECIMAL_FIELDS
    as decimal strings."""
    p = w.params
    # one call per value: unpacking a map here costs about 1 us per witness
    return (decimal_str(w.n), w.k, decimal_str(p.m0), decimal_str(p.m1),
            decimal_str(p.m2), decimal_str(p.m3), p.u, w.offset, w.sq_value,
            w.residue, w.e)


def _witness_from_values(values: list) -> Witness:
    ints = []
    for field, value in zip(WITNESS_FIELDS, values):
        if isinstance(value, str):
            if len(value) > STR_DIGITS and field not in DECIMAL_FIELDS:
                raise ValueError(f"{field} is longer than {STR_DIGITS} characters")
            value = decimal_int(value)
        # int() would read a JSON true as 1 and 15.9 as 15
        elif isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{field} must be an integer, got {type(value).__name__}")
        ints.append(value)
    n, k, m0, m1, m2, m3, u, offset, sq, residue, e = ints
    return Witness(n, k, CubicParams(m0, m1, m2, m3, u), offset, sq, residue, e)


def read_witness_file(path: str) -> Iterator[tuple[int, Witness | str]]:
    """Parse a construct output file (JSON lines or CSV, auto-detected) lazily.

    Yields (line, Witness) for each witness row and (line, message) for each
    malformed one, in file order.  The file is read as UTF-8, and a line
    that is not UTF-8 is malformed.  Lines are numbered from 1 as
    str.splitlines() splits the whole text; blank lines count but yield
    nothing.  The first other line sets the format; a CSV file whose header
    is wrong yields that one message.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        lines = enumerate((line for raw in handle for line in raw.splitlines()), 1)
        is_json = None
        for lineno, line in lines:
            if not line.strip():
                continue
            try:
                if "\ufffd" in line:
                    raise ValueError("line is not valid UTF-8")
                if is_json is None:
                    is_json = line.lstrip().startswith("{")
                    if not is_json:
                        header = _csv_cells(line)
                        if header != WITNESS_FIELDS:
                            yield lineno, f"unexpected CSV header {header}"
                            return
                        continue
                if is_json:
                    # a deeply nested line raises RecursionError: malformed too
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        kind = type(record).__name__
                        raise ValueError(f"expected a JSON object, got {kind}")
                    if record.get("schema") != "witness/1":
                        raise ValueError(f"unexpected schema {record.get('schema')!r}")
                    values = [record[f] for f in WITNESS_FIELDS]
                else:
                    values = _csv_cells(line)
                    if len(values) != len(WITNESS_FIELDS):
                        raise ValueError(
                            f"expected {len(WITNESS_FIELDS)} columns, got {len(values)}"
                        )
                item: Witness | str = _witness_from_values(values)
            except (ValueError, KeyError, TypeError, RecursionError, csv.Error) as exc:
                item = str(exc)
            yield lineno, item


def _csv_cells(line: str) -> list[str]:
    """The cells of one CSV line.  The csv module refuses a cell of more than
    131072 characters (an n of 435 kbit), so a line without quotes, which is
    every line construct writes, is split on its commas as csv would split it.
    """
    if '"' in line:
        return next(csv.reader([line]))
    return line.split(",")


# Witnesses per construct chunk.  Smaller chunks cost measurably more CPU per
# witness at 2 workers; at h=8 one chunk of records is still under 1 MB.
_CONSTRUCT_CHUNK = 256


def _witness_rows(plan, start: int, stop: int) -> list[tuple]:
    """witness/1 values for the quadruples at indices [start, stop) of plan.box."""
    return [
        witness_values(construction.witness_for(plan, params, composed))
        for params, composed in construction.compositions(plan, start, stop)
    ]


def cmd_construct(args: argparse.Namespace) -> int:
    target = CongruenceTarget(q=args.q, m=args.m, g=args.g)
    plan = construction.make_plan(target, args.poly, args.u)
    size = plan.box.size
    total = size if args.limit is None else min(args.limit, size)
    rows = partial(_witness_rows, plan)
    with _output(args, WITNESS_FIELDS) as writer:
        for chunk in chunked_map(rows, total, args.workers, _CONSTRUCT_CHUNK):
            for values in chunk:
                writer.write("witness/1", *values)
    return EXIT_OK


_N_EXPR_TOKENS = re.compile(r"[Nqmh0-9+\-*^() ]+\Z")

BOUNDS_FIELDS = [
    "q", "m", "h", "u0", "N0", "C_num", "C_den", "C_root", "N", "u",
    "guaranteed", "estimate_num", "estimate_den", "required", "verdict",
]


# Largest --N-at value, and any value met on the way, in bits.  Certifying an
# N of 2^16 bits takes about half a second; 2^20 bits takes minutes.
_N_BITS_CAP = 1 << 16

_N_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Pow: operator.pow,
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
}


def _n_value(node: ast.AST, names: dict[str, int]) -> int:
    """Value of a parsed --N-at expression: ints, names, + - * ** only."""
    op = _N_OPERATORS.get(type(getattr(node, "op", None)))
    if isinstance(node, ast.Constant) and type(node.value) is int:
        value = node.value
    elif isinstance(node, ast.Name) and node.id in names:
        value = names[node.id]
    elif isinstance(node, ast.UnaryOp) and op is not None:
        value = op(_n_value(node.operand, names))
    elif isinstance(node, ast.BinOp) and op is not None:
        left, right = _n_value(node.left, names), _n_value(node.right, names)
        if op is operator.pow and right < 0:
            raise ValueError(f"negative exponent {right}")
        # a power of a b-bit base has more than (b - 1) * exponent bits
        if op is operator.pow and (left.bit_length() - 1) * right >= _N_BITS_CAP:
            raise ValueError(f"a power exceeds {_N_BITS_CAP} bits")
        value = op(left, right)
    else:
        raise ValueError(f"unsupported term {ast.unparse(node)!r}")
    if value.bit_length() > _N_BITS_CAP:
        raise ValueError(f"a value exceeds {_N_BITS_CAP} bits")
    return value


def _eval_n_expression(expr: str, q: int, m: int, h: int, n0: int) -> int:
    """Evaluate an --N-at expression over N0, q, m, h (e.g. N0*q^(3h+1))."""
    if not _N_EXPR_TOKENS.match(expr):
        raise ValueError(f"unsupported characters in N expression {expr!r}")
    normalized = expr.replace("^", "**")
    normalized = re.sub(r"(\d)\s*([Nqmh(])", r"\1*\2", normalized)
    normalized = re.sub(r"\)\s*(?=[Nqmh0-9(])", ")*", normalized)
    names = {"N0": n0, "q": q, "m": m, "h": h}
    try:
        value = _n_value(ast.parse(normalized, mode="eval").body, names)
    except (SyntaxError, RecursionError, ValueError) as exc:
        raise ValueError(f"cannot evaluate N expression {expr!r}: {exc}") from None
    if value < 1:
        raise ValueError(f"N expression {expr!r} must yield a positive integer")
    return value


def cmd_certify(args: argparse.Namespace) -> int:
    h = args.h
    if h is None:
        p = args.poly
        if p.degree < 1 or p.coeffs != (0,) * p.degree + (1,):
            raise ValueError(
                f"certification covers monomials x^h only, got {p}; "
                f"use `construct` for general polynomials"
            )
        h = p.degree
    if h < 1:
        raise ValueError(f"need h >= 1, got h={h}")
    # N0 = q^(3(delta+m)) * (2qD)^(3h+1) with delta >= 2h and 2qD > 8^h has
    # more bits than this bound; past the cap no N that --N or --N-at
    # accepts reaches it, so it is not built
    bits = 3 * (args.q.bit_length() - 1) * (2 * h + args.m) + 3 * h * (3 * h + 1)
    if bits >= _N_BITS_CAP:
        raise ValueError(
            f"N0 at q={args.q}, m={args.m}, h={h} is above the {_N_BITS_CAP}-bit "
            f"cap on N, so every accepted N is below N0"
        )
    constants = bounds.explicit_constants(args.q, args.m, h)
    if args.n_expr is not None:
        n_limit = _eval_n_expression(args.n_expr, args.q, args.m, h, constants.n0)
    else:
        n_limit = args.n_limit
    report = bounds.certify_lower_bound(constants, n_limit)
    with _output(args, BOUNDS_FIELDS) as writer:
        # C = c_den^(-1/(3h+1)) fills the C_num, C_den and C_root columns
        writer.write(
            "bounds/1", args.q, args.m, h, constants.u0, decimal_str(constants.n0),
            "1", decimal_str(constants.c_den), 3 * h + 1,
            decimal_str(n_limit), report.u,
            *map(decimal_str, (report.guaranteed, report.estimate.numerator,
                               report.estimate.denominator, report.required)),
            report.verdict,
        )
    return EXIT_OK if report.verdict else EXIT_FAIL


VERIFY_FIELDS = ["line", "index", "ok", "detail"]


def cmd_verify(args: argparse.Namespace) -> int:
    malformed: list[tuple[int, str]] = []
    total = 0

    def witnesses() -> Iterator[Witness]:
        nonlocal total
        for lineno, item in read_witness_file(args.input_path):
            if isinstance(item, Witness):
                total += 1
                yield item
            else:
                malformed.append((lineno, item))

    failures = oracle.verify_witnesses(witnesses(), args.q, args.m, args.g, args.poly)
    if not total and not malformed:
        raise ValueError(f"no witness rows in {args.input_path}")
    with _output(args, VERIFY_FIELDS) as writer:
        for lineno, message in malformed:
            writer.write("verify/1", lineno, None, False, f"malformed row: {message}")
        for index in range(total):
            problems = failures.get(index, [])
            writer.write("verify/1", None, index, not problems, "; ".join(problems))
        ok = not failures and not malformed
        writer.write(
            "verify-summary/1", None, None, ok,
            f"total={total} failed={len(failures)} malformed={len(malformed)}",
        )
    return EXIT_OK if ok else EXIT_FAIL


# Fraction("1e999999999999") builds 10**999999999999 and never returns, so a
# --tolerance exponent may have at most this many digits (leading zeros aside).
_TOLERANCE_EXPONENT_DIGITS = 4


def parse_tolerance(text: str) -> Fraction:
    """--tolerance as an exact Fraction: 1/50, 0.02 or 2e-2."""
    exponent = re.search(r"e[-+]?[0_]*([\d_]*)", text, re.IGNORECASE)
    digits = exponent.group(1).replace("_", "") if exponent else ""
    if len(digits) > _TOLERANCE_EXPONENT_DIGITS:
        raise argparse.ArgumentTypeError(
            f"exponent of {text!r} has more than {_TOLERANCE_EXPONENT_DIGITS} digits"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


DENSITY_FIELDS = [
    "residue", "count", "density", "prediction", "deviation", "within_tolerance",
]


def cmd_density(args: argparse.Namespace) -> int:
    table = oracle.density_table(
        args.q, args.m, args.poly, args.n_limit, workers=args.workers
    )
    deviations = table.deviations
    fractions = zip(table.densities, table.predictions, deviations)
    with _output(args, DENSITY_FIELDS) as writer:
        for residue, row in enumerate(fractions):
            writer.write(
                "density/1", residue, table.counts[residue],
                *(f"{x.numerator}/{x.denominator}" for x in row),
                deviations[residue] <= args.tolerance,
            )
    return EXIT_OK if table.max_deviation <= args.tolerance else EXIT_FAIL


LEMMA_FIELDS = [
    "m0", "m1", "m2", "m3", "u", "ok", "first_violation", "total", "passed", "failed",
]

# Refuse unbounded exhaustive runs past this many quadruples.
_EXHAUSTIVE_CAP = 10**7


def cmd_lemma(args: argparse.Namespace) -> int:
    box = construction.admissible_ranges(args.q, args.l, args.u)
    if args.mode == "random":
        quadruples = box.sample(args.count, args.seed)
    else:
        # only the grid is cut: the check's bound (4q^u)^l reads the whole box
        per = args.max_per_range or box.size
        grid = replace(box, hi=min(box.lo + per, box.hi), m1_max=min(per, box.m1_max))
        if grid.size > _EXHAUSTIVE_CAP:
            raise ValueError(
                f"exhaustive run would cover {grid.size} quadruples; "
                f"truncate with --max-per-range"
            )
        quadruples = map(grid.params_at, range(grid.size))
    total = passed = 0
    with _output(args, LEMMA_FIELDS) as writer:
        for params in quadruples:
            first = construction.verify_sign_pattern(box, args.l, params)
            total += 1
            passed += first is None
            writer.write(
                "lemma/1",
                *map(decimal_str, (params.m0, params.m1, params.m2, params.m3)),
                params.u, first is None, first,
            )
        writer.write(
            "lemma-summary/1", "", "", "", "", args.u, passed == total, None,
            total, passed, total - passed,
        )
    return EXIT_OK if passed == total else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitwitness",
        description=(
            "Construct integers n with s_q(p(n)) = g (mod m), certify the "
            "explicit count lower bound, and cross-check by brute force."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser,
        run: Callable[[argparse.Namespace], int],
        workers: bool = False,
    ):
        p.set_defaults(run=run)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", metavar="PATH", help="output path (default stdout)")
        if workers:
            p.add_argument("--workers", type=int, default=1)

    c = sub.add_parser("construct", help="emit a stream of witnesses")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--g", type=int, required=True)
    c.add_argument("--poly", required=True, help="x^H or high-to-low coefficients")
    c.add_argument("--u", type=int, help="scale override (default: minimum scale)")
    c.add_argument("--limit", type=int, help="stop after this many witnesses")
    add_common(c, cmd_construct, workers=True)

    y = sub.add_parser("certify", help="certify the explicit lower bound")
    y.add_argument("--q", type=int, required=True)
    y.add_argument("--m", type=int, required=True)
    deg = y.add_mutually_exclusive_group(required=True)
    deg.add_argument("--h", type=int, help="monomial degree")
    deg.add_argument("--poly", help="monomial as x^H (general p is rejected)")
    n_group = y.add_mutually_exclusive_group(required=True)
    n_group.add_argument("--N", dest="n_limit", type=int)
    n_group.add_argument(
        "--N-at", dest="n_expr", help="expression over N0, q, m, h, e.g. N0*q^(3h+1)"
    )
    add_common(y, cmd_certify)

    v = sub.add_parser("verify", help="recheck a witness file from scratch")
    v.add_argument("--q", type=int, required=True)
    v.add_argument("--m", type=int, required=True)
    v.add_argument("--g", type=int, required=True)
    v.add_argument("--poly", required=True)
    v.add_argument("--in", dest="input_path", required=True, metavar="PATH")
    add_common(v, cmd_verify)

    d = sub.add_parser("density", help="brute-force residue densities")
    d.add_argument("--q", type=int, required=True)
    d.add_argument("--m", type=int, required=True)
    d.add_argument("--poly", required=True)
    d.add_argument("--N", dest="n_limit", type=int, required=True)
    d.add_argument(
        "--tolerance",
        type=parse_tolerance,
        default=Fraction(1, 50),
        help="max |density - prediction| (exact, default 0.02)",
    )
    add_common(d, cmd_density, workers=True)

    le = sub.add_parser("lemma", help="certify sign patterns over quadruple grids")
    le.add_argument("--q", type=int, required=True)
    le.add_argument("--l", type=int, required=True, help="power of the cubic")
    le.add_argument("--u", type=int, required=True)
    le.add_argument("--mode", choices=["exhaustive", "random"], required=True)
    le.add_argument("--count", type=int, help="sample size (random mode)")
    le.add_argument("--seed", type=int, help="generator seed (random mode)")
    le.add_argument(
        "--max-per-range",
        type=int,
        help="truncate each parameter range to its first K values (exhaustive mode)",
    )
    add_common(le, cmd_lemma)
    return parser


def _validate(args: argparse.Namespace) -> None:
    """Reject values argparse lets through and parse --poly in place."""
    if getattr(args, "poly", None) is not None:
        args.poly = parse_poly(args.poly)
    if getattr(args, "tolerance", 0) < 0:
        raise ValueError("tolerance must be nonnegative")
    if getattr(args, "workers", 1) < 1:
        raise ValueError("workers must be >= 1")
    if getattr(args, "limit", None) is not None and args.limit < 0:
        raise ValueError("limit must be >= 0")
    if args.command == "lemma" and args.mode == "random":
        if args.seed is None or args.count is None:
            raise ValueError("random mode requires --seed and --count")
        if args.count < 1:
            raise ValueError("count must be >= 1")
        if args.max_per_range is not None:
            raise ValueError("--max-per-range applies to exhaustive mode only")
    elif args.command == "lemma" and (args.seed, args.count) != (None, None):
        raise ValueError("--count and --seed apply to random mode only")
    if getattr(args, "max_per_range", None) is not None and args.max_per_range < 1:
        raise ValueError("max-per-range must be >= 1")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        _validate(args)
        return args.run(args)
    except construction.ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
