"""Command-line surface: construct, certify, verify, density, lemma.

All commands emit machine-readable JSON lines (default) or CSV with fixed
headers, and identical configuration reproduces identical bytes.  Exit codes:
0 success / all checks passed, 1 verification failure, 2 usage or
configuration error.

Witness records use the "witness/1" schema:

    {"schema":"witness/1","n":str,"k":int,"m0":str,"m1":str,"m2":str,
     "m3":str,"u":int,"M":int,"sq":int,"residue":int,"e":int}

with n and the quadruple as decimal strings (they outgrow machine words).
The CSV variant carries the same fields, header
``n,k,m0,m1,m2,m3,u,M,sq,residue,e``.
"""

from __future__ import annotations

import argparse
import ast
import csv
import itertools
import json
import operator
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from typing import IO, Callable, Iterator, Optional

from . import bounds, construction, oracle
from .construction import CongruenceTarget, CubicParams, Witness
from .intpoly import IntPolynomial
from .parallel import chunked_map

WITNESS_FIELDS = ["n", "k", "m0", "m1", "m2", "m3", "u", "M", "sq", "residue", "e"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def parse_poly(text: str) -> IntPolynomial:
    """x^H / x monomial shorthand, or a high-to-low comma coefficient list."""
    s = text.strip()
    if s == "x":
        return IntPolynomial.monomial(1)
    match = re.fullmatch(r"x\^(\d+)", s)
    if match:
        return IntPolynomial.monomial(int(match.group(1)))
    if re.fullmatch(r"-?\d+(\s*,\s*-?\d+)*", s):
        coeffs_high_to_low = [int(tok) for tok in s.split(",")]
        return IntPolynomial.from_coeffs(reversed(coeffs_high_to_low))
    raise ValueError(
        f"cannot parse polynomial {text!r}: use x^H or a comma-separated "
        f"coefficient list, highest degree first"
    )


class _Writer:
    """Streams records as JSON lines or CSV rows with a fixed header."""

    def __init__(self, stream: IO[str], fmt: str, fields: list[str]):
        self.stream = stream
        self.fields = fields
        self._csv = None
        if fmt == "csv":
            self._csv = csv.writer(stream, lineterminator="\n")
            self._csv.writerow(fields)

    def write(self, record: dict) -> None:
        if self._csv is not None:
            self._csv.writerow([record.get(f, "") for f in self.fields])
        else:
            self.stream.write(json.dumps(record, separators=(",", ":")) + "\n")


@contextmanager
def _output(args: argparse.Namespace, fields: list[str]) -> Iterator[_Writer]:
    """A writer on --out, closed on exit, or on stdout when --out is unset."""
    if not args.out:
        yield _Writer(sys.stdout, args.format, fields)
        return
    with open(args.out, "w") as stream:
        yield _Writer(stream, args.format, fields)


def witness_record(w: Witness) -> dict:
    return {
        "schema": "witness/1",
        "n": str(w.n),
        "k": w.k,
        "m0": str(w.params.m0),
        "m1": str(w.params.m1),
        "m2": str(w.params.m2),
        "m3": str(w.params.m3),
        "u": w.params.u,
        "M": w.offset,
        "sq": w.sq_value,
        "residue": w.residue,
        "e": w.e,
    }


def _witness_from_record(record: dict) -> Witness:
    params = CubicParams(
        m0=int(record["m0"]),
        m1=int(record["m1"]),
        m2=int(record["m2"]),
        m3=int(record["m3"]),
        u=int(record["u"]),
    )
    return Witness(
        n=int(record["n"]),
        k=int(record["k"]),
        params=params,
        offset=int(record["M"]),
        sq_value=int(record["sq"]),
        residue=int(record["residue"]),
        e=int(record["e"]),
    )


def read_witness_file(path: str) -> Iterator[tuple[int, Witness | str]]:
    """Parse a construct output file (JSON lines or CSV, auto-detected) lazily.

    Yields (line, Witness) for each witness row and (line, message) for each
    malformed one, in file order.  Lines are numbered from 1 as
    str.splitlines() splits the whole text; blank lines count but yield
    nothing.  A CSV file whose header is wrong yields that one message.
    """
    with open(path, "r") as handle:
        lines = enumerate((line for raw in handle for line in raw.splitlines()), 1)
        body = ((lineno, line) for lineno, line in lines if line.strip())
        first = next(body, None)
        if first is None:
            return
        is_json = first[1].lstrip().startswith("{")
        if is_json:
            body = itertools.chain([first], body)
        else:
            header = next(csv.reader([first[1]]))
            if header != WITNESS_FIELDS:
                yield first[0], f"unexpected CSV header {header}"
                return
        for lineno, line in body:
            try:
                if is_json:
                    record = json.loads(line)
                    if record.get("schema") != "witness/1":
                        raise ValueError(f"unexpected schema {record.get('schema')!r}")
                else:
                    row = next(csv.reader([line]))
                    if len(row) != len(WITNESS_FIELDS):
                        raise ValueError(
                            f"expected {len(WITNESS_FIELDS)} columns, got {len(row)}"
                        )
                    record = dict(zip(WITNESS_FIELDS, row))
                item: Witness | str = _witness_from_record(record)
            except (ValueError, KeyError, TypeError) as exc:
                item = str(exc)
            yield lineno, item


# Witnesses per construct chunk.  Smaller chunks cost measurably more CPU per
# witness at 2 workers; at h=8 one chunk of records is still under 1 MB.
_CONSTRUCT_CHUNK = 256


def _witness_rows(plan, box, start: int, stop: int) -> list[dict]:
    """witness/1 records for the quadruples at indices [start, stop) of box."""
    return [
        witness_record(construction.witness_for(plan, box.params_at(i)))
        for i in range(start, stop)
    ]


def cmd_construct(args: argparse.Namespace) -> int:
    target = CongruenceTarget(q=args.q, m=args.m, g=args.g)
    plan = construction.make_plan(target, args.poly, args.u)
    box = construction.admissible_ranges(target.q, plan.h, plan.u)
    total = box.size if args.limit is None else min(args.limit, box.size)
    rows = partial(_witness_rows, plan, box)
    with _output(args, WITNESS_FIELDS) as writer:
        for chunk in chunked_map(rows, total, args.workers, _CONSTRUCT_CHUNK):
            for record in chunk:
                writer.write(record)
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
    constants = bounds.explicit_constants(args.q, args.m, h)
    if args.n_expr is not None:
        n_limit = _eval_n_expression(args.n_expr, args.q, args.m, h, constants.n0)
    else:
        n_limit = args.n_limit
    report = bounds.certify_lower_bound(args.q, args.m, h, n_limit)
    record = {
        "schema": "bounds/1",
        "q": report.q,
        "m": report.m,
        "h": report.h,
        "u0": report.u0,
        "N0": str(report.n0),
        "C_num": str(report.c.num),
        "C_den": str(report.c.den),
        "C_root": report.c.root,
        "N": str(report.n_limit),
        "u": report.u,
        "guaranteed": str(report.guaranteed),
        "estimate_num": str(report.estimate.numerator),
        "estimate_den": str(report.estimate.denominator),
        "required": str(report.required),
        "verdict": report.verdict,
    }
    with _output(args, BOUNDS_FIELDS) as writer:
        writer.write(record)
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
            writer.write(
                {
                    "schema": "verify/1",
                    "line": lineno,
                    "index": None,
                    "ok": False,
                    "detail": f"malformed row: {message}",
                }
            )
        for index in range(total):
            problems = failures.get(index, [])
            writer.write(
                {
                    "schema": "verify/1",
                    "line": None,
                    "index": index,
                    "ok": not problems,
                    "detail": "; ".join(problems),
                }
            )
        ok = not failures and not malformed
        writer.write(
            {
                "schema": "verify-summary/1",
                "line": None,
                "index": None,
                "ok": ok,
                "detail": (
                    f"total={total} failed={len(failures)} "
                    f"malformed={len(malformed)}"
                ),
            }
        )
    return EXIT_OK if ok else EXIT_FAIL


DENSITY_FIELDS = [
    "residue", "count", "density", "prediction", "deviation", "within_tolerance",
]


def cmd_density(args: argparse.Namespace) -> int:
    table = oracle.density_table(
        args.q, args.m, args.poly, args.n_limit, workers=args.workers
    )
    comparison = oracle.compare_to_main_term(table)
    all_within = True
    with _output(args, DENSITY_FIELDS) as writer:
        for row in comparison.rows:
            within = row.deviation <= args.tolerance
            all_within = all_within and within
            writer.write(
                {
                    "schema": "density/1",
                    "residue": row.residue,
                    "count": row.count,
                    "density": f"{row.density.numerator}/{row.density.denominator}",
                    "prediction": (
                        f"{row.prediction.numerator}/{row.prediction.denominator}"
                    ),
                    "deviation": (
                        f"{row.deviation.numerator}/{row.deviation.denominator}"
                    ),
                    "within_tolerance": within,
                }
            )
    return EXIT_OK if all_within else EXIT_FAIL


LEMMA_FIELDS = [
    "m0", "m1", "m2", "m3", "u", "ok", "first_violation", "total", "passed", "failed",
]

# Refuse unbounded exhaustive runs past this many quadruples.
_EXHAUSTIVE_CAP = 10**7


def _lemma_quadruples(
    args: argparse.Namespace, box: construction.AdmissibleBox
) -> Iterator[CubicParams]:
    if args.mode == "random":
        yield from box.sample(args.count, args.seed)
        return
    per = args.max_per_range
    m_values = range(box.lo, box.hi if per is None else min(box.lo + per, box.hi))
    m1_values = range(1, (box.m1_max if per is None else min(per, box.m1_max)) + 1)
    total = len(m_values) ** 3 * len(m1_values)
    if total > _EXHAUSTIVE_CAP:
        raise ValueError(
            f"exhaustive run would cover {total} quadruples; "
            f"truncate with --max-per-range"
        )
    for m3, m2, m1, m0 in itertools.product(m_values, m_values, m1_values, m_values):
        yield CubicParams(m0=m0, m1=m1, m2=m2, m3=m3, u=box.u)


def cmd_lemma(args: argparse.Namespace) -> int:
    box = construction.admissible_ranges(args.q, args.l, args.u)
    total = passed = 0
    with _output(args, LEMMA_FIELDS) as writer:
        for params in _lemma_quadruples(args, box):
            report = construction.verify_sign_pattern(args.q, args.l, params)
            total += 1
            passed += report.ok
            writer.write(
                {
                    "schema": "lemma/1",
                    "m0": str(params.m0),
                    "m1": str(params.m1),
                    "m2": str(params.m2),
                    "m3": str(params.m3),
                    "u": params.u,
                    "ok": report.ok,
                    "first_violation": report.first_violation,
                }
            )
        writer.write(
            {
                "schema": "lemma-summary/1",
                "m0": "",
                "m1": "",
                "m2": "",
                "m3": "",
                "u": args.u,
                "ok": passed == total,
                "first_violation": None,
                "total": total,
                "passed": passed,
                "failed": total - passed,
            }
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
        type=Fraction,
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
    if getattr(args, "max_per_range", None) is not None and args.max_per_range < 1:
        raise ValueError("max-per-range must be >= 1")
    if args.command == "density" and args.n_limit < 1:
        raise ValueError("N must be >= 1")


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
