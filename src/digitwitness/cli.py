"""Command-line surface: construct, certify, verify, density, lemma.

All commands emit machine-readable JSON lines (default) or CSV, and
identical configuration reproduces identical bytes.  Exit codes: 0 success /
all checks passed, 1 verification failure or output cut short (the reader
closed stdout, or a worker died), 2 usage or configuration error.  `lemma`
writes the verdict of construction.sign_lemma_proof, the sign lemma's proof.

Options are read by argparse type= readers, so a bad value is a usage error
naming its option (certify's --N, needing N0, is read in cmd_certify); each
reader's ValueError becomes the option's error through `option`.  Every
integer of an option, --poly or a witness row is -?[0-9]+ read by
decimal_int, which states the digit limit: STR_DIGITS digits after the "-",
but more for witness n, the quadruple and --N literals.  Other rules are
kept by the function doing the work; main prints their "error: ...".

Each record's fields and their order are stated once, in a *_FIELDS list:
it is the CSV header, and a JSON record is "schema" followed by those fields
in order.  Every record fills every field of its list.  Witness records
use the "witness/1" schema over WITNESS_FIELDS, with n and the quadruple as
decimal strings (they outgrow machine words); verify reads them back through
the same list.  Every line, the CSV header included, comes from _Record,
which builds one %-format per schema and output format from the field list
and each field's kind, so a worker renders its witness lines itself.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import re
import reprlib
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from functools import partial
from typing import IO, Callable, Iterator, Optional

from . import bounds, construction, oracle
from .construction import CongruenceTarget, CubicParams, Witness
from .digits import STR_DIGITS, decimal_int, decimal_str
from .intpoly import IntPolynomial
from .parallel import WorkerDied, chunked_map

WITNESS_FIELDS = ["n", "k", "m0", "m1", "m2", "m3", "u", "M", "sq", "residue", "e"]
# The fields that may have more than STR_DIGITS digits, which verify reads
# with decimal_int's long default; witness_values writes exactly these
# through decimal_str.
DECIMAL_FIELDS = ("n", "m0", "m1", "m2", "m3")
# A set for verify's test of each cell: the tuple's scan cost 0.5 us per CSV
# row of 11 cells, 12% of reading it (2-vCPU VM, Python 3.11.7)
_LONG_FIELDS = frozenset(DECIMAL_FIELDS)
# A JSON row's values in WITNESS_FIELDS order; a missing field raises the
# KeyError of the first one missing.  0.18 us a row, where a comprehension
# over the keys took 0.45 (2-vCPU VM, Python 3.11.7)
_row_values = operator.itemgetter(*WITNESS_FIELDS)

BOUNDS_FIELDS = [
    "q", "m", "h", "u0", "N0", "C_num", "C_den", "C_root", "N", "u",
    "guaranteed", "estimate_num", "estimate_den", "required", "verdict",
]
VERIFY_FIELDS = ["line", "index", "ok", "detail"]
DENSITY_FIELDS = [
    "residue", "count", "density", "prediction", "deviation", "within_tolerance",
]
LEMMA_PROOF_FIELDS = ["q", "l", "D", "ok", "first_violation"]
# The kind of each field that is not an int, by name, one kind per name in
# every schema: "dec" a str of ASCII digits, "-" and "/" (decimal_str's
# numbers, density's fractions), "bool", "opt" an int or None, "text" any str
_KINDS = {
    **dict.fromkeys(DECIMAL_FIELDS + (
        "N0", "C_num", "C_den", "N", "guaranteed", "estimate_num", "estimate_den",
        "required", "D", "density", "prediction", "deviation"), "dec"),
    **dict.fromkeys(("ok", "verdict", "within_tolerance"), "bool"),
    **dict.fromkeys(("line", "index", "first_violation"), "opt"),
    "detail": "text",
}

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


# Largest --poly degree, checked before any coefficient is built.  density
# seeds its difference table with min(h + 1, N) values of p, about h^2
# additions, and each later value costs h more (x^1024 at N = 1025 takes
# 0.7-1.3 s, 2-vCPU VM, Python 3.11.7); construct and certify refuse every
# degree above 86.
_DEGREE_CAP = 1 << 10


def parse_poly(text: str) -> IntPolynomial:
    """x^H / x monomial shorthand, or a high-to-low comma coefficient list,
    in ASCII with no whitespace.  The exponent and each coefficient are
    -?[0-9]+ of at most STR_DIGITS digits, read by decimal_int; the degree
    is checked against _DEGREE_CAP before any coefficient is read."""
    match = re.fullmatch(r"x(?:\^([0-9]+))?", text)
    if match:
        degree = decimal_int(match.group(1) or "1", "the exponent", STR_DIGITS)
    elif re.fullmatch(r"-?[0-9]+(,-?[0-9]+)*", text):
        degree = text.count(",")
    else:
        raise ValueError(
            f"cannot parse polynomial {reprlib.repr(text)}: use x^H or a "
            f"comma-separated coefficient list, highest degree first"
        )
    if degree > _DEGREE_CAP:
        raise ValueError(
            f"polynomial degree {reprlib.repr(degree)} is above the cap {_DEGREE_CAP}"
        )
    if match:
        return IntPolynomial.monomial(degree)
    return IntPolynomial.from_coeffs(reversed(
        [decimal_int(c, "a coefficient", STR_DIGITS) for c in text.split(",")]
    ))


def option(reader: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse type= reader over `reader`, whose ValueError is reported
    as the option's error, with the same text."""
    def read(text: str) -> object:
        try:
            return reader(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return read


# The readers of an integer option and of --poly, also for scripts/
integer = option(partial(decimal_int, limit=STR_DIGITS))
polynomial = option(parse_poly)


# How each output format writes each kind: int and dec values go into a
# line's %-format as they are, the others are encoded first.  A JSON text is
# json.dumps's (non-ASCII escaped, as JSONEncoder's default); a CSV text is
# quoted, '"' doubled, where it holds ",", '"' or a line break (QUOTE_MINIMAL)
_SPECS = {"json": {"int": "%d", "dec": '"%s"'}, "csv": {"int": "%d", "dec": "%s"}}
_ENCODERS = {
    "json": {"bool": lambda v: "true" if v else "false",
             "opt": lambda v: "null" if v is None else "%d" % v, "text": json.dumps},
    "csv": {"bool": str, "opt": lambda v: "" if v is None else "%d" % v,
            "text": lambda v: ('"%s"' % v.replace('"', '""')
                               if re.search('[,"\r\n]', v) else v)},
}


class _Record:
    """The lines of one schema's records in one output format, built once
    from its field list and each field's kind.

    `line` is one %-format for a whole record over the values of the fields
    not in `fixed`, in field order; render(*values) fills it, encoding each
    value of a bool, opt or text field first.  A fixed field's value is
    written into `line`.  `header` is the field names as a CSV line, or "".
    """

    def __init__(self, fmt: str, schema: str, fields: list[str], **fixed):
        specs, encoders = _SPECS[fmt], _ENCODERS[fmt]
        cells, self._encoders = [], []
        for field in fields:
            kind = _KINDS.get(field, "int")
            spec, encode = specs.get(kind, "%s"), encoders.get(kind)
            if field in fixed:
                value = fixed[field]
                spec = (spec % (encode(value) if encode else value)).replace("%", "%%")
            else:
                self._encoders.append(encode)
            cells.append(f'"{field}":{spec}' if fmt == "json" else spec)
        if fmt == "json":
            self.line = '{"schema":"%s",%s}\n' % (schema, ",".join(cells))
            self.header = ""
        else:
            self.line = ",".join(cells) + "\n"
            self.header = ",".join(map(encoders["text"], fields)) + "\n"

    def render(self, *values) -> str:
        encoded = (e(v) if e else v for e, v in zip(self._encoders, values))
        return self.line % tuple(encoded)


@contextmanager
def _output(args: argparse.Namespace, header: str) -> Iterator[IO[str]]:
    """--out, closed on exit, or stdout when it is unset; `header` first."""
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as stream:
        stream.write(header)
        yield stream


def witness_values(w: Witness) -> tuple:
    """The witness/1 values of w, in WITNESS_FIELDS order, DECIMAL_FIELDS
    as decimal strings."""
    p = w.params
    # one call per value: unpacking a map here costs about 1 us per witness
    return (decimal_str(w.n), w.k, decimal_str(p.m0), decimal_str(p.m1),
            decimal_str(p.m2), decimal_str(p.m3), p.u, w.offset, w.sq_value,
            w.residue, w.e)


def _witness_from_values(values: list | tuple) -> Witness:
    ints = []
    for field, value in zip(WITNESS_FIELDS, values):
        if isinstance(value, str):
            value = (decimal_int(value, field) if field in _LONG_FIELDS
                     else decimal_int(value, field, STR_DIGITS))
        # int() would read a JSON true as 1 and 15.9 as 15
        elif isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{field} must be an integer, got {type(value).__name__}")
        ints.append(value)
    n, k, m0, m1, m2, m3, u, offset, sq, residue, e = ints
    return Witness(n, k, CubicParams(m0, m1, m2, m3, u), offset, sq, residue, e)


def _header_mismatch(header: list[str]) -> str:
    """Why a CSV header is not WITNESS_FIELDS: its first cell that differs,
    cut short, or else its column count."""
    for column, (cell, field) in enumerate(zip(header, WITNESS_FIELDS), 1):
        if cell != field:
            return (f"unexpected CSV header: column {column} is "
                    f"{reprlib.repr(cell)}, expected {field!r}")
    return (f"unexpected CSV header of {len(header)} columns, "
            f"expected {len(WITNESS_FIELDS)}")


def read_witness_file(path: str) -> Iterator[tuple[int, Witness | str]]:
    """Parse a construct output file (JSON lines or CSV, auto-detected) lazily.

    Yields (line, Witness) for each witness row and (line, message) for each
    malformed one, in file order.  The file is read as UTF-8; a line with a
    byte that is not UTF-8 (escaped to U+DC80-U+DCFF) is malformed, one with
    U+FFFD is not.  Lines are numbered from 1 as str.splitlines() splits the
    whole text; blank lines count but yield nothing.  The first other line
    sets the format; a CSV file whose header is wrong yields that one message.
    A CSV line is split on its commas, so a cell may pass the 131072
    characters the csv module reads (an n of 435 kbit), and a line with
    quotes, which construct never writes, is malformed.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        lines = enumerate((line for raw in handle for line in raw.splitlines()), 1)
        is_json = None
        for lineno, line in lines:
            if not line.strip():
                continue
            try:
                if not line.isascii() and re.search("[\udc80-\udcff]", line):
                    raise ValueError("line is not valid UTF-8")
                if is_json is None:
                    is_json = line.lstrip().startswith("{")
                    if not is_json:
                        header = line.split(",")
                        if header != WITNESS_FIELDS:
                            yield lineno, _header_mismatch(header)
                            return
                        continue
                if is_json:
                    # a deeply nested line raises RecursionError: malformed too
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        kind = type(record).__name__
                        raise ValueError(f"expected a JSON object, got {kind}")
                    if record.get("schema") != "witness/1":
                        shown = reprlib.repr(record.get("schema"))
                        raise ValueError(f"unexpected schema {shown}")
                    values = _row_values(record)
                else:
                    values = line.split(",")
                    if len(values) != len(WITNESS_FIELDS):
                        raise ValueError(
                            f"expected {len(WITNESS_FIELDS)} columns, got {len(values)}"
                        )
                item: Witness | str = _witness_from_values(values)
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                item = str(exc)
            yield lineno, item


# Witnesses per construct chunk.  A chunk costs its worker one pipe message: at
# 2 workers, construct-cubic's median wall time at 128 and at 512 stayed
# inside 256's quartiles in two sweeps (2-vCPU VM, Python 3.11.7).  A worker
# holds one chunk: at h=8 (x^8 at q=3, m=5) its text is 122 kB of JSON lines,
# 99 kB of CSV.
_CONSTRUCT_CHUNK = 256


def _witness_lines(line: str, plan, start: int, stop: int) -> str:
    """The witness/1 lines, in the %-format `line`, for the quadruples at
    indices [start, stop) of plan.box."""
    return "".join([
        line % witness_values(construction.witness_for(plan, params, composed))
        for params, composed in construction.compositions(plan, start, stop)
    ])


def cmd_construct(args: argparse.Namespace) -> int:
    target = CongruenceTarget(q=args.q, m=args.m, g=args.g)
    plan = construction.make_plan(target, args.poly, args.u)
    total = construction.family_size(plan, args.limit)
    record = _Record(args.format, "witness/1", WITNESS_FIELDS)
    lines = partial(_witness_lines, record.line, plan)
    # chunked_map refuses workers < 1 at the call, before --out is opened
    chunks = chunked_map(lines, total, args.workers, _CONSTRUCT_CHUNK)
    with _output(args, record.header) as out:
        for text in chunks:
            out.write(text)
    return EXIT_OK


# An --N expression's tokens: ASCII literals, the name N0 and single
# characters; whitespace only separates them.
_N_TOKEN = re.compile(r"[0-9]+|N0|\S")
# How tightly each operator binds, a sign binding at 2, and what it does
_N_OPERATORS = {"+": (1, int.__add__), "-": (1, int.__sub__), "*": (2, int.__mul__),
                "^": (3, pow)}


def _eval_n_expression(expr: str, q: int, m: int, h: int, n0: int) -> int:
    """Evaluate an --N expression over N0, q, m, h (e.g. N0*q^(3h+1)).

    Literals are [0-9]+, read by decimal_int, and ^ groups to the right.  A
    "*" may be left out after a literal or ")" before a name or "(", and
    after ")" before a literal.  A power that could pass bounds.N_BITS_CAP
    is refused before it is built, and so is every value that does pass it.
    """
    names = {"N0": n0, "q": q, "m": m, "h": h}
    tokens, at = _N_TOKEN.findall(expr) + [""], 0  # "" ends the expression

    def literal(token: str) -> bool:
        return token.isascii() and token.isdigit()

    def unexpected(token: str) -> ValueError:
        return ValueError(f"unexpected {reprlib.repr(token) if token else 'end'}")

    def read(floor: int) -> int:
        """The value ahead, up to the first operator binding at most floor."""
        nonlocal at
        token, at = tokens[at], at + 1
        if token == "(":
            value = read(0)
            if tokens[at] != ")":
                raise unexpected(tokens[at])
            at += 1
        elif token in ("+", "-"):
            value = read(2) if token == "+" else -read(2)
        elif token in names or literal(token):
            value = names[token] if token in names else decimal_int(token)
        else:
            raise unexpected(token)
        while value.bit_length() <= bounds.N_BITS_CAP:
            last, op = tokens[at - 1], tokens[at]
            implied = (literal(last) or last == ")") and (
                op in names or op == "(" or last == ")" and literal(op)
            )
            binding, apply = _N_OPERATORS.get("*" if implied else op, (0, None))
            if binding <= floor:
                return value
            at += not implied
            right = read(binding - (op == "^"))
            if op == "^" and right < 0:
                raise ValueError("negative exponent")
            # a power of a b-bit base has more than (b - 1) * exponent bits
            if op == "^" and (value.bit_length() - 1) * right >= bounds.N_BITS_CAP:
                raise ValueError(f"a power exceeds {bounds.N_BITS_CAP} bits")
            value = apply(value, right)
        raise ValueError(f"a value exceeds {bounds.N_BITS_CAP} bits")

    shown = reprlib.repr(expr)
    try:
        value = read(0)
        if tokens[at]:
            raise unexpected(tokens[at])
    except (RecursionError, ValueError) as exc:
        raise ValueError(f"cannot evaluate N expression {shown}: {exc}") from None
    if value < 1:
        raise ValueError(f"N expression {shown} must yield a positive integer")
    return value


def cmd_certify(args: argparse.Namespace) -> int:
    h = args.poly.degree
    if args.poly.coeffs != (0,) * h + (1,):
        raise ValueError(
            f"certification covers monomials x^h only, got {args.poly}; "
            f"use `construct` for general polynomials"
        )
    constants = bounds.explicit_constants(args.q, args.m, h)
    n_limit = _eval_n_expression(args.n_expr, args.q, args.m, h, constants.n0)
    report = bounds.certify_lower_bound(constants, n_limit)
    record = _Record(args.format, "bounds/1", BOUNDS_FIELDS)
    with _output(args, record.header) as out:
        # C = c_den^(-1/(3h+1)) fills the C_num, C_den and C_root columns
        out.write(record.render(
            args.q, args.m, h, constants.u0, decimal_str(constants.n0),
            "1", decimal_str(constants.c_den), 3 * h + 1,
            decimal_str(n_limit), report.u,
            *map(decimal_str, (report.guaranteed, report.estimate.numerator,
                               report.estimate.denominator, report.required)),
            report.verdict,
        ))
    return EXIT_OK if report.verdict else EXIT_FAIL


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
    row = _Record(args.format, "verify/1", VERIFY_FIELDS)
    # a passing row is one %-format over its index: verify-cubic's traced cli.write_us
    # read 0.5 us per row, 3.2 when each was encoded (2-vCPU VM, Python 3.11.7)
    passed = _Record(args.format, "verify/1", VERIFY_FIELDS,
                     line=None, ok=True, detail="").line
    with _output(args, row.header) as out:
        for lineno, message in malformed:
            out.write(row.render(lineno, None, False, f"malformed row: {message}"))
        for index in range(total):
            if index in failures:
                out.write(row.render(None, index, False, "; ".join(failures[index])))
            else:
                out.write(passed % index)
        ok = not failures and not malformed
        out.write(_Record(args.format, "verify-summary/1", VERIFY_FIELDS).render(
            None, None, ok,
            f"total={total} failed={len(failures)} malformed={len(malformed)}",
        ))
    return EXIT_OK if ok else EXIT_FAIL


def tolerance(text: str) -> Fraction:
    """--tolerance as an exact Fraction, P or P/Q: P and Q are ASCII [0-9]+
    of at most STR_DIGITS digits, read by decimal_int, and Q >= 1."""
    match = re.fullmatch(r"([0-9]+)(?:/([0-9]+))?", text)
    if match:
        p, q = (decimal_int(term, limit=STR_DIGITS) for term in match.groups("1"))
        if q >= 1:
            return Fraction(p, q)
    grammar = f"P or P/Q, P and Q ASCII [0-9]+ of at most {STR_DIGITS} digits, Q >= 1"
    raise ValueError(f"{reprlib.repr(text)} is not {grammar}")


def cmd_density(args: argparse.Namespace) -> int:
    table = oracle.density_table(
        args.q, args.m, args.poly, args.n_limit, workers=args.workers
    )
    deviations = table.deviations
    fractions = zip(table.densities, table.predictions, deviations)
    record = _Record(args.format, "density/1", DENSITY_FIELDS)
    with _output(args, record.header) as out:
        for residue, row in enumerate(fractions):
            out.write(record.render(
                residue, table.counts[residue],
                *(f"{x.numerator}/{x.denominator}" for x in row),
                deviations[residue] <= args.tolerance,
            ))
    return EXIT_OK if table.max_deviation <= args.tolerance else EXIT_FAIL


def cmd_lemma(args: argparse.Namespace) -> int:
    first = construction.sign_lemma_proof(args.q, args.l)
    d = decimal_str(construction.m1_divisor(args.q, args.l))
    record = _Record(args.format, "lemma-proof/1", LEMMA_PROOF_FIELDS)
    with _output(args, record.header) as out:
        out.write(record.render(args.q, args.l, d, first is None, first))
    return EXIT_OK if first is None else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitwitness",
        allow_abbrev=False,
        description=(
            "Construct integers n with s_q(p(n)) = g (mod m), certify the "
            "explicit count lower bound, and cross-check by brute force."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable, help: str, ints: str, workers=False):
        """A subcommand whose options named in `ints` are required integers."""
        # no abbreviations: each option has one spelling (--h is not --help)
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        for option in ints.split():
            p.add_argument(f"--{option}", type=integer, required=True)
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", metavar="PATH", help="output path (default stdout)")
        if workers:
            p.add_argument("--workers", type=integer, default=1)
        return p

    c = command("construct", cmd_construct, "emit a stream of witnesses", "q m g",
                workers=True)
    c.add_argument("--poly", type=polynomial, required=True,
                   help="x^H or high-to-low coefficients")
    c.add_argument("--u", type=integer, help="scale override (default: minimum)")
    c.add_argument("--limit", type=integer, help="stop after this many witnesses")

    y = command("certify", cmd_certify, "certify the explicit lower bound", "q m")
    y.add_argument("--poly", type=polynomial, required=True,
                   help="x^H (general p is rejected)")
    y.add_argument("--N", dest="n_expr", metavar="N", required=True,
                   help="expression over N0, q, m, h, e.g. N0*q^(3h+1)")

    v = command("verify", cmd_verify, "recheck a witness file from scratch", "q m g")
    v.add_argument("--poly", type=polynomial, required=True)
    v.add_argument("--in", dest="input_path", required=True, metavar="PATH")

    d = command("density", cmd_density, "brute-force residue densities", "q m",
                workers=True)
    d.add_argument("--poly", type=polynomial, required=True)
    d.add_argument("--N", dest="n_limit", type=integer, required=True)
    d.add_argument("--tolerance", type=option(tolerance), default=Fraction(1, 50),
                   help="max |density - prediction|, P or P/Q (default 1/50)")

    command("lemma", cmd_lemma, "prove the sign lemma for t^l at every scale", "q l")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.run(args)
    except (construction.ConsistencyError, WorkerDied) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:
        # output cut short; on devnull, the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
