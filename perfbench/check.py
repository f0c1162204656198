"""Output checks for the benchmark, sharing no code with digitwitness.

Everything here is plain ``int`` arithmetic on the records the CLI wrote:
witnesses are rebuilt from their quadruple and ``k`` and their digit sums
recomputed, verify flags are compared with the corruptions the benchmark
injected, and density counts are recounted from scratch.  Each ``check_*``
function returns a list of problems; an empty list means the output passed.

The module imports nothing from ``digitwitness`` on purpose, so a defect in
the program cannot hide behind the same defect in its checker.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import re
from fractions import Fraction

# Record schemas whose bytes are the program's promised output.  Records of
# any other schema (summaries, future telemetry) are left out of the hash.
PRIMARY_SCHEMAS = frozenset({"witness/1", "verify/1", "density/1"})


def digit_sum(value: int, q: int) -> int:
    """Sum of the base-q digits of a nonnegative int."""
    if value < 0:
        raise ValueError(f"expected a nonnegative integer, got {value}")
    if q == 2:
        return value.bit_count()
    digits = 1
    while q ** (digits + 1) < 1 << 62:
        digits += 1
    chunk = q**digits
    total = 0
    while value:
        value, low = divmod(value, chunk)
        while low:
            low, d = divmod(low, q)
            total += d
    return total


def read_records(path: str) -> tuple[list[dict], str]:
    """Parse a JSON-lines output file.

    Returns the records and the SHA-256 of the lines whose schema is in
    PRIMARY_SCHEMAS, hashed as written, so outputs can be compared across
    commits byte for byte.
    """
    sha = hashlib.sha256()
    records = []
    with open(path, "rb") as handle:
        for raw in handle:
            record = json.loads(raw)
            records.append(record)
            if record.get("schema") in PRIMARY_SCHEMAS:
                sha.update(raw)
    return records, sha.hexdigest()


def check_witnesses(
    records: list[dict], *, q: int, m: int, g: int, h: int, count: int, seed: int,
    sample: int = 64,
) -> list[str]:
    """Check `witness/1` rows for the target s_q(n^h) = g (mod m).

    Every row must declare residue g with sq = k*(q-1) + M, a quadruple in
    the admissible box, and an n seen nowhere else.  A seeded sample of rows
    has n rebuilt as m3*X^3 + m2*X^2 - m1*X + m0 + e with X = q^k, and
    s_q(n^h) recomputed.
    """
    rows = [r for r in records if r.get("schema") == "witness/1"]
    problems = []
    if len(rows) != count:
        problems.append(f"expected {count} witnesses, got {len(rows)}")
    m1_scale = h * q * (6 * q) ** h
    seen: set[str] = set()
    for index, row in enumerate(rows):
        try:
            k, sq, offset, u = row["k"], row["sq"], row["M"], row["u"]
            lo, hi = q ** (u - 1), q**u
            if row["residue"] != g or sq % m != g:
                problems.append(f"row {index}: residue is not {g}")
            if sq != k * (q - 1) + offset:
                problems.append(f"row {index}: sq != k*(q-1) + M")
            if not all(lo <= int(row[f]) < hi for f in ("m0", "m2", "m3")):
                problems.append(f"row {index}: m0, m2 or m3 outside [q^(u-1), q^u)")
            m1 = int(row["m1"])
            if m1 < 1 or m1 * m1_scale >= hi:
                problems.append(f"row {index}: m1 outside its admissible range")
            if row["n"] in seen:
                problems.append(f"row {index}: duplicate n")
            seen.add(row["n"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"row {index}: malformed record ({exc!r})")
    rng = random.Random(seed)
    for index in sorted(rng.sample(range(len(rows)), min(sample, len(rows)))):
        row = rows[index]
        try:
            x = q ** row["k"]
            n = (
                int(row["m3"]) * x**3 + int(row["m2"]) * x**2 - int(row["m1"]) * x
                + int(row["m0"]) + row["e"]
            )
            if n != int(row["n"]):
                problems.append(f"row {index}: n does not match its quadruple and k")
            if digit_sum(n**h, q) != row["sq"]:
                problems.append(f"row {index}: s_q(n^h) != sq")
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"row {index}: malformed record ({exc!r})")
    return problems


def corrupt_lines(
    lines: list[str], rng: random.Random, count: int
) -> tuple[list[str], set[int], list[bool]]:
    """Corrupt `count` rows of a witness file: wrong sq, duplicate n, or malformed.

    Returns the new lines, the 1-based line numbers made malformed, and the
    `ok` flag verify should give each well-formed row, in file order.
    """
    targets = rng.sample(range(1, len(lines)), count)
    untouched = sorted(set(range(len(lines))) - set(targets))
    out = list(lines)
    kinds = {}
    for i, line in enumerate(targets):
        kind = ("sq", "dup", "malformed")[i % 3]
        kinds[line] = kind
        if kind == "sq":
            record = json.loads(lines[line])
            record["sq"] += 1
            out[line] = json.dumps(record, separators=(",", ":"))
        elif kind == "dup":
            earlier = bisect.bisect_left(untouched, line)
            out[line] = lines[untouched[rng.randrange(earlier)]]
        else:
            out[line] = lines[line][: len(lines[line]) // 2]
    malformed = {line + 1 for line, kind in kinds.items() if kind == "malformed"}
    expected_ok = [
        line not in kinds for line in range(len(lines)) if kinds.get(line) != "malformed"
    ]
    return out, malformed, expected_ok


_SUMMARY_COUNT = re.compile(r"\b(total|failed|malformed)=(\d+)\b")


def check_verify(
    records: list[dict], malformed: set[int], expected_ok: list[bool]
) -> list[str]:
    """Compare verify's per-row flags and summary counts with the injected faults.

    The free-text `detail` of per-row records is not compared.
    """
    problems = []
    rows = [r for r in records if r.get("schema") == "verify/1"]
    summaries = [r for r in records if r.get("schema") == "verify-summary/1"]
    flagged_lines = {r.get("line") for r in rows if r.get("index") is None}
    if flagged_lines != malformed or any(
        r.get("ok") is not False for r in rows if r.get("index") is None
    ):
        problems.append(
            f"malformed lines reported {sorted(flagged_lines)[:5]}..., "
            f"injected {sorted(malformed)[:5]}..."
        )
    indexed = [r for r in rows if r.get("index") is not None]
    if [r.get("index") for r in indexed] != list(range(len(expected_ok))):
        problems.append("verify rows are not indexed 0..n-1 in order")
    elif [r.get("ok") for r in indexed] != expected_ok:
        wrong = [
            i for i, (r, ok) in enumerate(zip(indexed, expected_ok)) if r.get("ok") != ok
        ]
        problems.append(f"ok flags differ from the injected faults at rows {wrong[:5]}")
    if len(summaries) != 1:
        return problems + [f"expected one verify-summary/1, got {len(summaries)}"]
    summary = summaries[0]
    want_ok = not malformed and all(expected_ok)
    if summary.get("ok") is not want_ok:
        problems.append(f"summary ok is {summary.get('ok')}, expected {want_ok}")
    counts = {key: int(value) for key, value in _SUMMARY_COUNT.findall(str(summary.get("detail")))}
    want = {
        "total": len(expected_ok),
        "failed": expected_ok.count(False),
        "malformed": len(malformed),
    }
    if counts != want:
        problems.append(f"summary counts {counts}, expected {want}")
    return problems


def recount(q: int, m: int, h: int, n_limit: int) -> list[int]:
    """Per-residue counts of s_q(n^h) mod m over [0, n_limit), by direct expansion."""
    counts = [0] * m
    if q == 2:
        for n in range(n_limit):
            counts[(n**h).bit_count() % m] += 1
    else:
        for n in range(n_limit):
            counts[digit_sum(n**h, q) % m] += 1
    return counts


def density_within(counts: list[int], n_limit: int, tolerance: Fraction) -> list[bool]:
    """Whether |count/N - 1/m| <= tolerance per residue.

    The main term is 1/m because every workload has gcd(m, q-1) = 1.
    """
    m = len(counts)
    return [abs(Fraction(c, n_limit) - Fraction(1, m)) <= tolerance for c in counts]


def check_density(
    records: list[dict], *, n_limit: int, expected_counts: list[int],
    expected_within: list[bool],
) -> list[str]:
    """Check `density/1` rows: one per residue, counts summing to N, counts
    equal to an exact recount, and the `within_tolerance` flags."""
    rows = [r for r in records if r.get("schema") == "density/1"]
    if [r.get("residue") for r in rows] != list(range(len(expected_counts))):
        return [f"residues {[r.get('residue') for r in rows]} are not 0..m-1"]
    problems = []
    counts = [r.get("count") for r in rows]
    if sum(counts) != n_limit:
        problems.append(f"counts sum to {sum(counts)}, not N = {n_limit}")
    if counts != expected_counts:
        problems.append(f"counts {counts} differ from the recount {expected_counts}")
    if [r.get("within_tolerance") for r in rows] != expected_within:
        problems.append(f"within_tolerance flags differ from {expected_within}")
    return problems
