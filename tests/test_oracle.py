import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitwitness import oracle
from digitwitness.construction import (
    CongruenceTarget,
    CubicParams,
    Witness,
    admissible_ranges,
    construct_family,
)
from digitwitness.digits import VALUE_BITS_CAP, expand
from digitwitness.intpoly import IntPolynomial, poly_eval
from digitwitness.oracle import (
    DensityTable,
    density_table,
    polynomial_values,
    tally_range,
    verify_witnesses,
)

X = IntPolynomial.monomial(1)
X2 = IntPolynomial.monomial(2)
X3 = IntPolynomial.monomial(3)

# frozen before the construction was built: direct loop over n < 2^20
# tallying s_2(n^3) mod 3
ANCHOR_COUNTS_2_3_CUBE = (349339, 349850, 349387)

polys = st.lists(st.integers(0, 30), min_size=1, max_size=5).map(
    IntPolynomial.from_coeffs
)


class TestPolynomialValues:
    @settings(max_examples=80)
    @given(polys, st.integers(0, 500), st.integers(0, 120))
    def test_matches_horner(self, p, start, span):
        values = list(polynomial_values(p, start, start + span))
        assert values == [poly_eval(p, n) for n in range(start, start + span)]

    def test_empty_range(self):
        assert list(polynomial_values(X3, 10, 10)) == []

    def test_constant_polynomial(self):
        assert list(polynomial_values(IntPolynomial.from_coeffs([7]), 0, 4)) == [7] * 4

    def test_zero_polynomial(self):
        assert list(polynomial_values(IntPolynomial.from_coeffs([]), 0, 3)) == [0] * 3

    def test_seeds_no_more_values_than_the_range_holds(self, monkeypatch):
        # N values of p and d = gcd(m, q-1) for the predictions, not h + 1
        calls = []

        def counted(p, x):
            calls.append(x)
            return poly_eval(p, x)

        monkeypatch.setattr(oracle, "poly_eval", counted)
        table = density_table(2, 3, IntPolynomial.monomial(200), 2)
        assert table.counts == (1, 1, 0) and len(calls) <= 2 + 1


class TestBruteForceCount:
    def test_hand_enumerated_example(self):
        # s_2 of 0,1,2,3 is 0,1,1,2: two even values
        assert density_table(2, 2, X, 4).counts[0] == 2

    def test_modulus_one_counts_everything(self):
        assert density_table(10, 1, X2, 100).counts[0] == 100

    def test_regression_anchor(self):
        assert density_table(2, 3, X3, 2**20).counts == ANCHOR_COUNTS_2_3_CUBE

    def test_additive_over_partition(self):
        n_limit = 5000
        whole = tally_range(2, 3, X3, 0, n_limit)
        parts = [0, 137, 1000, 2500, n_limit]
        summed = [0, 0, 0]
        for lo, hi in zip(parts, parts[1:]):
            for r, c in enumerate(tally_range(2, 3, X3, lo, hi)):
                summed[r] += c
        assert summed == whole

    def test_workers_merge_exactly(self):
        kwargs = dict(q=2, m=3, p=X3, n_limit=20000)
        serial = density_table(**kwargs, workers=1).counts
        assert density_table(**kwargs, workers=4).counts == serial

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            density_table(2, 0, X, 10)
        with pytest.raises(ValueError):
            density_table(2, 2, X, 0)
        # refused by chunked_map, the one worker-count rule
        with pytest.raises(ValueError, match="^workers must be >= 1$"):
            density_table(2, 2, X, 10, workers=0)
        with pytest.raises(ValueError):
            # takes a negative value at n = 0
            density_table(2, 2, IntPolynomial.from_coeffs([-1, 1]), 4)


class TestDensityTable:
    def test_counts_and_densities_normalize(self):
        table = density_table(2, 3, X2, 10000)
        assert sum(table.counts) == 10000
        assert sum(table.densities, Fraction(0)) == 1

    def test_degenerate_single_tally(self):
        table = density_table(2, 3, X2, 1)
        assert table.counts == (1, 0, 0)  # s_2(0) = 0

    def test_base_above_table_cap(self):
        q, n_limit = 2**16 + 1, 3000
        expected = [0, 0]
        for n in range(n_limit):
            expected[sum(expand(n * n, q)) % 2] += 1
        assert density_table(q, 2, X2, n_limit).counts == tuple(expected)

    def test_validation(self):
        table = density_table(2, 3, X2, 100)
        with pytest.raises(ValueError):
            DensityTable(101, table.counts, table.predictions)


class TestPolynomialResidueCount:
    # the table predicts Q*(g,d)/m for residue g, with d = gcd(m, q-1) and
    # Q*(g,d) = #{0 <= n < d : p(n) = g (mod d)}

    def test_single_class(self):
        # d = gcd(3, 1) = 1
        assert density_table(2, 3, X2, 30).predictions == (Fraction(1, 3),) * 3
        assert density_table(2, 5, X3, 30).predictions == (Fraction(1, 5),) * 5

    def test_squares_mod_four(self):
        # d = gcd(4, 4) = 4: squares are 0, 1, 0, 1 mod 4
        table = density_table(5, 4, X2, 100)
        assert table.predictions == tuple(Fraction(c, 4) for c in (2, 2, 0, 0))

    def test_missing_square_class(self):
        # d = gcd(3, 6) = 3: no square is 2 mod 3
        table = density_table(7, 3, X2, 100)
        assert table.predictions == (Fraction(1, 3), Fraction(2, 3), Fraction(0))

    def test_reduces_g(self):
        # d = gcd(8, 4) = 4 < m: residue g is counted as g mod 4
        table = density_table(5, 8, X2, 100)
        assert table.predictions == tuple(Fraction(c, 8) for c in (2, 2, 0, 0) * 2)


class TestComparison:
    def test_base_three_parity_prediction(self):
        # d = gcd(2, 3-1) = 2 and squares hit both parities once
        table = density_table(3, 2, X2, 1000)
        assert table.predictions == (Fraction(1, 2), Fraction(1, 2))
        # s_3(n^2) = n^2 = n (mod 2): the split is exact at even N
        assert table.max_deviation == 0

    def test_trivial_gcd_prediction(self):
        table = density_table(2, 3, X2, 300)
        assert table.predictions == (Fraction(1, 3),) * 3
        expected = tuple(abs(d - Fraction(1, 3)) for d in table.densities)
        assert table.deviations == expected
        assert table.max_deviation == max(expected) > 0


class TestVerifyWitnesses:
    def setup_method(self):
        target = CongruenceTarget(q=2, m=3, g=1)
        self.witnesses = list(construct_family(target, X3, u=15, limit=100))

    def test_family_passes(self):
        assert verify_witnesses(self.witnesses, 2, 3, 1, X3) == {}

    def test_tampered_n_is_reported(self):
        w = self.witnesses[3]
        bad = Witness(w.n + 1, w.k, w.params, w.offset, w.sq_value, w.residue, w.e)
        witnesses = self.witnesses[:3] + [bad]
        failures = verify_witnesses(witnesses, 2, 3, 1, X3)
        assert set(failures) == {3}

    def test_consumes_a_generator_once(self):
        fifth = self.witnesses[5]
        bad = Witness(fifth.n, fifth.k, fifth.params, fifth.offset, fifth.sq_value,
                      2, fifth.e)
        rows = (bad if i == 5 else w for i, w in enumerate(self.witnesses))
        failures = verify_witnesses(rows, 2, 3, 1, X3)
        assert failures == {5: ["declared residue 2 != target 1"]}

    def test_tampered_digit_sum_is_reported(self):
        w = self.witnesses[0]
        bad = Witness(w.n, w.k, w.params, w.offset, 0, w.residue, w.e)
        assert verify_witnesses([bad], 2, 3, 1, X3) != {}

    def test_duplicates_are_reported(self):
        failures = verify_witnesses(
            [self.witnesses[0], self.witnesses[1], self.witnesses[0]], 2, 3, 1, X3
        )
        assert any("duplicate" in message for message in failures[2])

    def test_wrong_target_residue_is_reported(self):
        assert verify_witnesses(self.witnesses[:2], 2, 3, 2, X3) != {}

    @pytest.mark.parametrize("m", [0, -3])
    def test_rejects_nonpositive_modulus(self, m):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            verify_witnesses(self.witnesses, 2, m, 1, X3)

    def test_empty_collection_passes(self):
        assert verify_witnesses([], 2, 3, 0, X3) == {}

    @pytest.mark.parametrize("n, flagged", [(511, False), (512, True)])
    def test_row_size_cap_boundary(self, n, flagged):
        # bits(A) + h*bits(n) = (VALUE_BITS_CAP - 9) + bits(n): at the cap
        # for the 9-bit 511, one past it for the 10-bit 512
        p = IntPolynomial.from_coeffs([0, 1 << (VALUE_BITS_CAP - 10)])
        w = self.witnesses[0]
        row = Witness(n, w.k, w.params, w.offset, w.sq_value, w.residue, w.e)
        problems = verify_witnesses([row], 2, 3, 1, p)[0]
        cap_message = f"p(n) could exceed the {VALUE_BITS_CAP}-bit cap"
        assert (cap_message in problems) == flagged
        assert any("digit sum" in x for x in problems) != flagged


def reference_failures(witnesses, q, m, g, p):
    """verify_witnesses' failures, with duplicates found by a map of every n
    seen: the reference for its chain of rows proved distinct by L4."""
    failures, seen = {}, {}
    for index, w in enumerate(witnesses):
        problems = verify_witnesses([w], q, m, g, p).get(0, [])
        if w.n in seen:
            problems.append(f"duplicate n, first seen at index {seen[w.n]}")
        else:
            seen[w.n] = index
        if problems:
            failures[index] = problems
    return failures


def edited(w, n=None, k=None, e=None, **quadruple):
    """w with the fields named changed; the others, offset and sq kept."""
    fields = {name: getattr(w.params, name) for name in CubicParams.__slots__}
    fields.update(quadruple)
    return Witness(w.n if n is None else n, w.k if k is None else k,
                   CubicParams(**fields), w.offset, w.sq_value, w.residue,
                   w.e if e is None else e)


def rebuilt(w, q, k=None, **quadruple):
    """w with some fields changed and n rebuilt to match them."""
    w = edited(w, k=k, **quadruple)
    x, c = q**w.k, w.params
    return edited(w, n=((c.m3 * x + c.m2) * x - c.m1) * x + c.m0 + w.e)


def mutate(rows, q, rng):
    """One seeded edit of a witness list, in place."""
    i = rng.randrange(len(rows))
    j = rng.randrange(len(rows) + 1)
    w, kind = rows[i], rng.randrange(13)
    c = w.params
    if kind == 0:
        rng.shuffle(rows)
    elif kind == 1:
        rows[i], rows[j - 1] = rows[j - 1], rows[i]
    elif kind == 2 and len(rows) > 1:
        del rows[i]
    elif kind == 3:  # a later copy
        rows.insert(max(i + 1, j), w)
    elif kind == 4:  # n off by one or another row's
        rows[i] = edited(w, n=rng.choice([w.n + 1, w.n - 1, rows[j - 1].n, -w.n]))
    elif kind == 5:
        rows[i] = edited(w, k=rng.choice([w.k + 1, w.k - 1, 0]))
    elif kind == 6:
        rows[i] = edited(w, u=max(1, c.u + rng.choice([-1, 1])))
    elif kind == 7:
        rows[i] = edited(w, e=w.e + rng.choice([-1, 1]))
    elif kind == 8:  # a later copy with one quadruple field edited: same n
        name = rng.choice(["m0", "m1", "m2", "m3"])
        value = max(1, getattr(c, name) + rng.choice([-1, 1]))
        rows.insert(max(i + 1, j), edited(w, **{name: value}))
    elif kind == 9:  # the same n from a quadruple outside the box
        x = q**max(1, w.k)
        alias = rng.choice([dict(m0=c.m0 + x, m1=c.m1 + 1),
                            dict(m1=c.m1 + x, m2=c.m2 + 1)])
        rows.insert(j, edited(w, **alias))
    elif kind == 10:  # a matching row at another k, also past a byte's range
        k = w.k + rng.choice([-1, 1, 2, 140, 300])
        rows.insert(j, rebuilt(w, q, k=max(1, k)))
    elif kind == 11:  # a matching row of another quadruple, in w's place
        name = rng.choice(["m0", "m1", "m2", "m3"])
        value = max(1, getattr(c, name) + rng.choice([-1, 1]))
        rows[i] = rebuilt(w, q, k=max(1, w.k), **{name: value})
    else:
        rows[i] = Witness(w.n, w.k, c, w.offset, w.sq_value + 1, w.residue, w.e)


class TestDuplicatesMatchTheReference:
    CASES = 1300

    # (q, m, p, rows): x^1 at q=2 has a box side of 32, so its family wraps m0
    @pytest.mark.parametrize(
        "q, m, p, size",
        [(2, 3, X3, 30), (3, 5, X3, 30), (2, 5, X, 70), (10, 7, X2, 30)],
        ids=["2-x3", "3-x3", "2-x1", "10-x2"],
    )
    def test_failures_equal_the_reference(self, q, m, p, size):
        rng = random.Random(f"{q}:{m}:{p}")
        g = rng.randrange(m)
        family = list(construct_family(CongruenceTarget(q, m, g), p, limit=size))
        for case in range(self.CASES):
            start = rng.randrange(size)
            rows = family[start : rng.randrange(start + 1, size + 1)]
            for _ in range(rng.randrange(1, 5)):
                mutate(rows, q, rng)
            expected = reference_failures(rows, q, m, g, p)
            assert verify_witnesses(rows, q, m, g, p) == expected, case

    @pytest.mark.parametrize(
        "base, edit",
        [(31, dict(m0=64, k=6)), (32, dict(k=5)), (31, dict(m3=64)),
         (31, dict(m2=65, k=6))],
        ids=["m0-past-the-box", "k-below-u", "m3-past-the-box", "m2-past-the-box"],
    )
    def test_a_matching_row_outside_the_box_stays_loose(self, base, edit):
        # x^1 at q=2, u=6: the box's first run ends at m0 = 63.  A matching
        # row with m0 = 64 = q^k, k = u - 1, m3 = 64 or m2 = 65 = q^k + 1
        # comes next in order, but its n decodes to no chain row, so it and
        # its copies go through the map
        family = list(construct_family(CongruenceTarget(2, 5, 1), X, limit=33))
        assert family[31].params.m0 == 63 and family[32].k > 6
        row = rebuilt(family[base], 2, **edit)
        rows = family[:32] + [row, row, edited(row, m3=row.params.m3 + 1)]
        failures = verify_witnesses(rows, 2, 5, 1, X)
        assert failures == reference_failures(rows, 2, 5, 1, X)
        first = "duplicate n, first seen at index 32"
        assert [failures[i][-1] for i in (33, 34)] == [first, first]

    def test_a_row_far_above_the_chain_is_not_decoded(self, monkeypatch):
        # a 1-Mbit n after rows of 171 bits, and one of the chain's size
        decode, decoded = oracle._l4_decode, []

        def spy(d, *args):
            decoded.append(d.bit_length())
            return decode(d, *args)

        monkeypatch.setattr(oracle, "_l4_decode", spy)
        rows = list(construct_family(CongruenceTarget(2, 3, 1), X3, limit=4))
        rows.append(edited(rows[0], n=rows[0].n << 10**6))
        rows.append(edited(rows[1], m2=rows[1].params.m2 + 1))
        failures = verify_witnesses(rows, 2, 3, 1, X3)
        assert failures == reference_failures(rows, 2, 3, 1, X3)
        assert failures[5][-1] == "duplicate n, first seen at index 1"
        assert decoded == [rows[1].n.bit_length()]


class TestOwnBox:
    """Each row's quadruple must lie in the admissible box of its own u."""

    MESSAGE = "quadruple outside the admissible box at u {}"

    def setup_method(self):
        # x^3 at q=2, u=15: m0, m2, m3 in [2^14, 2^15), m1 in [1, 3]
        target = CongruenceTarget(q=2, m=3, g=1)
        self.family = list(construct_family(target, X3, limit=3))
        assert admissible_ranges(2, 3, 15).m1_max == 3

    def box_problem(self, row, p=X3, q=2):
        message = self.MESSAGE.format(row.params.u)
        return message in verify_witnesses([row], q, 3, 1, p).get(0, [])

    @pytest.mark.parametrize(
        "edit, outside",
        [(dict(m1=3), False), (dict(m1=4), True), (dict(u=14), True),
         (dict(u=16), True)]
        + [({name: value}, outside) for name in ("m0", "m2", "m3")
           for value, outside in ((2**14 - 1, True), (2**14, False),
                                  (2**15 - 1, False), (2**15, True))],
    )
    def test_box_edges(self, edit, outside):
        w = self.family[0]
        # n rebuilt at w's k, so only the box can fail in the provenance
        assert self.box_problem(rebuilt(w, 2, **edit)) == outside

    def test_no_box_below_degree_one(self):
        assert self.box_problem(self.family[0], p=IntPolynomial.from_coeffs([1]))

    def test_a_far_off_u_builds_no_power(self):
        # 2^(10^9) takes seconds; the bit lengths decide first
        start = time.perf_counter()
        assert self.box_problem(edited(self.family[0], u=10**9))
        assert time.perf_counter() - start < 0.5

    def test_a_divisor_past_q_to_the_u_is_not_built(self):
        # at a 4300-digit q and h = 1024, D = h*q*(6q)^h has 14.6 Mbit and
        # takes seconds; q^u = q at u = 1 is built, D only compared by bits
        q = 10**4299 + 7
        row = Witness(5, 1, CubicParams(1, 1, 1, 1, 1), 0, 5, 0, 0)
        start = time.perf_counter()
        assert self.box_problem(row, p=IntPolynomial.monomial(1024), q=q)
        assert time.perf_counter() - start < 0.5

    def test_the_last_box_is_kept(self, monkeypatch):
        # a file of one u pays one q^u: count the powers of q that are built
        powers = []

        class Base(int):
            def __pow__(self, other, *args):
                powers.append(other)
                return int(self) ** other

        rows = list(construct_family(CongruenceTarget(2, 3, 1), X3, limit=50))
        assert verify_witnesses(rows, Base(2), 3, 1, X3) == {}
        assert powers.count(15) == 1
