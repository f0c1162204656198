#!/usr/bin/env python3
"""How fast do the residue densities of s_q(p(n)) approach their main term?

Sweeps N over powers of ten and prints the max deviation from Q*(g,d)/m at
each size.  The deviation should shrink steadily; the packaged acceptance
tolerance (0.02 at N = 10^6) sits comfortably inside what this shows.

    python scripts/density_convergence.py --q 2 --m 3 --poly x^2 --max-exp 6
"""

import argparse

from digitwitness.cli import parse_poly
from digitwitness.oracle import density_table


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=2)
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--poly", default="x^2")
    parser.add_argument("--min-exp", type=int, default=2)
    parser.add_argument("--max-exp", type=int, default=6)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    p = parse_poly(args.poly)
    print(f"densities of s_{args.q}({args.poly}(n)) mod {args.m}")
    print(f"{'N':>10}  {'max deviation':>14}  per-residue densities")
    for exp in range(args.min_exp, args.max_exp + 1):
        n_limit = 10**exp
        table = density_table(args.q, args.m, p, n_limit, workers=args.workers)
        densities = "  ".join(f"{float(d):.5f}" for d in table.densities)
        print(f"{n_limit:>10}  {float(table.max_deviation):>14.6f}  {densities}")


if __name__ == "__main__":
    main()
