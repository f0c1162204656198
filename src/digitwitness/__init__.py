"""Constructive witnesses for digit-sum congruences of polynomial values.

Given a base q and modulus m with gcd(m, q-1) = 1, this package builds
explicit integers n with s_q(p(n)) = g (mod m) for any polynomial p of
degree >= 1 with positive leading coefficient, certifies the explicit
lower bound on how many such n exist below N, and cross-checks everything
against brute-force enumeration.  The root exports the README's library
example; every other name is imported from its module.
"""

from .bounds import certify_lower_bound, explicit_constants
from .construction import CongruenceTarget, construct_family
from .intpoly import IntPolynomial
from .oracle import density_table, verify_witnesses

__version__ = "0.1.0"
