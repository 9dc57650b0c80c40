"""The exact identities tying every cost of a run to one 2x2 product.

A digit string acts on rationals as the composition h of its step maps.
All four value-type costs fall out of h alone: the archimedean and dyadic
sizes of h'(0), the determinant, and the dyadic gcd weight at h(0).  The
continuant route reads the same numbers off the matrix product directly;
cost_vector computes both and insists they agree, so here we just exercise
it and display the pieces.
"""
import random
from fractions import Fraction

from clgcd.algorithm import cl_run, continuants, cost_vector
from clgcd.dyadic import dyadic_norm, dyadic_valuation, g2, lft_apply, \
    lft_derivative_at

rng = random.Random(7)

for trial in range(4):
    q = rng.randrange(3, 10 ** 6)
    p = rng.randrange(1, q)
    run = cl_run(p, q)
    cost = cost_vector(run.exponents)

    m = continuants(run.exponents).matrix
    d = 1 << cost.shifts                     # |det| of the product
    h0 = lft_apply(m, Fraction(0))
    dh0 = lft_derivative_at(m, Fraction(0))

    print(f"({p}, {q}): digits {run.exponents}")
    print(f"  h(0) = {h0}, h'(0) = {dh0}, det weight d = 2^{cost.shifts}")
    assert Fraction(cost.Q) ** 2 == d / abs(dh0)
    assert Fraction(cost.R) ** 2 == 1 / (abs(dh0)
                                         * Fraction(2) ** dyadic_norm(dh0)
                                         * g2(h0))
    print(f"  Q^2 = d/|h'(0)|          -> Q = {cost.Q}")
    print(f"  R^2 = 1/(|h'|.|h'|_2.G2) -> R = {cost.R}")
    print(f"  val(gcd) = {cost.g_exp}, val(Q) = {cost.q_exp}, "
          f"difference = val(R) = {dyadic_valuation(cost.R)}")
    as_floats = cost.as_dict()
    print("  cost vector: "
          + ", ".join(f"{k} = {v:.4f}" for k, v in as_floats.items()))
    print()
