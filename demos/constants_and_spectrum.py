"""Closed-form constants next to their spectral rederivation.

The dominant eigenvalue of the weighted transfer operator equals 1 at the
fixed point (t, v) = (1, 0); its first derivatives there are the two base
constants.  First-order perturbation of the collocation matrix, with its
left and right dominant eigenvectors, recovers both to ~1e-13 on a 48-point
grid, with nothing shared between the two computations beyond arithmetic.
"""
from clgcd.constants import m_table
from clgcd.spectral import solve_operator, taylor_estimates

table = m_table()
print("closed forms:")
print(f"  D  = {table.D:.10f}   (per-bit shift cost)")
print(f"  E  = {table.E:.10f}   (denominator growth)")
print(f"  A  = {table.A:.10f}   (= E - D)")
print(f"  B* = {table.B_conj:.10f}   (= D - log 2, conjectured dyadic rate)")
print(f"  H* = {table.H_conj:.10f}   (= A - B*)")
print(f"  2/H* = {table.two_over_H:.10f}   (steps per bit)")
print()

pair = solve_operator(t=1.0, v=0.0, n=48)
print(f"lambda(1, 0) = {pair.eigenvalue:.12f}  "
      f"(residual {pair.residual:.2e})")
print()

est = taylor_estimates(n=48)
print("eigenvalue derivatives at the fixed point:")
print(f"  -d lambda/dt = {est.entropy_slope:.9f}   vs A = {table.A:.9f}  "
      f"(diff {est.entropy_slope - table.A:+.2e})")
print(f"   d lambda/dv = {est.shift_slope:.9f}   vs D = {table.D:.9f}  "
      f"(diff {est.shift_slope - table.D:+.2e})")
print()

print("the eigenvalue moves the right way off the fixed point:")
for t, v in ((0.9, 0.0), (1.1, 0.0), (1.0, -0.1), (1.0, 0.1)):
    lam = solve_operator(t=t, v=v, n=32).eigenvalue
    print(f"  lambda({t}, {v:+}) = {lam:.6f}")
