"""Walk one run of the shift-and-subtract division step by step.

Shows the per-step table for (31, 75) under both termination conventions,
re-evaluates the digit string back to 31/75, and checks the terminal
bookkeeping: the final shifted value times the continuant gcd is exactly
2^S, the accumulated determinant.
"""
from fractions import Fraction

from clgcd.algorithm import cf_eval, cl_run, continuants

p, q = 31, 75

for convention in ("greedy", "canonical"):
    run = cl_run(p, q, convention=convention)
    print(f"--- {convention} run on ({p}, {q}) ---")
    print(f"{'i':>2} {'a':>3} {'shifted':>8} {'remainder':>10}")
    for row in run.table_rows():
        a = "-" if row.exponent is None else row.exponent
        print(f"{row.index:>2} {a:>3} {row.shifted:>8} {row.remainder:>10}")
    print(f"digits   = {','.join(map(str, run.exponents))}")
    print(f"K = {run.steps}, S = {run.shifts}, terminal = {run.terminal}, "
          f"odd gcd = {run.odd_gcd}")
    if run.convention == "canonical":
        print("final step rewritten (a) -> (a-1, 0)")

    value = cf_eval(run.exponents)
    assert value == Fraction(p, q)
    print(f"re-evaluated digit string: {value}")

    cp = continuants(run.exponents)
    print(f"continuants: P = {cp.P}, Q = {cp.Q}, g = {cp.g}, R = {cp.R}")
    assert run.terminal[1] * cp.g == 1 << run.shifts
    print(f"terminal x g = {run.terminal[1]} x {cp.g} = 2^{run.shifts}")
    print()

print("both conventions leave (P, Q, g, R) alone; only the tail digits,")
print("K, S and the terminal pair move:")
for convention in ("greedy", "canonical"):
    run = cl_run(p, q, convention=convention)
    cp = continuants(run.exponents)
    print(f"  {convention:>9}: digits {run.exponents}, "
          f"(P, Q, g, R) = {(cp.P, cp.Q, cp.g, cp.R)}")
