"""Exact isolation numbers with re-checkable certificates.

A set D is P3-isolating when G - N[D] contains no 3-vertex path, so the
residual edges form a matching; the solver finds a minimum D by
iterative-deepening hitting-set search and returns it as a certificate
that can be re-validated independently.
"""

from p3iso import is_isolating, isolation_number
from p3iso import generators as gen

c6 = gen.cycle(6)
cert = isolation_number(c6)
print(f"C6: iota = {cert.value}, minimum set (1-based) = "
      f"{[v + 1 for v in cert.set]}")
print("  re-check:", is_isolating(c6, cert.set))

# Budgeted mode answers the predicate "iota <= k" without insisting on the
# exact value; exceeding the budget is a result, not an error.
c7 = gen.cycle(7)
budgeted = isolation_number(c7, budget=1)
print(f"C7 within budget 1? exact={budgeted.exact}, reported value ="
      f" {budgeted.value} (meaning iota > 1)")

# The isolation number is additive over components.
two_cycles = gen.disjoint_union(gen.cycle(7), gen.cycle(7))
print("iota(C7 + C7) =", isolation_number(two_cycles).value,
      "(2 per component)")

# The spine construction attains floor(n/4) exactly.
for n in (8, 12, 16, 20):
    b = gen.construction_B_p3(n)
    print(f"iota(B_{n}) = {isolation_number(b).value} = floor({n}/4)")
