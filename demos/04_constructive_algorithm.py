"""Producing the floor(n/4) set, not just asserting it exists.

For an eligible graph (connected, subcubic, no induced 6-cycle, not a
catalog graph) the constructive algorithm returns an isolating set of
size at most floor(n/4) in polynomial time, together with a trace of the
case analysis it walked. Certificates are re-validated independently of
the trace.
"""

import random

from p3iso import generators as gen
from p3iso import isolate_p3_subcubic, verify_certificate
from p3iso.constructive import path_cycle_isolating_set

# closed forms for the degree-2 world
cert = path_cycle_isolating_set(13, "cycle")
print("C13 closed-form set (1-based):", [v + 1 for v in cert.set])

# a structured instance: a 7-cycle hanging off a hub forces the deletion
# analysis into its exceptional-component cases
from p3iso.graphcore import Graph

c7 = [(i, i + 1) for i in range(4, 10)] + [(4, 10)]
tail = [(3, 11), (11, 12), (12, 13), (13, 14), (14, 15)]
g = Graph.from_edges(16, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)] + c7 + tail)
cert, trace = isolate_p3_subcubic(g)
print(f"\nhub + pendant C7 (n=16): |D| = {len(cert.set)} <= {g.n // 4}, "
      f"valid = {verify_certificate(g, cert)}")
print("case trace:")
print(trace.to_json_lines())

# random eligible graphs: a failed proof case would raise
# InternalCaseExhausted, so each call must return a set within the bound
rng = random.Random(2026)
sizes = []
for _ in range(50):
    n = rng.randint(16, 60)
    g = gen.random_eligible_graph(n, rng)
    cert, _ = isolate_p3_subcubic(g)
    assert verify_certificate(g, cert) and len(cert.set) <= g.n // 4
    sizes.append((g.n, len(cert.set)))
print("\n50 random eligible graphs, all certificates valid; (n, |D|) sample:",
      sizes[:8])
