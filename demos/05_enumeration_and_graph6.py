"""Isomorph-free enumeration and the graph6 wire format.

The generator grows graphs one vertex at a time and keeps a graph exactly
when its newest vertex is the canonical one to delete, so each
isomorphism class appears once. graph6 round-trips are bit-exact, and the
streaming reader pairs each nonblank line's number with its graph or with
the error that line raised, so no malformed line passes unnoticed.
"""

from p3iso import emit_graph6, iter_graph6, parse_graph6
from p3iso.enumeration import EnumSpec, automorphisms, iter_subcubic
from p3iso import generators as gen

counts = {}
for g in iter_subcubic(EnumSpec(7)):
    counts[g.n] = counts.get(g.n, 0) + 1
print("connected subcubic classes by order:", counts)

spec = EnumSpec(7, no_induced_c6=True)
eligible = sum(1 for g in iter_subcubic(spec) if g.n == 7)
print("of the 64 order-7 classes,", eligible, "have no induced 6-cycle")

print("\ngraph6 basics:")
for name, g in [("K3", gen.complete(3)), ("P3", gen.path(3)), ("C11", gen.cycle(11))]:
    line = emit_graph6(g)
    assert parse_graph6(line) == g
    print(f"  {name}: {line}")

print("\nreading a stream with a graph6 header and one damaged line:")
for lineno, item in iter_graph6([">>graph6<<Bw", "Bg", "not-a-graph???????", "?"]):
    print(f"  line {lineno}: {item!r}")

print("\nautomorphism group sizes recovered from the canonical labelings:")
for name, g in [("C7", gen.cycle(7)), ("K4", gen.complete(4)),
                ("G15", gen.catalog_entry("G15").graph)]:
    print(f"  |Aut({name})| = {len(automorphisms(g))}")
