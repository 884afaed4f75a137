"""The certificate recheck, the package's one test of whether D isolates G.

It shares no code with the search that produced D: it imports only
``graphcore`` and has its own 3-path test, a vertex of G - N[D] with two
neighbors there (the "certifying algorithms" pattern of McConnell,
Mehlhorn, Naeher and Schweitzer, Comput. Sci. Rev. 5(2), 2011).
"""

from __future__ import annotations

from .graphcore import Graph, bit_indices, closed_mask


def is_isolating(g: Graph, vertices) -> bool:
    """True iff G - N[D] contains no 3-path, for D the given vertices. A
    vertex outside 0..n-1 raises ValueError."""
    d_mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
        d_mask |= 1 << v
    free = g.full_mask() & ~closed_mask(g, d_mask)
    for v in bit_indices(free):
        if (g.rows[v] & free).bit_count() > 1:
            return False
    return True


def verify_certificate(g: Graph, cert) -> bool:
    """Independent recheck of a ``solver.Certificate``: its set isolates g
    and meets the claimed size. Only the set is trusted, never a trace. A
    certificate for a graph of another order, or whose set holds anything
    but an int in 0..n-1 (a bool is not one) or one vertex twice, fails."""
    vs = cert.set
    if (cert.graph_order != g.n or len(set(vs)) != len(vs)
            or not all(type(v) is int and 0 <= v < g.n for v in vs)):
        return False
    return is_isolating(g, vs) and len(vs) <= cert.value
