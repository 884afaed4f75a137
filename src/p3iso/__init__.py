"""3-path isolation for graphs.

An exact P3-isolation-number solver with re-checkable certificates, the
12-graph exceptional catalog, the floor(n/4) isolating-set construction
for connected subcubic graphs without induced 6-cycles, isomorph-free
enumeration of small subcubic graphs, and a verification harness tying
them together (CLI: ``p3iso``).

``import p3iso`` loads ``graphcore``, ``check`` (the certificate recheck),
``patterns``, ``solver`` and ``generators``, whose catalog self-check runs
at import. The re-exports of ``graph_io`` and ``constructive`` load their
submodule on first use (PEP 562); ``enumeration``, ``verify`` and ``cli``
load only when imported.
"""

from .graphcore import Graph, delete_vertices, distance, is_connected
from .check import is_isolating, verify_certificate
from .patterns import (P3, catalog_match, contains_copy, has_induced_cycle,
                       is_isomorphic)
from .solver import Certificate, isolation_number
from .generators import (BadOrder, CatalogEntry, CatalogSelfCheckFailed,
                         catalog, catalog_entry, complete, construction_B_p3,
                         cycle, path, random_eligible_graph,
                         random_subcubic_connected)

_LAZY = {
    **dict.fromkeys(("emit_edge_list", "emit_graph6", "iter_graph6",
                     "parse_edge_list", "parse_graph6"), "graph_io"),
    **dict.fromkeys(("CaseTrace", "PreconditionViolated", "isolate_p3_subcubic",
                     "path_cycle_isolating_set"), "constructive"),
}

__all__ = [
    "Graph", "delete_vertices", "distance", "is_connected",
    "P3", "catalog_match", "contains_copy", "has_induced_cycle", "is_isomorphic",
    "Certificate", "is_isolating", "isolation_number", "verify_certificate",
    "BadOrder", "CatalogEntry", "CatalogSelfCheckFailed", "catalog",
    "catalog_entry", "complete", "construction_B_p3", "cycle", "path",
    "random_eligible_graph", "random_subcubic_connected",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
