"""3-path isolation for graphs.

An exact P3-isolation-number solver with re-checkable certificates, the
12-graph exceptional catalog, the floor(n/4) isolating-set construction
for connected subcubic graphs without induced 6-cycles, isomorph-free
enumeration of small subcubic graphs, and a verification harness tying
them together (CLI: ``p3iso``).
"""

from .graphcore import Graph, delete_vertices, distance, is_connected
from .patterns import (P3, catalog_match, contains_copy, has_induced_cycle,
                       is_isomorphic)
from .solver import (Certificate, is_isolating, isolation_number,
                     isolation_number_additive)
from .generators import (BadOrder, CatalogEntry, CatalogSelfCheckFailed,
                         catalog, catalog_entry, complete, construction_B_p3,
                         cycle, path, random_eligible_graph,
                         random_subcubic_connected)
from .graph_io import (emit_edge_list, emit_graph6, iter_graph6,
                       parse_edge_list, parse_graph6)
from .constructive import (CaseTrace, PreconditionViolated,
                           isolate_p3_subcubic, path_cycle_isolating_set,
                           verify_certificate)

__version__ = "0.1.0"
