"""Finite groups from Cayley tables, their non-commuting graphs, and exact
rainbow-connectivity certificates."""

from .bounds import (DyadicBound, coarse_bound, coarse_bound_holds, failure_bound, mid_bound,
                     threshold_for_k)
from .colorings import (EdgeColoring, InvalidSpec, PartitionSpec, j62_graph_and_coloring,
                        multipartite_two_coloring, random_two_coloring, transfer_coloring)
from .graphs import (Graph, SearchBudgetExceeded, are_isomorphic, complete_graph,
                     complete_multipartite, detect_complete_multipartite, edgeless_graph,
                     graph_from_edges, johnson, lexicographic_product, read_graph_file,
                     vertex_connectivity, write_graph_file)
from .groups import (Group, GroupError, central_product, cyclic, dicyclic, dihedral,
                     direct_product, group_from_cayley_table, load_cayley_table, metacyclic,
                     semidirect_product, write_cayley_table)
from .ncgraph import (AbelianGroup, BoundViolated, NonCommutingGraph,
                      abelian_extension_check, common_neighbor_floor_check,
                      noncommuting_graph, pair_profile)
from .rainbow import (ColoringRejected, FailureWitness, PreconditionKappa,
                      RainbowCertificate, Rc2Certificate, certify_rc2, is_rainbow_k_connected,
                      search_two_coloring)

__version__ = "0.1.0"
