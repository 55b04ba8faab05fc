"""Spanning subdivisions of regular patterns in dense host graphs.

Library + CLI for constructively embedding a spanning subdivision of an
n-vertex d-regular pattern into a host on N vertices, C*d*n <= N < (C+1)*d*n,
with minimum degree at least (1+eps)*N/2, as a Las Vegas pipeline whose
output is an independently verified certificate.
"""

from .certificate import (SubdivisionCertificate, certificate_from_json,
                          certificate_to_json, read_certificate,
                          write_certificate)
from .embedder import (EmbedConfig, EmbedReport, Template, TemplateCheck,
                       build_template, check_template, embed_subdivision)
from .errors import GenerationError, PartitionError
from .generators import (HostSpec, complete_graph, gen_dirac_host,
                         gen_random_regular, gen_two_clique_extremal)
from .graph import (Graph, degree_into, format_edge_list, induced, min_degree,
                    parse_edge_list, read_edge_list, regular_degree, to_dot,
                    write_edge_list)
from .hampath import brute_force_hamilton_path, hamilton_path_between
from .partition import (BlockPartition, GoodPartition, GoodnessCheck,
                        IntervalTree, block_partition, good_partition,
                        hypergeometric_tail_bound, interval_tree,
                        is_good_partition)
from .verifier import (PathLengthStats, VerifyReport, path_length_stats,
                       verify_certificate)

__version__ = "0.1.0"

__all__ = [
    "Graph", "degree_into", "induced", "min_degree",
    "parse_edge_list", "format_edge_list", "read_edge_list", "write_edge_list",
    "regular_degree",
    "to_dot",
    "HostSpec", "gen_dirac_host", "gen_two_clique_extremal",
    "gen_random_regular", "complete_graph",
    "GoodPartition", "GoodnessCheck", "good_partition", "is_good_partition",
    "IntervalTree", "interval_tree", "BlockPartition", "block_partition",
    "hypergeometric_tail_bound",
    "hamilton_path_between", "brute_force_hamilton_path",
    "EmbedConfig", "EmbedReport", "Template", "TemplateCheck",
    "build_template", "check_template", "embed_subdivision",
    "SubdivisionCertificate", "certificate_to_json", "certificate_from_json",
    "read_certificate", "write_certificate",
    "PathLengthStats", "VerifyReport", "verify_certificate",
    "path_length_stats",
    "GenerationError", "PartitionError",
    "__version__",
]
