"""Locally-balanced 2-partition toolkit.

Decide and construct 2-partitions whose open or closed neighborhood
balances stay within 1 everywhere, solve the degree-(2,2k+1) bipartite
class constructively with cycle certificates, and run four verified
NAE-3-SAT-E4 reductions.
"""

from .balance import BalanceReport, TwoPartition, balance_report, check, parse_partition, phi_star
from .biregular import (
    Certificate,
    CycleCertificate,
    NotApplicable,
    Witness,
    build_reduced,
    kk1_factor,
    solve_biregular,
    validate_2odd_biregular,
)
from .gadgets import (
    Gadget,
    GadgetReport,
    gadget_f1,
    gadget_f2,
    gadget_f4,
    gadget_forcing,
    verify_f4_harness,
    verify_gadget,
)
from .graphs import (
    Bipartition,
    ClassReport,
    Graph,
    GraphFormatError,
    bfs_distances,
    bipartition,
    classify,
    parse_graph,
    serialize_graph,
)
from .nae import NaeFormatError, NaeInstance, brute_sat, nae_eval, parse_nae, serialize_nae
from .reductions import (
    InvalidPartitionError,
    ReductionArtifact,
    UnsatAssignmentError,
    assignment_to_partition,
    partition_to_assignment,
    read_artifact,
    reduce_closed_odd,
    reduce_closed_subcubic,
    reduce_open_biregular,
    reduce_open_even,
    write_artifact,
)
from .solver import (
    BudgetExceededError,
    ConstraintSystem,
    PropagationResult,
    SolveOutcome,
    brute_force,
    decide,
    enumerate_partitions,
    propagate,
)

__version__ = "0.1.0"
