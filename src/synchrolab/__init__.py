"""Synchronization of permutation groups acting together with a transformation.

Core question: given a permutation group G on n points and a map f that is
not a permutation, does the semigroup generated by G and f contain a
constant map? The pair-collapse decision procedure answers in polynomial
time; the obstruction graph, the brute-force closure oracle and the
catalog experiments turn the supporting theory into machine-checked runs.
"""

from .catalog import CatalogEntry, build_catalog, find_entry
from .experiments import Budget, ExperimentReport, verify_theorem
from .graphs import Graph, complete_multipartite, witness_map_for_block
from .groups import BlockSystem, GroupTooLargeError, PermutationGroup, load_group_file
from .semigroups import (
    SemigroupClosure,
    TruncatedClosureError,
    closure,
    coblock_graph,
    find_rank_preserving_g,
    group_and_map_closure,
    idempotent_same_kernel,
    is_group_section,
    regular_partition_sizes,
)
from .sweeps import kernel_orbit_representatives
from .sync import (
    InconsistencyError,
    PairCollapseAutomaton,
    SyncVerdict,
    cerny_bound,
    min_rank_via_graph,
    obstruction_graph,
    synchronizes,
)
from .transformations import (
    KernelType,
    Partition,
    Transformation,
    compose,
    constant,
    identity,
    idempotent_power,
    parse_transformation,
)

__version__ = "0.1.0"
