"""Steiner tree toolkit: heuristic pools merged through exact width-bounded solves.

The pipeline generates a pool of locally optimal Steiner trees, selects a
subset whose graph union stays within a treewidth cap, and solves the
union-restricted problem exactly with a tree-decomposition dynamic
program. The merged tree is never worse than the best pool member and is
often strictly better on sparse instances.
"""

from .exact import (
    DEFAULT_STATE_BUDGET,
    DW_TERMINAL_CAP,
    CapacityError,
    DeadlineError,
    dp_solve,
    dreyfus_wagner,
    solve_with_decomposition,
)
from .generator import (
    GeneratorConfig,
    SolutionPool,
    generate_pool,
    local_search,
    read_pool,
    sph_construct,
    write_pool,
)
from .graph import (
    InfeasibleError,
    InvariantError,
    ParseError,
    SteinerError,
    SteinerInstance,
    SteinerSolution,
    ValidationError,
    WeightedGraph,
    edge_key,
    parse_stp,
    parse_stp_file,
    prune,
    solution_violations,
    write_stp,
)
from .kernels import BACKEND_NAME
from .merge import (
    MergeConfig,
    MergeReport,
    RankingState,
    greedy_steiner_union,
    ranking_procedure,
    run_smh,
)
from .treewidth import (
    EliminationOrder,
    NiceDecomposition,
    TreeDecomposition,
    decomposition_from_order,
    greedy_degree,
    greedy_degree_capped,
    make_nice,
    read_td,
    validate_decomposition,
    validate_nice,
    write_td,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND_NAME",
    "CapacityError",
    "DEFAULT_STATE_BUDGET",
    "DW_TERMINAL_CAP",
    "DeadlineError",
    "EliminationOrder",
    "GeneratorConfig",
    "InfeasibleError",
    "InvariantError",
    "MergeConfig",
    "MergeReport",
    "NiceDecomposition",
    "ParseError",
    "RankingState",
    "SolutionPool",
    "SteinerError",
    "SteinerInstance",
    "SteinerSolution",
    "TreeDecomposition",
    "ValidationError",
    "WeightedGraph",
    "decomposition_from_order",
    "dp_solve",
    "dreyfus_wagner",
    "edge_key",
    "generate_pool",
    "greedy_degree",
    "greedy_degree_capped",
    "greedy_steiner_union",
    "local_search",
    "make_nice",
    "parse_stp",
    "parse_stp_file",
    "prune",
    "ranking_procedure",
    "read_pool",
    "read_td",
    "run_smh",
    "solution_violations",
    "solve_with_decomposition",
    "sph_construct",
    "validate_decomposition",
    "validate_nice",
    "write_pool",
    "write_stp",
    "write_td",
]
