"""biopt: exact Pareto enumeration for bi-objective integer programs.

The package computes the complete non-dominated set of an integer program
with two linear objectives via epsilon-constraint enumeration.  It ships a
sequential baseline and two two-worker parallel variants (objective-range
splitting, and opposed sweeps that meet via shared monotone bounds), an
exact rational branch-and-bound backend for the single-objective
subproblems, a brute-force oracle, seeded instance generators, a benchmark
harness, and a command line front end.
"""

from biopt.algorithms import (
    RunStats,
    SharedBounds,
    meeting_boip,
    sequential_boip,
    splitting_boip,
)
from biopt.instances import (
    FAMILIES,
    GeneratorSpec,
    SplitMix64,
    format_instance,
    format_result,
    gen_assignment,
    gen_knapsack,
    generate,
    parse_instance,
    read_instance,
    write_instance,
)
from biopt.errors import (
    BioptError,
    BoundRegression,
    BudgetExceeded,
    NodeLimitExceeded,
    ParseError,
)
from biopt.ipsolve import (
    BranchAndBoundBackend,
    EnumerationBackend,
    LexResult,
    SolverBackend,
    Work,
    solve_lex,
)
from biopt.model import (
    LinearConstraint,
    ObjectiveOrder,
    OutcomeVector,
    ParetoSet,
    Problem,
    Relation,
    Sense,
    Solution,
    build_problem,
    dominates,
    evaluate,
    make_solution,
    pareto_filter,
    user_outcome,
)
from biopt.oracle import EnumerationBudget, brute_force_pareto
from biopt.simplex import LpResult

__version__ = "0.1.0"

__all__ = [
    "BioptError",
    "FAMILIES",
    "GeneratorSpec",
    "SplitMix64",
    "format_instance",
    "format_result",
    "gen_assignment",
    "gen_knapsack",
    "generate",
    "parse_instance",
    "read_instance",
    "write_instance",
    "RunStats",
    "SharedBounds",
    "meeting_boip",
    "sequential_boip",
    "splitting_boip",
    "BoundRegression",
    "BranchAndBoundBackend",
    "BudgetExceeded",
    "EnumerationBackend",
    "EnumerationBudget",
    "LexResult",
    "LinearConstraint",
    "LpResult",
    "NodeLimitExceeded",
    "ObjectiveOrder",
    "OutcomeVector",
    "ParetoSet",
    "ParseError",
    "Problem",
    "Relation",
    "Sense",
    "SolverBackend",
    "Solution",
    "Work",
    "brute_force_pareto",
    "build_problem",
    "dominates",
    "evaluate",
    "make_solution",
    "pareto_filter",
    "solve_lex",
    "user_outcome",
    "__version__",
]
