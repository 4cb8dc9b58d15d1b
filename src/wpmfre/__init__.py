"""Linear optimization over max-weighted-power-mean relational equalities.

The package decides feasibility of systems ``max_j wpm(A[i,j], x[j]) ==
b[i]`` over the unit box, builds the maximum solution and the minimal
candidate points, simplifies instances without changing their solution
set, and minimizes a linear cost over the solution set exactly.
"""

from .errors import (
    BudgetError,
    DimensionError,
    DomainError,
    EnumerationBudgetError,
    InactiveColumnError,
    InfeasibleProblemError,
    InfeasibleRowError,
    MembershipError,
    NoSolutionError,
    OracleBudgetError,
    ParameterDomainError,
    ProblemFormatError,
    WpmFreError,
)
from .io import (
    generate_instance,
    load_point,
    load_problem,
    parse_point,
    parse_problem,
    problem_dumps,
    problem_to_dict,
    report_dumps,
    report_to_dict,
)
from .lattice import (
    DEFAULT_CHOICE_LIMIT,
    CandidateMinimal,
    Candidates,
    MaxSolution,
    choice_space_size,
    enumerate_candidates,
    feasible_candidates,
    max_solution,
    minimal_solution_row,
)
from .model import (
    Classification,
    Problem,
    RowClassification,
    classify_all,
)
from .optimize import (
    STATUS_BUDGET_EXCEEDED,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    SolveReport,
    assemble_optimum,
    solve,
    solve_z2,
)
from .oracle import (
    DEFAULT_ORACLE_LIMIT,
    GridSpec,
    OracleCandidate,
    check_membership,
    exhaustive_candidates,
    grid_feasible_set,
    oracle_feasible,
)
from .simplify import (
    SimplificationEntry,
    SimplificationLog,
    simplify_pipeline,
)
from .wpm import CLASSIFY_TOL, FEASIBILITY_TOL, WpmParams, wpm, wpm_inverse

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CLASSIFY_TOL",
    "CandidateMinimal",
    "Candidates",
    "Classification",
    "DEFAULT_CHOICE_LIMIT",
    "DEFAULT_ORACLE_LIMIT",
    "DimensionError",
    "DomainError",
    "EnumerationBudgetError",
    "FEASIBILITY_TOL",
    "GridSpec",
    "InactiveColumnError",
    "InfeasibleProblemError",
    "InfeasibleRowError",
    "MaxSolution",
    "MembershipError",
    "NoSolutionError",
    "OracleBudgetError",
    "OracleCandidate",
    "ParameterDomainError",
    "Problem",
    "ProblemFormatError",
    "RowClassification",
    "STATUS_BUDGET_EXCEEDED",
    "STATUS_INFEASIBLE",
    "STATUS_OPTIMAL",
    "SimplificationEntry",
    "SimplificationLog",
    "SolveReport",
    "WpmFreError",
    "WpmParams",
    "assemble_optimum",
    "check_membership",
    "choice_space_size",
    "classify_all",
    "enumerate_candidates",
    "exhaustive_candidates",
    "feasible_candidates",
    "generate_instance",
    "grid_feasible_set",
    "load_point",
    "load_problem",
    "max_solution",
    "minimal_solution_row",
    "oracle_feasible",
    "parse_point",
    "parse_problem",
    "problem_dumps",
    "problem_to_dict",
    "report_dumps",
    "report_to_dict",
    "simplify_pipeline",
    "solve",
    "solve_z2",
    "wpm",
    "wpm_inverse",
]
