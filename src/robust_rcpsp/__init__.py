"""Two-stage robust RCPSP under budgeted duration uncertainty.

First-stage decisions add precedence arcs until all resource conflicts are
resolved; the second stage evaluates the worst-case makespan over a
budgeted uncertainty set.  The package parses PSPLIB instances, evaluates
selections by dynamic programming, builds the compact MILP counterpart,
solves instances exactly with a branch-and-bound, and benchmarks variants.
"""

from .adversary import (
    CertificateCheck,
    DpResult,
    FractionalCertificate,
    TuVerdict,
    build_adversary_constraint_matrix,
    check_fractional_certificate,
    counterexample_certificate,
    counterexample_instance,
    ghouila_houri_refute,
    matrix_to_csv,
    path_certificate,
    refutation_row_subset,
    worst_case_makespan_bruteforce,
    worst_case_makespan_dp,
)
from .bench import (
    BenchConfig,
    PerformanceProfile,
    ResultRecord,
    performance_profile,
    run_experiment,
    summarize,
)
from .bnb import OptResult, optimality_gap, solve_exact
from .errors import (
    BridgeError,
    CapExceeded,
    CyclicGraphError,
    InvalidHorizonError,
    ParseError,
    RobustRcpspError,
)
from .heuristics import (
    TimeWindows,
    WarmStart,
    lft_schedule,
    time_windows,
    validate_schedule,
    warm_start,
)
from .instance import (
    InstanceMeta,
    ProjectInstance,
    from_json,
    parse_psplib,
    robustify,
    to_json,
)
from .milp import (
    MilpModel,
    SolveOutcome,
    build_compact,
    check_assignment,
    default_big_m,
    export_lp,
    export_warm_start,
    read_lp,
    solve_external,
    warm_start_assignment,
)
from .network import (
    ForbiddenSetCatalog,
    Selection,
    SelectionVerdict,
    enumerate_sufficient_selections,
    minimal_forbidden_sets,
    selection_from_schedule,
    verify_selection,
)

__version__ = "0.1.0"
