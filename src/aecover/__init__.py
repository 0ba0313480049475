"""Solvers and certification tools for activation edge-cover problems.

The library covers the general-threshold density greedy, the average-price
greedy for locally uniform bipartite instances, unit-threshold set-cover
style solvers, an exact branch-and-bound oracle, closed-form ratio bounds,
and seeded instance generators with a benchmark harness.
"""

from .core import Assignment, DerivedCosts, Edge, Instance, complete, derive_costs
from .bounds import harmonic, k_theta, omega, omega_bar, table1
from .errors import (
    AecError,
    BudgetExceeded,
    DomainError,
    EmptyLevels,
    GenerationFailed,
    IncompleteCover,
    Infeasible,
    InvalidInstance,
    IsolatedTerminal,
    LimitExceeded,
    NonUniformFacility,
    NotBipartite,
    NotUnitThresholds,
    OracleViolation,
    PhaseInvariantViolated,
    SizeBoundViolated,
)
from .fileio import instance_digest, load_instance, loads_instance, save_instance
from .general import solve_general
from .generators import (
    from_facility_location,
    from_installation,
    from_theta_setcover,
    generate,
    random_general,
    random_installation,
    random_minpower,
    random_theta_setcover,
    random_uniform,
    random_unit,
    tight73,
)
from .locally_uniform import (
    UniformBipartiteInstance,
    solve_locally_uniform,
    validate_locally_uniform,
)
from .oracle import ExactResult, exact_solve
from .report import BenchReport, SolveReport, solve_report
from .unit import (
    SetCoverInstance,
    exact_2setcover,
    exact_bb,
    greedy_hk,
    reduce_unit,
    solve_unit_a1,
    solve_unit_a2,
)

__version__ = "0.1.0"
