"""Energy-preserving Runge-Kutta methods for polynomial Hamiltonian systems.

Constructs AVF (averaged vector field) tableaux A = c b^T from Gauss/Radau
type quadrature rules, evaluates the rooted-tree energy-preservation
conditions, analyzes the double-bush linear operator's rank and kernel, and
runs the nonlinear residual sweeps that single out the AVF method.

The package logs to the standard `avfrk` logger and adds only a
NullHandler; configure logging to see its DEBUG records.
"""

import logging

from .conditions import (
    KernelBasis,
    KernelElement,
    KernelStructureError,
    MOperator,
    asym_bush_residual,
    build_M,
    build_p_tilde,
    bush_residuals,
    double_bush_poly_residual,
    double_bush_residual,
    expected_rank,
    kernel_rowsum,
    rank_kernel,
    triple_bush_residual,
    uniqueness_sweep,
)
from .hamiltonian import (
    HamiltonianSystem,
    MultiPoly,
    RationalVec,
    evaluate,
    gradient,
    hamiltonian_from_json,
    line_average,
)
from .integrators import (
    IntegrationRun,
    SolverConfig,
    SolverError,
    StepStats,
    avf_step,
    avf_tableau,
    convergence_errors,
    convergence_order,
    integrate,
    log_log_slope,
    midpoint_tableau,
    rk_step,
    write_run_csv,
)
from .quadrature import (
    QuadRule,
    QuadratureError,
    UniPoly,
    check_discip_lemma,
    continuous_ip,
    discrete_ip,
    discrete_ip_exact,
    f_poly,
    g_poly,
    gamma_lead,
    legendre,
    quad_rule,
    r_poly,
)
from .trees import (
    ButcherTableau,
    Forest,
    FreeTree,
    RootedTree,
    butcher_product,
    conditions_up_to,
    energy_condition_residual,
    enumerate_free,
    enumerate_rooted,
    free_class,
    parse_tree,
    rk_weight,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
