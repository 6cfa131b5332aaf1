"""Energy-preserving Runge-Kutta methods for polynomial Hamiltonian systems.

Constructs AVF (averaged vector field) tableaux A = c b^T from Gauss/Radau
type quadrature rules, evaluates the rooted-tree energy-preservation
conditions, analyzes the double-bush linear operator's rank and kernel, and
runs the nonlinear residual sweeps that single out the AVF method.

The package is lazy: `import avfrk` executes no submodule.  Each layer
is bound as `avfrk.<layer>` and registered in sys.modules as a lazy
module (importlib.util.LazyLoader), executed on its first attribute
access or import, and each public name below resolves through its
layer on first access (PEP 562).  The package logs
to the standard `avfrk` logger and adds only a NullHandler; configure
logging to see its DEBUG records.
"""

import importlib.util
import logging
import sys

_EXPORTS = {
    "conditions": (
        "KernelBasis", "KernelElement", "KernelStructureError", "MOperator", "asym_bush_residual",
        "build_M", "build_p_tilde", "bush_residuals", "double_bush_poly_residual",
        "double_bush_residual", "expected_rank", "kernel_rowsum", "rank_kernel",
        "triple_bush_residual", "uniqueness_sweep",
    ),
    "hamiltonian": (
        "HamiltonianSystem", "MultiPoly", "RationalVec", "evaluate", "gradient",
        "hamiltonian_from_json", "line_average",
    ),
    "integrators": (
        "IntegrationRun", "SolverConfig", "SolverError", "StepStats", "avf_step", "avf_tableau",
        "convergence_errors", "convergence_order", "integrate", "log_log_slope",
        "midpoint_tableau", "rk_step", "write_run_csv",
    ),
    "quadrature": (
        "QuadRule", "QuadratureError", "UniPoly", "check_discip_lemma", "continuous_ip",
        "discrete_ip", "discrete_ip_exact", "f_poly", "g_poly", "gamma_lead", "legendre",
        "quad_rule", "r_poly",
    ),
    "trees": (
        "ButcherTableau", "Forest", "FreeTree", "RootedTree", "butcher_product",
        "conditions_up_to", "energy_condition_residual", "enumerate_free", "enumerate_rooted",
        "free_class", "parse_tree", "rk_weight",
    ),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE)
__version__ = "0.1.0"


def _lazy(name):
    """avfrk.<name> as registered in sys.modules, lazily where it is not there yet."""
    full = f"{__name__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    return sys.modules[full]


globals().update({name: _lazy(name) for name in _EXPORTS})


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_MODULE[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))


logging.getLogger(__name__).addHandler(logging.NullHandler())
