"""The public namespace of ``lmm_adjoint``, pinned to a checked-in list.

A change that adds or removes a public name, or a module of the package,
must edit the lists below, so the namespace cannot grow unnoticed.
"""

import inspect
import pkgutil

import lmm_adjoint as la

PUBLIC_NAMES = (
    "AdjointField", "AdjointRoute", "AdjointTrajectory", "DescentState",
    "FieldBlowUpError", "History", "ImplicitSolveError", "KineticField",
    "LagrangianGrid", "ModelConfigError", "MultistepTableau",
    "OdeControlProblem", "OptimizeResult", "RelaxationModel",
    "SingularAdjointStepError", "SolverBlowUpError", "TimeGrid",
    "TrackingFunctional", "Trajectory", "UnknownTableauError", "adjoint_step",
    "bb_step", "bootstrap_history", "cost_gradient_dto", "derive_bdf",
    "discrete_cost", "equilibrium_lift", "forward_step",
    "gradient_from_adjoint", "make_broadwell", "make_jin_xin", "mass_history",
    "optimality_residual", "optimize", "prescribed_trajectory",
    "reconstruct_macroscopic", "registry_names", "solve_adjoint_dto",
    "solve_adjoint_otd", "solve_forward", "step", "tableau",
    "terminal_multipliers", "total_variation", "transport_oracle",
    "tv_filter", "viscous_limit_check",
)

MODULES = ("cli", "config", "control", "experiments", "ode_control",
           "problems", "relaxation", "tableaus")


def test_public_names_match_the_pinned_list():
    names = [n for n in dir(la)
             if not n.startswith("_") and not inspect.ismodule(getattr(la, n))]
    assert sorted(names) == sorted(PUBLIC_NAMES)


def test_modules_match_the_pinned_list():
    found = [m.name for m in pkgutil.iter_modules(la.__path__)]
    assert sorted(found) == sorted(MODULES)
