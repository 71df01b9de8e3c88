"""The public namespace of ``lmm_adjoint``, pinned to a checked-in list.

A change that adds or removes a public name, a module of the package, a
command-line option or a documented config key must edit the lists below,
so neither the namespace nor the option surface can grow unnoticed.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import lmm_adjoint as la
from lmm_adjoint.cli import build_parser
from lmm_adjoint.config import CONFIG_REFERENCE

PUBLIC_NAMES = (
    "AdjointField", "AdjointTrajectory", "ConfigError",
    "ImplicitSolveError", "KineticField", "LagrangianGrid",
    "MultistepTableau", "OdeControlProblem", "OptimizeResult",
    "RelaxationModel", "SolverError", "TimeGrid", "TrackingFunctional",
    "Trajectory", "adjoint_step", "bb_step", "bootstrap_history",
    "cost_gradient_dto", "discrete_cost", "forward_step",
    "gradient_from_adjoint", "make_broadwell", "make_jin_xin",
    "optimality_residual", "optimize",
    "prescribed_trajectory", "solve_adjoint_dto", "solve_adjoint_otd",
    "solve_forward", "step", "tableau", "terminal_multipliers",
    "transport_oracle", "tv_filter", "viscous_limit_check",
)

# Public names that no module of the package uses yet.  ROADMAP item 3
# decides whether they stay.
UNUSED_ALLOWED = ("cost_gradient_dto", "discrete_cost")

MODULES = ("cli", "config", "control", "experiments", "ode_control",
           "problems", "relaxation", "tableaus")

CLI_OPTIONS = ("-h", "--help", "--config", "--out", "--route")

CONFIG_KEYS = {
    "ode-converge": ("study", "schemes", "n_list", "T"),
    "relax-forward": ("flux", "a", "eps", "x_left", "x_right", "nx", "dt",
                      "T", "scheme", "boundary", "u0_center", "u0_width",
                      "output_times", "run_name"),
    "relax-adjoint": ("eps_list", "nx_list", "a", "x_left", "x_right",
                      "scheme", "T", "terminal_center", "terminal_width",
                      "oracle_eps_max"),
    "control-jinxin": ("nx", "dt", "T", "iterations", "eps", "scheme",
                       "sigma0", "bb_variant", "filter_every", "save_every"),
    "control-broadwell": ("nx", "dt", "T", "c", "iterations", "eps",
                          "scheme", "sigma0", "bb_variant", "filter_every",
                          "save_every"),
}


def test_public_names_match_the_pinned_list():
    names = [n for n in dir(la)
             if not n.startswith("_") and not inspect.ismodule(getattr(la, n))]
    assert sorted(names) == sorted(PUBLIC_NAMES)


def test_public_names_are_used_by_the_package():
    # a name counts as used where it appears as a Name or an Attribute in a
    # module other than __init__.py, which only re-exports
    used = set()
    for path in pathlib.Path(la.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(set(PUBLIC_NAMES) - used)
    assert unused == sorted(UNUSED_ALLOWED)


def test_exception_classes_are_config_or_solver_errors():
    # the CLI maps these two types to exits 2 and 3; a third kind of
    # failure would be a bug's traceback
    found = []
    for info in pkgutil.iter_modules(la.__path__):
        module = importlib.import_module(f"{la.__name__}.{info.name}")
        found += [cls for cls in vars(module).values()
                  if inspect.isclass(cls) and issubclass(cls, BaseException)
                  and cls.__module__ == module.__name__]
    assert found
    for cls in found:
        assert issubclass(cls, (la.ConfigError, la.SolverError)), cls


def test_modules_match_the_pinned_list():
    found = [m.name for m in pkgutil.iter_modules(la.__path__)]
    assert sorted(found) == sorted(MODULES)


def test_cli_options_match_the_pinned_list():
    options = [opt for action in build_parser()._actions
               for opt in action.option_strings]
    assert sorted(options) == sorted(CLI_OPTIONS)


def test_config_keys_match_the_pinned_lists():
    documented = {kind: tuple(keys) for kind, keys in CONFIG_REFERENCE.items()}
    assert documented == CONFIG_KEYS
