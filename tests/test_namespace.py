"""The public namespace of ``lmm_adjoint``, pinned to a checked-in list.

A change that adds or removes a public name, a parameter of a public
callable, a module of the package, a command-line option or a documented
config key must edit the lists below, so neither the namespace nor the
option surface can grow unnoticed.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import sys

import lmm_adjoint as la
from lmm_adjoint.cli import build_parser
from lmm_adjoint.config import CONFIG_REFERENCE

PUBLIC_NAMES = (
    "AdjointField", "AdjointTrajectory", "ConfigError",
    "ImplicitSolveError", "KineticField", "LagrangianGrid",
    "MultistepTableau", "OdeControlProblem", "OptimizeResult",
    "RelaxationModel", "SolverError", "TimeGrid", "TrackingFunctional",
    "Trajectory", "adjoint_step", "bb_step",
    "cost_gradient_dto", "discrete_cost", "forward_step",
    "gradient_from_adjoint", "make_broadwell", "make_jin_xin",
    "optimality_residual", "optimize",
    "prescribed_trajectory", "solve_adjoint_dto", "solve_adjoint_otd",
    "solve_forward", "step", "tableau", "terminal_multipliers",
    "transport_oracle", "tv_filter",
)

# The parameters of every public callable (class constructors included),
# in order, as ``inspect.signature`` gives them, so a keyword option cannot
# be added unnoticed.  None marks a class that keeps its base's built-in
# constructor, which has no signature.
PUBLIC_SIGNATURES = {
    "AdjointField": ("model", "grid", "dt", "tab", "lam_T"),
    "AdjointTrajectory": ("grid", "tab", "multipliers", "route"),
    "ConfigError": None,
    "ImplicitSolveError": ("message", "residual", "iterations"),
    "KineticField": ("model", "grid", "dt", "tab", "f0"),
    "LagrangianGrid": ("x_left", "x_right", "n_points", "boundary"),
    "MultistepTableau": ("name", "s", "a_exact", "b_exact", "nominal_order"),
    "OdeControlProblem": ("f", "f_y", "f_u", "terminal_cost",
                          "terminal_cost_grad", "alpha", "y0", "y_exact",
                          "p_exact"),
    "OptimizeResult": ("control", "u_terminal", "iterations"),
    "RelaxationModel": ("velocities", "q_matrix", "equilibrium",
                        "equilibrium_jac", "moments", "adjoint_source",
                        "eps"),
    "SolverError": ("message", "step_index"),
    "TimeGrid": ("T", "N"),
    "TrackingFunctional": ("target", "dx"),
    "Trajectory": ("grid", "tab", "states", "controls"),
    "adjoint_step": ("model", "grid", "adj", "jac"),
    "bb_step": ("du", "dg", "sigma", "variant"),
    "cost_gradient_dto": ("problem", "traj", "adj"),
    "discrete_cost": ("problem", "traj"),
    "forward_step": ("model", "grid", "fld", "out"),
    "gradient_from_adjoint": ("model", "lam0", "u0"),
    "make_broadwell": ("c", "eps"),
    "make_jin_xin": ("flux", "dflux", "a", "eps"),
    "optimality_residual": ("problem", "traj", "adj"),
    "optimize": ("model", "grid", "tab", "functional", "initial_guess",
                 "n_steps", "dt", "iterations", "sigma0", "bb_variant",
                 "filter_every", "callback"),
    "prescribed_trajectory": ("grid", "tab", "y_of_t"),
    "solve_adjoint_dto": ("problem", "tab", "grid", "traj", "terminal"),
    "solve_adjoint_otd": ("problem", "tab", "grid", "traj", "terminal"),
    "solve_forward": ("problem", "tab", "grid", "controls"),
    "step": ("tab", "states", "fvals", "dt", "rhs", "t_new", "jac"),
    "tableau": ("name",),
    "terminal_multipliers": ("model", "p_terminal"),
    "transport_oracle": ("grid", "p_terminal", "speed", "T"),
    "tv_filter": ("u", "grid"),
}

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
                      "scheme", "T", "terminal_center", "terminal_width"),
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


def test_public_signatures_match_the_pinned_map():
    found = {}
    for name in PUBLIC_NAMES:
        try:
            found[name] = tuple(inspect.signature(getattr(la, name)).parameters)
        except ValueError:  # a built-in constructor
            found[name] = None
    assert found == PUBLIC_SIGNATURES


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


def test_only_the_grid_reads_its_boundary_rule():
    # what periodic and clamped mean is written once, in LagrangianGrid;
    # every other piece of the package asks the grid through upstream,
    # upstream_slices or fold
    readers = []
    for path in sorted(pathlib.Path(la.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef)
                  and cls.name == "LagrangianGrid"
                  and path.name == "relaxation.py"
                  for node in ast.walk(cls)}
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr == "boundary" and id(node) not in inside]
    assert readers == []


def test_only_relaxation_reads_a_models_moment_map():
    # the multiplier convention (terminal_multipliers and its transpose
    # gradient_from_adjoint) is the one place that asks how many moments a
    # model conserves and how it maps velocities to them
    readers = []
    for path in sorted(pathlib.Path(la.__file__).parent.glob("*.py")):
        if path.name == "relaxation.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr in ("n_conserved", "q_matrix")]
    assert readers == []


def test_every_model_field_is_read_by_the_solver():
    # a RelaxationModel carries what the solver needs and nothing a single
    # study needs: each field is read in the steps, the sweeps, the field
    # classes or the multiplier pair of relaxation.py
    tree = ast.parse((pathlib.Path(la.__file__).parent / "relaxation.py")
                     .read_text(encoding="utf-8"))
    solver = {"forward_step", "adjoint_step", "_combine", "_update",
              "solve_forward", "solve_adjoint", "_LevelRing", "KineticField",
              "AdjointField", "terminal_multipliers", "gradient_from_adjoint"}
    (model,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "RelaxationModel"]
    fields = {stmt.target.id for stmt in model.body
              if isinstance(stmt, ast.AnnAssign)}
    found = [node for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name in solver]
    read = {node.attr for top in found for node in ast.walk(top)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    assert sorted(top.name for top in found) == sorted(solver)
    assert fields == set(la.RelaxationModel.__dataclass_fields__)
    assert sorted(fields - read) == []


def test_the_package_imports_only_numpy_and_the_standard_library():
    # numpy is the one declared dependency; scipy or sympy imported by
    # accident would pass where they are installed and break elsewhere
    allowed = set(sys.stdlib_module_names) | {"__future__", "numpy"}
    found = []
    for path in sorted(pathlib.Path(la.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] not in allowed]
    assert found == []


def test_every_parameter_is_read():
    # no unused parameters: each parameter of each def in the package is
    # read in its body, nested functions included; self, cls and names
    # with a leading underscore (a signature fixed by a caller) are exempt
    unread = []
    for path in sorted(pathlib.Path(la.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}:{fn.lineno} {fn.name}({p})"
                       for p in params if p not in read
                       and p not in ("self", "cls") and not p.startswith("_")]
    assert unread == []


def test_step_maps_pass_no_python_float_to_numpy():
    # the per-step maps hand NumPy 0-d float64 arrays, which a ufunc takes
    # as they are, where a Python float is converted on every call: no
    # float literal and no parameter annotated float (of the function or
    # of its factory), nor arithmetic on one such as 2 * a, is an operand
    # of an np.* call in them
    tree = ast.parse((pathlib.Path(la.__file__).parent / "relaxation.py")
                     .read_text(encoding="utf-8"))
    pinned = {"_update", "_burgers_flux", "_flux", "equilibrium", "moments",
              "adjoint_source"}
    found, checked = [], []
    for outer in tree.body:
        if not isinstance(outer, ast.FunctionDef):
            continue
        floats = {a.arg for a in outer.args.args if a.annotation
                  and ast.unparse(a.annotation) == "float"}
        for fn in ast.walk(outer):
            if not (isinstance(fn, ast.FunctionDef) and fn.name in pinned):
                continue
            checked.append(f"{outer.name}.{fn.name}")
            for call in ast.walk(fn):
                root = call.func if isinstance(call, ast.Call) else None
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id == "np"):
                    continue
                for arg in call.args + [k.value for k in call.keywords]:
                    if any(isinstance(node, ast.Constant)
                           and isinstance(node.value, float)
                           or isinstance(node, ast.Name) and node.id in floats
                           for node in ast.walk(arg)):
                        found.append(f"{fn.name}:{call.lineno} "
                                     f"{ast.unparse(arg)}")
    assert sorted(checked) == [
        "_burgers_flux._burgers_flux", "_update._update",
        "make_broadwell._flux", "make_broadwell.adjoint_source",
        "make_broadwell.equilibrium", "make_broadwell.moments",
        "make_jin_xin.adjoint_source", "make_jin_xin.equilibrium",
        "make_jin_xin.moments"]
    assert found == []


def test_the_steps_leave_every_contraction_to_the_model():
    # u = Q f and Q^T (J^T C) are the model's maps (moments and
    # adjoint_source), so a model chooses how to sum them and the step code
    # has one path: no np.einsum call in the steps or their shared pieces
    tree = ast.parse((pathlib.Path(la.__file__).parent / "relaxation.py")
                     .read_text(encoding="utf-8"))
    steps = {"forward_step", "adjoint_step", "_combine", "_update"}
    found, checked = [], []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in steps):
            continue
        checked.append(fn.name)
        found += [f"{fn.name}:{node.lineno}" for node in ast.walk(fn)
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func) in ("np.einsum", "numpy.einsum")]
    assert sorted(checked) == sorted(steps)
    assert found == []
