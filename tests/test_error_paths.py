"""Every refusal of the package, by type and message: the invalid inputs
and singular systems that the other test modules do not reach.  Where the
error belongs to a step of a sweep, it names that step's index."""

from fractions import Fraction

import numpy as np
import pytest

import lmm_adjoint as la
from lmm_adjoint import control as ct
from lmm_adjoint import relaxation as rx
from lmm_adjoint.config import parse_config
from lmm_adjoint.ode_control import (cost_gradient_dto, discrete_cost,
                                     optimality_residual,
                                     prescribed_trajectory, solve_adjoint_dto,
                                     solve_adjoint_otd, solve_forward)
from lmm_adjoint.problems import constant_coefficient_study

# dt = 1/8 exactly, so a Jacobian of 8 makes 1 - dt b_-1 f_y vanish for
# ImplicitEuler (b_-1 = 1) without rounding
GRID = la.TimeGrid(1.0, 8)
SINGULAR_T = 3 * GRID.dt


def singular_at_step_3(n):
    """y' = y on n states whose f_y reads 8 I at t_3 and I elsewhere, so
    the Newton and adjoint matrices of ImplicitEuler are singular at index
    3 only.  f_y broadcasts over stacked times."""
    return la.OdeControlProblem(
        f=lambda y, u, t: y,
        f_y=lambda y, u, t: (np.where(np.asarray(t) == SINGULAR_T, 8.0, 1.0)
                             [..., None, None] * np.eye(n)),
        terminal_cost_grad=lambda yT: np.ones(n),
        y0=np.ones(n), y_exact=lambda t: np.exp(t) * np.ones((n, 1)))


def study_case(**changes):
    """The constant-coefficient study with ``changes``, BDF2, and its
    prescribed trajectory on ``GRID``."""
    prob = constant_coefficient_study()
    for name, value in changes.items():
        setattr(prob, name, value)
    tab = la.tableau("BDF2")
    return prob, tab, prescribed_trajectory(GRID, tab, prob.y_exact)


class TestTableaus:
    def test_tableau_dimensions(self):
        with pytest.raises(ValueError,
                           match="inconsistent tableau dimensions for 'odd'"):
            la.MultistepTableau("odd", 2, (Fraction(-1),),
                                (Fraction(1), Fraction(0), Fraction(0)), 1)

    def test_tableau_consistency(self):
        with pytest.raises(ValueError,
                           match=r"'odd' violates 1 \+ sum\(a\) = 0"):
            la.MultistepTableau("odd", 1, (Fraction(-2),),
                                (Fraction(1), Fraction(0)), 1)

    @pytest.mark.parametrize("T", [0.0, -1.0, float("nan")])
    def test_time_grid_horizon(self, T):
        with pytest.raises(ValueError, match="TimeGrid requires T > 0"):
            la.TimeGrid(T, 4)

    def test_time_grid_steps(self):
        with pytest.raises(ValueError, match="TimeGrid requires N >= 1"):
            la.TimeGrid(1.0, 0)

    @pytest.mark.parametrize("n", [2, 1], ids=["system", "scalar"])
    def test_singular_newton_matrix_names_its_step(self, n):
        # n = 2 fails in LAPACK, n = 1 on its zero pivot d = 1 - h f_y
        with pytest.raises(la.ImplicitSolveError,
                           match=f"singular Newton matrix at t={SINGULAR_T}"
                           ) as err:
            solve_forward(singular_at_step_3(n), la.tableau("ImplicitEuler"),
                          GRID)
        assert err.value.step_index == 3
        assert str(err.value).endswith(" at step 3")
        assert err.value.iterations == 0 and err.value.residual > 0


class TestOdeControl:
    def test_negative_running_cost_weight(self):
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            la.OdeControlProblem(f=lambda y, u, t: y,
                                 f_y=lambda y, u, t: 1.0, alpha=-0.5)

    def test_controls_of_the_wrong_length(self):
        prob, tab, _ = study_case()
        with pytest.raises(ValueError,
                           match="controls must cover all 10 indices 1-s..N, "
                                 "got 3"):
            solve_forward(prob, tab, GRID, controls=np.zeros(3))

    @pytest.mark.parametrize("terminal, missing, message", [
        ("exact", "p_exact", "terminal='exact' requires the p_exact hook"),
        ("replicate", "terminal_cost_grad",
         "terminal='replicate' requires terminal_cost_grad"),
        ("bogus", None, "unknown terminal mode 'bogus'"),
    ])
    def test_otd_terminal_values(self, terminal, missing, message):
        prob, tab, traj = study_case(**({missing: None} if missing else {}))
        with pytest.raises(ValueError, match=message):
            solve_adjoint_otd(prob, tab, GRID, traj, terminal)

    @pytest.mark.parametrize("terminal, missing", [
        ("exact", "p_exact"), ("replicate", "terminal_cost_grad"),
        ("bogus", None)])
    def test_otd_terminal_refused_before_fy(self, terminal, missing):
        # the terminal mode and its hook are read before f_y is evaluated
        # on the 1001 points of the sweep
        prob = constant_coefficient_study()
        grid, tab = la.TimeGrid(1.0, 1000), la.tableau("BDF2")
        traj = prescribed_trajectory(grid, tab, prob.y_exact)
        calls, f_y = [], prob.f_y
        prob.f_y = lambda y, u, t: calls.append(t) or f_y(y, u, t)
        if missing:
            setattr(prob, missing, None)
        with pytest.raises(ValueError, match="terminal"):
            solve_adjoint_otd(prob, tab, grid, traj, terminal)
        assert calls == []

    def test_adjoint_needs_as_many_steps_as_stages(self):
        prob = constant_coefficient_study()
        grid, tab = la.TimeGrid(1.0, 2), la.tableau("BDF3")
        traj = prescribed_trajectory(grid, tab, prob.y_exact)
        with pytest.raises(ValueError,
                           match=r"adjoint solve needs N >= s \(got N=2, "
                                 r"s=3\)"):
            solve_adjoint_otd(prob, tab, grid, traj, "exact")

    @pytest.mark.parametrize("route", ["otd", "dto"])
    def test_singular_pointwise_adjoint_matrix_names_its_step(self, route):
        prob = singular_at_step_3(2)
        tab = la.tableau("ImplicitEuler")
        traj = prescribed_trajectory(GRID, tab, prob.y_exact)
        solve = solve_adjoint_otd if route == "otd" else solve_adjoint_dto
        terminal = "replicate" if route == "otd" else "exact"
        prob.p_exact = lambda t: np.ones(2)
        with pytest.raises(la.SolverError,
                           match="singular pointwise adjoint matrix at step "
                                 "index 3") as err:
            solve(prob, tab, GRID, traj, terminal)
        assert err.value.step_index == 3

    def test_dto_terminal_modes(self):
        prob, tab, traj = study_case(terminal_cost_grad=None)
        with pytest.raises(ValueError, match="unknown terminal mode 'bogus'"):
            solve_adjoint_dto(prob, tab, GRID, traj, terminal="bogus")
        with pytest.raises(ValueError,
                           match="DtO route requires terminal_cost_grad"):
            solve_adjoint_dto(prob, tab, GRID, traj, terminal="cost")

    def test_residual_cost_and_gradient_hooks(self):
        prob, tab, traj = study_case()
        otd = solve_adjoint_otd(prob, tab, GRID, traj, "exact")
        with pytest.raises(ValueError,
                           match="exact discrete gradient requires the DtO "
                                 "adjoint"):
            cost_gradient_dto(prob, traj, otd)
        prob.f_u = prob.terminal_cost = None
        with pytest.raises(ValueError,
                           match="optimality residual requires f_u"):
            optimality_residual(prob, traj, otd)
        with pytest.raises(ValueError,
                           match="discrete cost requires terminal_cost"):
            discrete_cost(prob, traj)


class TestRelaxationAndControl:
    def test_grid_size(self):
        with pytest.raises(ValueError, match="grid needs at least 3 points"):
            rx.LagrangianGrid(0.0, 1.0, 2)

    def test_grid_boundary_rule(self):
        with pytest.raises(ValueError,
                           match="unknown boundary rule 'reflect'"):
            rx.LagrangianGrid(0.0, 1.0, 5, "reflect")

    def test_diverging_burgers_sweep_names_its_step(self):
        # max u0 = 1.5 > a = 1 breaks the subcharacteristic condition: the
        # Burgers flux overflows, and the forward sweep refuses the first
        # non-finite level as a SolverError, not as NumPy's overflow
        # warning (an error under the test settings)
        grid = rx.LagrangianGrid(-3.0, 3.0, 121)
        model = rx.make_jin_xin(*rx.JIN_XIN_FLUXES["burgers"], 1.0, 1e-2)
        u0 = 0.5 + np.exp(-grid.nodes() ** 2)
        with pytest.raises(la.SolverError,
                           match="^non-finite kinetic field at step 35$"
                           ) as err:
            rx.solve_forward(model, grid, la.tableau("BDF2"), u0, 60, 0.05)
        assert err.value.step_index == 35

    def test_multi_moment_gradient_needs_the_initial_data(self):
        model = rx.make_broadwell(1.0, 1e-2)
        with pytest.raises(ValueError,
                           match="multi-moment gradient needs the current "
                                 "initial data"):
            ct.gradient_from_adjoint(model, np.zeros((3, 5)))

    def test_unknown_bb_variant(self):
        with pytest.raises(ValueError, match="unknown BB variant 'bb3'"):
            ct.bb_step(np.ones(3), np.ones(3), 0.1, "bb3")


def test_config_empty_key():
    with pytest.raises(la.ConfigError, match="line 2: empty key"):
        parse_config("# a comment\n = 1\n")
