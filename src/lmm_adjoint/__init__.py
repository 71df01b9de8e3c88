"""Linear multistep time integration for adjoint-based optimal control.

Modules cover the tableau registry and generic recurrence
(:mod:`lmm_adjoint.tableaus`), controlled-ODE forward/adjoint solvers with
both discretization routes (:mod:`lmm_adjoint.ode_control`), the
semi-Lagrangian BDF solver for discrete-velocity relaxation systems
(:mod:`lmm_adjoint.relaxation`), the descent loop for initial-data control
(:mod:`lmm_adjoint.control`), and the experiment CLI
(:mod:`lmm_adjoint.cli`).
"""

from . import control, ode_control, problems, relaxation, tableaus
from .tableaus import (ConfigError, ImplicitSolveError, MultistepTableau,
                       SolverError, TimeGrid, step, tableau)
from .ode_control import (AdjointTrajectory, OdeControlProblem, Trajectory,
                          cost_gradient_dto, discrete_cost,
                          optimality_residual, prescribed_trajectory,
                          solve_adjoint_dto, solve_adjoint_otd, solve_forward)
from .relaxation import (AdjointField, KineticField, LagrangianGrid,
                         RelaxationModel, adjoint_step, forward_step,
                         gradient_from_adjoint, make_broadwell, make_jin_xin,
                         terminal_multipliers, transport_oracle)
from .control import (OptimizeResult, TrackingFunctional, bb_step, optimize,
                      tv_filter)

__version__ = "0.1.0"
