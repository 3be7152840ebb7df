"""ltivp: initial value problems for linear time-invariant ODEs whose input
may switch expressions at t = 0.

Two independent solution paths are provided: a closed-form Laplace-domain
pipeline (solve_ivp) and exact state-space simulation (simulate_ivp), tied
together by condition-stack bookkeeping across the switch.

The names below are the documented surface (see README); everything else
is importable from its submodule.
"""

from .errors import NotObservable, ProblemFileError
from .ic import (
    ConditionPair,
    ContinuityReport,
    classify_continuity,
    map_previous_to_first,
    recover_state,
)
from .laplace import IVProblem, solve_ivp
from .ode import LinearODE
from .realization import StateSpace, check_equivalence, observable_canonical
from .signal import PiecewiseInput, Signal, format_signal
from .simulate import Trajectory, simulate_ivp

__version__ = "0.1.0"

__all__ = [
    "ConditionPair",
    "ContinuityReport",
    "IVProblem",
    "LinearODE",
    "NotObservable",
    "PiecewiseInput",
    "ProblemFileError",
    "Signal",
    "StateSpace",
    "Trajectory",
    "check_equivalence",
    "classify_continuity",
    "format_signal",
    "map_previous_to_first",
    "observable_canonical",
    "recover_state",
    "simulate_ivp",
    "solve_ivp",
]
