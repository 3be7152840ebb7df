"""The two solution routes share no solution code.

Each route must still solve the shipped problems, with the same numbers,
when every function specific to the other route raises on use.  The
functions are replaced on every loaded ltivp module that holds them, so
neither a direct call nor a re-exported name can reach them.
"""

import sys
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

from ltivp.laplace import solve_ivp
from ltivp.problemfile import load_problem
from ltivp.simulate import default_grid, simulate_ivp

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ("input_switch", "ramp_input", "step_from_rest")
CLOSED_FORM = (
    "laplace_transform", "assemble", "partial_fractions", "from_partial_fractions", "poly_roots",
    "root_product",
)
STATE_SPACE = ("observable_canonical", "recover_state", "simulate")


def forbid(monkeypatch, names):
    def raiser(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called from the other route")

        return call

    patched = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "ltivp" or module_name.startswith("ltivp.")):
            continue
        for name in names:
            if not isinstance(getattr(module, name, module), ModuleType):
                monkeypatch.setattr(module, name, raiser(name))
                patched += 1
    assert patched >= len(names)


@pytest.mark.parametrize("name", PROBLEMS)
def test_state_space_route_needs_no_closed_form(monkeypatch, name):
    problem = load_problem(str(ROOT / "problems" / f"{name}.json")).problem
    grid = default_grid(problem.horizon)
    want = solve_ivp(problem)(grid)
    forbid(monkeypatch, CLOSED_FORM)
    with pytest.raises(AssertionError):
        solve_ivp(problem)
    got = simulate_ivp(problem, grid).outputs
    assert np.max(np.abs(got - want)) <= 1e-8 + 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("name", PROBLEMS)
def test_closed_form_route_needs_no_state_space(monkeypatch, name):
    problem = load_problem(str(ROOT / "problems" / f"{name}.json")).problem
    grid = default_grid(problem.horizon)
    want = simulate_ivp(problem, grid).outputs
    forbid(monkeypatch, STATE_SPACE)
    with pytest.raises(AssertionError):
        simulate_ivp(problem, grid)
    got = solve_ivp(problem)(grid)
    assert np.max(np.abs(got - want)) <= 1e-8 + 1e-6 * np.max(np.abs(want))
