"""The benchmark's `high-order` problems of seed 1 as a tier-1 ledger.

Each of the 60 problems (n = 6..16; even, near-repeated and conjugate
poles) meets each route once: `solve` (the closed form on the problem's
grid), `simulate` (the state-space outputs on that grid) and `check` (the
equivalence verdict on the file's `ssr`, an exact signed-permutation
similarity of the canonical form).  A route passes by the benchmark's rule,
|y - ref| <= 1e-8 + 1e-6 |ref| at every grid point against a 40-digit
reference, or, for `check`, when the verdict is "equivalent".

Every case that fails today is a strict xfail naming its fault, so a mend
shows as an XPASS failure until its mark goes, and a new miss fails at once.
The draws and the reference are the benchmark's own files, loaded read-only.
"""

import functools
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from ltivp import check_equivalence, simulate_ivp, solve_ivp
from ltivp.errors import NotObservable
from ltivp.problemfile import parse_problem

ROOT = Path(__file__).resolve().parent.parent
ATOL, RTOL = 1e-8, 1e-6


def load_perfbench(name: str) -> types.ModuleType:
    """perfbench/<name>.py as a module, compiled from its text (no bytecode written)."""
    path = ROOT / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    # dataclasses look the defining module up in sys.modules
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


draws = load_perfbench("draws")
mpref = load_perfbench("mpref")
CASES = {case.name: case for case in draws.build("high-order", 1, ROOT).cases}

#: closed-form misses at n = 16, 3.0x to 98x the bound
SOLVE_MISSES = {
    "h16-even-0", "h16-even-1", "h16-even-2",
    "h16-near-repeated-0", "h16-near-repeated-1", "h16-near-repeated-2", "h16-near-repeated-3",
}
SOLVE_MISS = (
    "closed form beyond the bound at n = 16 with no error raised: no a-posteriori check "
    "(CHANGES.md FOUND 13)"
)
SIMULATE_MISS = (
    "recover_state raises NotObservable at n >= 8: the sigma ratio of O, at most 2.3e-10, "
    "is under OBSERVABILITY_RTOL = 1e-9"
)


def ledger():
    for name, case in CASES.items():
        for route in ("solve", "simulate", "check"):
            marks = ()
            if route == "solve" and name in SOLVE_MISSES:
                marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=SOLVE_MISS)
            elif route == "simulate" and case.n >= 8:
                marks = pytest.mark.xfail(strict=True, raises=NotObservable, reason=SIMULATE_MISS)
            yield pytest.param(name, route, marks=marks, id=f"{name}-{route}")


@functools.cache
def reference(name: str) -> np.ndarray:
    case = CASES[name]
    return np.array(mpref.Reference(case.data)(case.grid()))


def assert_within_bound(name: str, y) -> None:
    ref = reference(name)
    ratio = np.max(np.abs(np.asarray(y) - ref) / (ATOL + RTOL * np.abs(ref)))
    assert ratio <= 1.0, f"{name}: {ratio:.3g} x the bound"


@pytest.mark.parametrize("name, route", ledger())
def test_high_order_case(name, route):
    case = CASES[name]
    parsed = parse_problem(case.data)
    if route == "solve":
        assert_within_bound(name, solve_ivp(parsed.problem)(case.grid()))
    elif route == "simulate":
        assert_within_bound(name, simulate_ivp(parsed.problem, case.grid()).outputs)
    else:
        assert check_equivalence(parsed.problem.ode, parsed.ssr).equivalent
