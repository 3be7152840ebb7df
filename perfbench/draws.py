"""Seeded problem draws for the benchmark workloads.

Every problem is a dict in problem-file syntax (what `parse_problem` and the
CLI read), paired with the pole structure it was drawn with, so the
benchmark can tell whether root finding recovered the right multiplicities.
Orders and input kinds are stratified (the same counts for every seed) and
only the values are random, so the problem mix does not change from seed to
seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SHIPPED = ("input_switch.json", "ramp_input.json", "step_from_rest.json")
SUBCOMMANDS = ("solve", "map-ic", "realize", "check", "simulate")
INPUT_KINDS = ("constant", "affine", "exponential", "sinusoid")


@dataclass
class Case:
    """One problem dict plus what the benchmark knows about it."""

    name: str
    data: dict
    points: int
    horizon: float
    kind: str
    # (pole, multiplicity) of the transform's denominator A(s) * den U(s)
    poles: list

    @property
    def n(self) -> int:
        return len(self.data["ode"]["a"])

    def grid(self) -> np.ndarray:
        """The grid the CLI uses for this file: `points` samples over (0, horizon]."""
        return np.linspace(self.horizon / self.points, self.horizon, self.points)


@dataclass
class Workload:
    name: str
    cases: list[Case]
    cli_pairs: list[tuple[str, Case]]  # (subcommand, problem file)
    cli_share: float
    # whole CLI rounds a run makes however short it is; a pair's time is
    # its median over the rounds, so three outvote one slow round
    cli_min_rounds: int
    # the program is known to fail on some of these problems today: failed
    # operations are counted but do not make the run incorrect
    known_defects: bool = False


def every_subcommand(case: Case) -> list[tuple[str, Case]]:
    """All five subcommands on one file; map-ic rejects first-form conditions by design."""
    return [
        (sub, case) for sub in SUBCOMMANDS
        if sub != "map-ic" or case.data["conditions"]["kind"] == "previous"
    ]


def _modes(pairs) -> list[dict]:
    return [
        {"amp": [amp.real, amp.imag], "power": power, "rate": [rate.real, rate.imag]}
        for amp, power, rate in pairs
    ]


def random_signal(rng, kind: str) -> list[tuple[complex, int, complex]]:
    """Constant, affine, decaying exponential or sinusoid, as (amp, power, rate)."""
    if kind == "constant":
        return [(complex(rng.uniform(-2.0, 2.0)), 0, 0j)]
    if kind == "affine":
        return [(complex(rng.uniform(-2.0, 2.0)), 1, 0j), (complex(rng.uniform(-2.0, 2.0)), 0, 0j)]
    if kind == "exponential":
        return [(complex(rng.uniform(-2.0, 2.0)), 0, complex(rng.uniform(-2.0, 1.0)))]
    w = rng.uniform(0.5, 3.0)
    c, s = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
    amp = complex(0.5 * c, -0.5 * s)
    return [(amp, 0, 1j * w), (amp.conjugate(), 0, -1j * w)]


def random_poles(rng, count: int, box: float = 3.0) -> list[complex]:
    """`count` simple conjugate-closed poles, about 30% in complex pairs."""
    poles: list[complex] = []
    while len(poles) < count:
        if rng.random() < 0.3 and count - len(poles) >= 2:
            re, im = rng.uniform(-box, box), rng.uniform(0.3, box)
            poles += [complex(re, im), complex(re, -im)]
        else:
            poles.append(complex(rng.uniform(-box, box), 0.0))
    return poles


def _separation(points) -> float:
    pts = np.asarray(points, dtype=complex)
    gaps = np.abs(pts[:, None] - pts[None, :]) + np.diag(np.full(len(pts), np.inf))
    return float(gaps.min()) if len(pts) > 1 else np.inf


def _structure(char_poles, future) -> list:
    powers: dict[complex, int] = {}
    for _, power, rate in future:
        powers[rate] = max(powers.get(rate, 0), power + 1)
    return [(p, 1) for p in char_poles] + list(powers.items())


def _ode(char_poles, b) -> dict:
    a = np.real(np.poly(char_poles))[1:]
    return {"a": a.tolist(), "b": [float(x) for x in b]}


def equivalent_ssr(ode: dict, rng) -> dict:
    """A realization equivalent to the ODE by construction.

    Observable canonical form (ones on the subdiagonal, -a reversed in the
    last column, C = e_n, B_i = b_(n-i) - a_(n-i) b_0), with its states
    reversed and sign-flipped at random: an exact orthogonal similarity.
    """
    a, b = np.asarray(ode["a"]), np.asarray(ode["b"])
    n = len(a)
    A = np.zeros((n, n))
    A[np.arange(1, n), np.arange(n - 1)] = 1.0
    A[:, n - 1] = -a[::-1]
    B = np.array([b[n - i] - a[n - i - 1] * b[0] for i in range(n)])
    C = np.zeros(n)
    C[n - 1] = 1.0
    T = np.eye(n)[::-1] * rng.choice([-1.0, 1.0], size=n)[:, None]
    return {"A": (T @ A @ T.T).tolist(), "B": (T @ B).tolist(), "C": (C @ T.T).tolist(), "D": float(b[0])}


def small_case(rng, name: str, n: int, kind: str, horizon: float, points: int) -> Case:
    """Acceptance-criterion-5 style draw: every pole of Y(s) at least 0.2 apart."""
    while True:
        char = random_poles(rng, n)
        future = random_signal(rng, kind)
        past = random_signal(rng, INPUT_KINDS[int(rng.integers(0, 4))])
        rates = {rate for _, _, rate in future}
        if _separation(list(char) + list(rates)) > 0.2:
            break
    b = rng.uniform(-5.0, 5.0, n + 1)
    r = int(rng.integers(0, n + 1))
    b[:r] = 0.0
    if not np.any(b):
        b[-1] = 1.0
    ode = _ode(char, b)
    data = {
        "ode": ode,
        "input": {"past": _modes(past), "future": _modes(future)},
        "conditions": {"kind": "previous", "y": rng.uniform(-2.0, 2.0, n).tolist()},
        "horizon": horizon,
        "grid": points,
        "ssr": equivalent_ssr(ode, rng),
    }
    return Case(name, data, points, horizon, kind, _structure(char, future))


def small_cases(rng, count: int, horizon: float, points: int, prefix: str) -> list[Case]:
    """n cycles through 1..5 and the future-input kind through INPUT_KINDS.

    5 and 4 are coprime, so every 20 consecutive problems hold each
    (n, kind) pair once.
    """
    return [
        small_case(rng, f"{prefix}{i:03d}", 1 + i % 5, INPUT_KINDS[i % 4], horizon, points)
        for i in range(count)
    ]


# share of the time left after set-up and warm-up that goes to CLI runs
CLI_SHARE = 0.45

HIGH_ORDERS = (6, 8, 10, 12, 16)
HIGH_KINDS = ("even", "near-repeated", "conjugate")


def high_order_case(rng, name: str, n: int, kind: str) -> Case:
    """Poles on [-4, -0.5]: evenly spaced, in near-repeated pairs, or in conjugate pairs."""
    if kind == "even":
        char = [complex(p) for p in np.linspace(-4.0, -0.5, n)]
    elif kind == "near-repeated":
        gaps = 10.0 ** rng.uniform(-4.0, -2.0, n // 2)
        char = [complex(c + s * g / 2) for c, g in zip(np.linspace(-4.0, -0.5, n // 2), gaps) for s in (-1, 1)]
    else:
        ims = rng.uniform(0.3, 3.0, n // 2)
        char = [complex(c, s * w) for c, w in zip(np.linspace(-4.0, -0.5, n // 2), ims) for s in (1, -1)]
    ode = _ode(char, rng.uniform(-5.0, 5.0, n + 1))
    data = {
        "ode": ode,
        "input": {"past": "cos 1", "future": "ramp"},
        "conditions": {"kind": "previous", "y": rng.uniform(-2.0, 2.0, n).tolist()},
        "horizon": 10.0,
        "grid": 50,
        "ssr": equivalent_ssr(ode, rng),
    }
    return Case(name, data, 50, 10.0, kind, _structure(char, [(1, 1, 0j)]))


def shipped_cases(root: Path) -> list[Case]:
    """The example files under problems/, with their (simple, integer) pole structure."""
    cases = []
    for fname in SHIPPED:
        data = json.loads((root / "problems" / fname).read_text())
        a = np.asarray(data["ode"]["a"], dtype=float)
        char = [complex(round(p.real, 9), round(p.imag, 9)) for p in np.roots(np.r_[1.0, a])]
        future = data["input"]
        future = "step" if future == "step" else future["future"]
        rate_mult = {"ramp": [(0j, 2)], "step": [(0j, 1)]}[future]
        cases.append(
            Case(fname, data, data.get("grid", 200), float(data["horizon"]), future,
                 [(p, 1) for p in char] + rate_mult)
        )
    return cases


def build(name: str, seed: int, root: Path, scale: float = 1.0) -> Workload:
    """The named workload for this seed; `scale` < 1 shrinks it for the benchmark's own tests."""
    rng = np.random.default_rng([seed, sum(map(ord, name))])

    def count(k: int) -> int:
        return max(5, int(round(k * scale)))

    if name == "small-grid200":
        cases = small_cases(rng, count(250), 3.0, 200, "s")
        return Workload(name, cases, every_subcommand(cases[2]), CLI_SHARE, 3)
    if name == "dense-grid10k":
        cases = small_cases(rng, count(20), 3.0, 10_000, "d")
        return Workload(name, cases, every_subcommand(cases[4]), CLI_SHARE, 3)
    if name == "high-order":
        draws = max(1, int(round(4 * scale)))
        cases = [
            high_order_case(rng, f"h{n:02d}-{kind}-{j}", n, kind)
            for j in range(draws) for n in HIGH_ORDERS for kind in HIGH_KINDS
        ]
        # recover_state raises NotObservable for n >= 8, and the closed form
        # drifts from the reference from n ~ 10 (ROADMAP)
        return Workload(name, cases, every_subcommand(cases[3]), CLI_SHARE, 3, known_defects=True)
    if name == "cli-cold":
        shipped = shipped_cases(root)
        # the CLI runs use two of these files; the rest only widen the
        # in-process problem set, so that its percentiles are steady
        generated = small_cases(rng, count(20), 3.0, 200, "c")
        files = shipped if scale >= 1 else shipped[:1]
        pairs = [p for case in files for p in every_subcommand(case)] + [("check", c) for c in generated[3:5]]
        # 16 pairs: two rounds already fill most of the run
        return Workload(name, shipped + generated, pairs, 0.72, 2)
    raise KeyError(name)

