"""The ltivp benchmark: both solution routes over three problem regimes plus CLI cold start.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's own src/ (the run refuses to start if ltivp resolves anywhere
else), and CLI runs are fresh `python -m ltivp.cli` interpreters with
PYTHONPATH pointed at the same src/.

Every workload is one problem regime measured on three paths, in one
process, one call at a time (a closed loop with one client, no threads):

  * closed form: `solve_ivp(problem)` plus evaluating the returned Signal
    on the problem's grid;
  * state space: `simulate_ivp(problem, grid)`;
  * CLI: fresh-interpreter runs of the five subcommands on problem files
    of the regime.

The whole run, from the start of this process, is meant to take --seconds.
It first times set-up: the median of four fresh processes that import
ltivp and parse the problem dicts.  Then an untimed warm-up pass over the
problems builds the references.  What time is left is shared between
whole timed passes over the problems and whole rounds over the workload's
(subcommand, file) pairs; another pass or round starts only if it should
end in time.  The CLI rounds come first and the passes after them.  The run
always makes three CLI rounds (two on cli-cold) and one timed pass, so on a
slow machine it can take longer than --seconds.  Every time is scaled to a
nominal machine by a calibration job timed next to it (speed.py), because
the shared machines drift in speed by up to 1.8x.  In a pass, calls
shorter than MIN_CALL_S are repeated and timed by their median.  Each
problem's (pair's) time is its median over the passes (rounds), and p50/p90
are taken across problems (pairs).  peak_rss_mb is this process's peak resident memory.

Every result is checked.  When the two routes agree within
1e-8 + 1e-6 |y| at every grid point, both pass; otherwise a 40-digit mpmath
reference (mpref.py) decides at the disputed points.  An operation is one
route on one problem, or one subcommand on one file, so the number of
operations is fixed by the workload.  It is judged in every pass (round)
and fails if it raises, exits non-zero, or misses the reference at a checked
point in any of them.  The run is not `correct` if some result could not be
judged at all (no reference, output of the wrong shape or format), or if an
operation failed on a workload where the program has no known defect.

With --trace 1 the run reports per-layer metrics instead (layers.py): an
untraced half and a traced half over the same problems, and CLI runs through
cli_probe.py.  The last line of standard output is the result JSON; the line
before it is a report with the environment, the workload's make-up, the
operation counts and the time each phase took.  Spans and the report are
also written to .perfbench_out/.
"""

from __future__ import annotations

import os
import time

STARTED = time.perf_counter()

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import draws  # noqa: E402
import layers  # noqa: E402
import mpref  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

ATOL, RTOL = 1e-8, 1e-6
MAX_CHECK_POINTS = 64
# route calls shorter than this are repeated within a pass (one_pass)
MIN_CALL_S = 0.005
# a call is scaled by the median of the kernel times this many calls on each
# side of it: local enough to follow the machine's speed, and proof against
# one kernel call that an interrupt stretched
KERNEL_WINDOW = 2
SETUP_PROBES = 4
CAL_EVERY = 2  # fresh processes between two calibration children
TRACE_REF_SAMPLE = 8
CHILD_TIMEOUT_S = 120
WORKLOADS = ("small-grid200", "dense-grid10k", "high-order", "cli-cold")


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, wrong package, broken child)."""


class Unjudged(Exception):
    """A result that cannot be compared with its reference."""


@dataclass
class Check:
    """What a result for one problem must match: ref at grid indices idx."""

    idx: np.ndarray
    ref: np.ndarray
    consulted: bool


def within(values, check: Check | None, length: int) -> bool:
    if check is None:
        raise Unjudged("no reference")
    if np.shape(values) != (length,):
        raise Unjudged(f"output of shape {np.shape(values)}, want ({length},)")
    got = values[check.idx]
    return bool(np.all(np.abs(got - check.ref) <= ATOL + RTOL * np.abs(check.ref)))


def spaced(length: int, count: int = MAX_CHECK_POINTS) -> np.ndarray:
    return np.unique(np.linspace(0, length - 1, min(count, length)).round().astype(int))


def percentile(values, q: int) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # compiled modules are cached as for any installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_children(cmds, env: dict, stdin: bytes | None = None, cal_every: int = 0,
                 before: float | None = None) -> tuple[list[tuple], float | None]:
    """Run the commands one at a time as fresh processes.

    Returns (start, wall seconds, calibration seconds, process) for each,
    and the last calibration sample; start is on CLOCK_MONOTONIC and the
    process is None if it timed out.  With cal_every > 0 a calibration
    child (speed.child_sample) runs after every cal_every-th command and,
    unless `before` gives the sample taken just before, before the first;
    a command's calibration is the mean of the two samples around its
    block.  Without calibration it is None.
    """
    out, block = [], []
    if cal_every and before is None:
        before = speed.child_sample(env, ROOT, CHILD_TIMEOUT_S)
    for k, cmd in enumerate(cmds):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(cmd, input=stdin, capture_output=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
        if not cal_every:
            out.append((t0, wall, None, proc))
            continue
        block.append((t0, wall, proc))
        if len(block) == cal_every or k == len(cmds) - 1:
            after = speed.child_sample(env, ROOT, CHILD_TIMEOUT_S)
            out += [(start, wall, (before + after) / 2.0, p) for start, wall, p in block]
            before, block = after, []
    return out, before


def import_checkout(trace: bool):
    """Import ltivp from this checkout's src/; with tracing, wrap expm first."""
    src = ROOT / "src"
    if not (src / "ltivp" / "__init__.py").is_file():
        raise BenchError(f"no ltivp package under {src}")
    sys.path.insert(0, str(src))
    tracer = layers.Tracer() if trace else None
    if tracer is not None:
        tracer.wrap_expm_before_import()
    import ltivp
    import ltivp.problemfile

    if src.resolve() not in Path(ltivp.__file__).resolve().parents:
        raise BenchError(f"ltivp was imported from {ltivp.__file__}, outside {src}")
    if tracer is not None:
        tracer.attach()
    return ltivp, tracer


class Bench:
    def __init__(self, ltivp, workload: draws.Workload, tracer):
        self.lt = ltivp
        self.wl = workload
        self.cases = workload.cases
        self.tracer = tracer
        self.grids = [c.grid() for c in self.cases]
        self.problems = [ltivp.problemfile.parse_problem(c.data).problem for c in self.cases]
        # problem index -> its check; None where no reference could be built
        self.checks: dict[int, Check | None] = {}
        self.refs: dict[int, mpref.Reference] = {}
        # (route, problem index or CLI pair) -> passed every judgement so far
        self.passed: dict[tuple, bool] = {}
        self.judgements = Counter()
        self.errors = Counter()
        self.unjudged = Counter()
        self.gap_ratio_max = 0.0
        self.ref_rel_err: list[float] = []
        self.cli_stdout: dict[tuple[str, str], bytes] = {}
        self.current = 0
        OUT.mkdir(exist_ok=True)

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.on

    # -- judging --------------------------------------------------------------

    def judge(self, route: str, key, test) -> None:
        """Record one judgement of the operation (route, key); test() says if its result is right.

        If test() raises, the result could not be judged: the operation
        fails and the run is not correct.
        """
        try:
            ok = bool(test())
        except Exception as exc:  # no reference, or output of the wrong shape or format
            ok = False
            self.unjudged[f"{route}:{type(exc).__name__}"] += 1
        self.judgements[route, "attempted"] += 1
        self.judgements[route, "failed"] += not ok
        self.passed[route, key] = self.passed.get((route, key), True) and ok

    def correct(self) -> bool:
        failed = not all(self.passed.values())
        return not self.unjudged and (self.wl.known_defects or not failed)

    # -- references -----------------------------------------------------------

    def reference(self, i: int) -> mpref.Reference:
        if i not in self.refs:
            self.refs[i] = mpref.Reference(self.cases[i].data)
        return self.refs[i]

    def consult(self, i: int, idx: np.ndarray, *routes) -> Check | None:
        """The mpmath reference at grid indices idx; None (and counted) if it cannot be built."""
        try:
            ref = np.array(self.reference(i)(self.grids[i][idx]))
        except Exception as exc:  # a reference that cannot be built leaves the problem unjudged
            self.unjudged[f"reference:{type(exc).__name__}"] += 1
            return None
        scale = max(float(np.max(np.abs(ref))), ATOL)
        for values in routes:
            if values is not None and np.shape(values) == self.grids[i].shape:
                self.ref_rel_err.append(float(np.max(np.abs(values[idx] - ref))) / scale)
        return Check(idx, ref, True)

    def build_check(self, i: int, closed, stepped) -> Check | None:
        """Both routes agree: their values are the reference; else ask mpmath."""
        length = len(self.grids[i])
        usable = [
            v if v is not None and np.shape(v) == (length,) and np.all(np.isfinite(v)) else None
            for v in (closed, stepped)
        ]
        if usable[0] is not None and usable[1] is not None:
            ratio = np.abs(usable[1] - usable[0]) / (ATOL + RTOL * np.abs(usable[0]))
            self.gap_ratio_max = max(self.gap_ratio_max, float(ratio.max()))
            if ratio.max() <= 1.0:
                return Check(np.arange(length), usable[0].copy(), False)
            worst = np.argsort(ratio)[::-1][:MAX_CHECK_POINTS]
            idx = np.sort(worst[ratio[worst] > 1.0])
        else:
            idx = spaced(length)
        return self.consult(i, idx, *usable)

    # -- in-process routes ----------------------------------------------------

    def _solve(self, i: int):
        y = self.lt.solve_ivp(self.problems[i])
        if self.tracing:
            return self.tracer.span("signal.Signal.eval_grid", y, self.grids[i])
        return y(self.grids[i])

    def _simulate(self, i: int):
        return self.lt.simulate_ivp(self.problems[i], self.grids[i]).outputs

    def _op(self, route: str, fn, i: int):
        t0 = time.perf_counter()
        try:
            if self.tracing:
                values = self.tracer.span("route." + route, fn, i)
            else:
                values = fn(i)
            values = np.asarray(values, dtype=float)
        except Exception as exc:  # any raise is a failed operation, counted by type
            values = None
            self.errors[f"{route}:{type(exc).__name__}"] += 1
        return time.perf_counter() - t0, values

    def one_pass(self, pass_no: int, timed: bool) -> dict | None:
        """One closed-loop pass over the problems; returns its times when timed.

        In a timed pass a call that returns in less than MIN_CALL_S is
        repeated until its calls add up to that, and its time is their
        median.  The calibration kernel is timed right after every call
        (group); the median of the kernel times nearest a call, in a window
        of KERNEL_WINDOW on each side, scales it to the nominal machine
        (speed.py).
        """
        times = {"solve": [], "simulate": [], "kernel": []} if timed else None
        for i in range(len(self.cases)):
            self.current = i
            results = {}
            for route, fn in (("solve", self._solve), ("simulate", self._simulate)):
                calls = []
                while not calls or (timed and results[route] is not None and sum(calls) < MIN_CALL_S):
                    if self.tracing:
                        self.tracer.op = f"{pass_no}:{i}:{route}:{len(calls)}"
                    dt, results[route] = self._op(route, fn, i)
                    calls.append(dt)
                if timed:
                    times[route].append(statistics.median(calls))
                    times["kernel"].append(speed.sample())
            if i not in self.checks:
                self.checks[i] = self.build_check(i, results["solve"], results["simulate"])
            length = len(self.grids[i])
            for route, values in results.items():
                self.judge(route, i, lambda: values is not None and within(values, self.checks[i], length))
        if timed:
            kernel = times["kernel"]
            local = [statistics.median(kernel[max(0, j - KERNEL_WINDOW):j + KERNEL_WINDOW + 1])
                     for j in range(len(kernel))]
            times["solve_scale"] = [speed.KERNEL_NOMINAL_S / k for k in local[0::2]]
            times["simulate_scale"] = [speed.KERNEL_NOMINAL_S / k for k in local[1::2]]
        return times

    def warm_up(self) -> None:
        """An untimed pass: lazy set-up finishes and the references are built."""
        self.one_pass(0, timed=False)

    def passes(self, deadline: float) -> list[dict]:
        """Timed whole passes, at least one; another starts only if it should end by deadline."""
        start = time.perf_counter()
        timed = [self.one_pass(1, timed=True)]
        while time.perf_counter() + (time.perf_counter() - start) / len(timed) <= deadline:
            timed.append(self.one_pass(len(timed) + 1, timed=True))
        return timed

    # -- CLI ------------------------------------------------------------------

    def cli_pairs(self) -> list[tuple[str, int, Path]]:
        """(subcommand, problem index, file); generated problems are written to OUT."""
        pairs = []
        for sub, case in self.wl.cli_pairs:
            if case.name in draws.SHIPPED:
                path = ROOT / "problems" / case.name
            else:
                path = OUT / f"{self.wl.name}-{case.name}.json"
                path.write_text(json.dumps(case.data))
            pairs.append((sub, self.cases.index(case), path))
        return pairs

    def cli_ok(self, sub: str, i: int, path: Path, proc) -> bool:
        """Whether one CLI run is right; raises if its output cannot be read."""
        if proc is None:
            self.errors[f"cli-{sub}:timeout"] += 1
            return False
        if proc.returncode != 0:
            self.errors[f"cli-{sub}:exit{proc.returncode}"] += 1
            return False
        first = self.cli_stdout.setdefault((sub, str(path)), proc.stdout)
        if proc.stdout != first:
            self.errors[f"cli-{sub}:output-changed"] += 1
            return False
        text = proc.stdout.decode()
        if sub == "simulate":
            rows = text.splitlines()[1:]
            y = np.array([float(r.split(",")[1]) for r in rows])
            return within(y, self.checks[i], len(self.grids[i]))
        if sub == "check":
            return "equivalent: yes" in text
        if sub == "map-ic":
            last = text.strip().splitlines()[-1]
            got = np.array(json.loads(last.split("=", 1)[1]), dtype=float)
            want = np.array(self.reference(i).derivatives_at_zero(self.cases[i].n)[::-1])
            if got.shape != want.shape:
                raise Unjudged(f"map-ic printed {got.shape[0] if got.ndim else 0} values, want {want.shape[0]}")
            return bool(np.all(np.abs(got - want) <= ATOL + RTOL * np.abs(want)))
        return True

    def cli_phase(self, deadline: float, traced: bool) -> tuple[list[dict], list[dict]]:
        """Whole rounds over the (subcommand, file) pairs, the workload's cli_min_rounds at least.

        Another round starts only if it should end by deadline.  Untraced
        runs are calibrated (run_children, every CAL_EVERY runs).
        Returns the rounds, each a dict of (wall, calibration) seconds per
        pair, and, when traced, the probe records.
        """
        pairs = self.cli_pairs()
        env = child_env()
        cmds = []
        for k, (sub, _, path) in enumerate(pairs):
            if traced:
                cmds.append([sys.executable, str(HERE / "cli_probe.py"), str(OUT / f"cli_probe-{k}.json"), sub, str(path)])
            else:
                cmds.append([sys.executable, "-m", "ltivp.cli", sub, str(path)])
        rounds: list[dict] = []
        probes = []
        cal = None
        start = time.perf_counter()
        while len(rounds) < self.wl.cli_min_rounds or (
                time.perf_counter() + (time.perf_counter() - start) / len(rounds) <= deadline):
            runs = {}
            rounds.append(runs)
            results, cal = run_children(cmds, env, cal_every=0 if traced else CAL_EVERY, before=cal)
            for k, ((sub, i, path), (_, wall, cal, proc)) in enumerate(zip(pairs, results)):
                key = f"{sub} {path.name}"
                runs[key] = (wall, cal)
                self.judge("cli", key, lambda: self.cli_ok(sub, i, path, proc))
                probe_out = OUT / f"cli_probe-{k}.json"
                if traced and probe_out.exists():
                    probes.append(dict(json.loads(probe_out.read_text()), sub=sub))
                    probe_out.unlink()
        return rounds, probes

    def setup_times(self) -> list[tuple[float, float]]:
        """Fresh processes that import ltivp and parse the problem dicts; the first warms caches.

        Returns (seconds, calibration seconds) per timed probe, calibrated
        every CAL_EVERY probes (run_children).
        """
        payload = json.dumps([c.data for c in self.cases]).encode()
        cmd = [sys.executable, str(HERE / "setup_probe.py")]
        samples = []
        results, _ = run_children([cmd] * (SETUP_PROBES + 1), child_env(), payload, cal_every=CAL_EVERY)
        for start, _, cal, proc in results:
            if proc is None or proc.returncode != 0:
                raise BenchError("set-up probe failed: " + (proc.stderr.decode()[-500:] if proc else "timeout"))
            info = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            if (ROOT / "src").resolve() not in Path(info["ltivp"]).resolve().parents:
                raise BenchError(f"set-up probe imported ltivp from {info['ltivp']}")
            samples.append((info["ready"] - start, cal))
        return samples[1:]

    # -- report ---------------------------------------------------------------

    def ops_report(self) -> dict:
        """Operations, each counted once; `judgements` counts every pass and round."""
        routes = sorted({r for r, _ in self.passed})
        by_route = {
            r: {
                "attempted": sum(1 for (route, _) in self.passed if route == r),
                "failed": sum(1 for (route, _), ok in self.passed.items() if route == r and not ok),
            }
            for r in routes
        }
        attempted = len(self.passed)
        failed = sum(1 for ok in self.passed.values() if not ok)
        return {
            "ops_attempted": attempted,
            "ops_failed": failed,
            "failed_fraction": failed / attempted if attempted else None,
            "by_route": by_route,
            "judgements": {r: {"attempted": self.judgements[r, "attempted"], "failed": self.judgements[r, "failed"]}
                           for r in routes},
            "errors": dict(self.errors),
            "unjudged": dict(self.unjudged),
            "known_defects": self.wl.known_defects,
            "references_consulted": sum(1 for c in self.checks.values() if c is not None and c.consulted),
        }


def median_percentiles(samples: dict, prefix: str) -> dict[str, float]:
    """p50 and p90 in ms, across items, of each item's median over its samples."""
    medians = [statistics.median(v) * 1e3 for v in samples.values()]
    return {f"{prefix}_ms_p50": percentile(medians, 50), f"{prefix}_ms_p90": percentile(medians, 90)}


def route_percentiles(passes: list[dict], scaled: bool = True) -> dict[str, float]:
    """Per route, p50/p90 across problems of each problem's median over the passes."""
    out = {}
    for route in ("solve", "simulate"):
        samples = {
            i: [p[route][i] * (p[route + "_scale"][i] if scaled else 1.0) for p in passes]
            for i in range(len(passes[0][route]))
        }
        out.update(median_percentiles(samples, route))
    return out


def cli_percentiles(rounds: list[dict], scaled: bool = True) -> dict[str, float]:
    """p50/p90 across (subcommand, file) pairs of each pair's median over the rounds."""
    samples = {
        pair: [wall * (speed.IMPORT_NOMINAL_S / cal if scaled else 1.0) for wall, cal in (r[pair] for r in rounds)]
        for pair in rounds[0]
    }
    return median_percentiles(samples, "cli")


class Phases(dict):
    """Seconds each phase of the run took."""

    def __init__(self):
        super().__init__()
        self.last = time.perf_counter()
        self["start"] = self.last - STARTED

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        self[name] = now - self.last
        self.last = now


def cli_deadline(bench: Bench, deadline: float) -> float:
    """When the CLI rounds should end: the workload's cli_share of the time left.

    The CLI rounds come first, so the passes after them, which are far
    shorter, absorb what the minimum rounds overran.
    """
    now = time.perf_counter()
    return now + (deadline - now) * bench.wl.cli_share


def run_plain(bench: Bench, deadline: float, phases: Phases) -> tuple[dict, dict]:
    """End-to-end metrics scaled to the nominal machine (speed.py), and the raw samples."""
    setup = bench.setup_times()
    phases.mark("setup")
    bench.warm_up()
    phases.mark("warm_up")
    rounds, _ = bench.cli_phase(cli_deadline(bench, deadline), traced=False)
    phases.mark("cli")
    passes = bench.passes(deadline)
    phases.mark("passes")
    metrics = route_percentiles(passes)
    metrics.update(cli_percentiles(rounds))
    metrics["setup_s"] = statistics.median(t * speed.IMPORT_NOMINAL_S / cal for t, cal in setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = dict(route_percentiles(passes, scaled=False), **cli_percentiles(rounds, scaled=False))
    raw["setup_s"] = statistics.median(t for t, _ in setup)
    units = {"setup_s": "s", "peak_rss_mb": "MB"}
    samples = {
        "passes": passes,
        "cli_rounds": [{pair: list(v) for pair, v in r.items()} for r in rounds],
        "setup": setup,
    }
    return (
        {name: {"value": value, "unit": units.get(name, "ms")} for name, value in metrics.items()},
        {"unscaled": raw, "samples": samples},
    )


def run_traced(bench: Bench, deadline: float, phases: Phases) -> dict:
    tracer = bench.tracer
    tracer.enable(False)
    bench.warm_up()
    phases.mark("warm_up")
    _, probes = bench.cli_phase(cli_deadline(bench, deadline), traced=True)
    phases.mark("cli")
    half = (deadline - time.perf_counter()) / 2.0
    plain = route_percentiles(bench.passes(time.perf_counter() + half))
    for i in range(min(TRACE_REF_SAMPLE, len(bench.cases))):
        if bench.checks[i] is not None and not bench.checks[i].consulted:
            results = [bench._op(route, fn, i)[1] for route, fn in (("solve", bench._solve), ("simulate", bench._simulate))]
            bench.consult(i, spaced(len(bench.grids[i]), 16), *results)
    phases.mark("plain_passes")
    tracer.enable(True)
    # the multiplicities poly_roots returns, per call, with the problem it was called for
    multiplicities = []
    poly = sys.modules.get("ltivp.poly")
    traced_roots = getattr(poly, "poly_roots", None)
    if traced_roots is not None:
        def poly_roots(*args, **kwargs):
            roots = traced_roots(*args, **kwargs)
            multiplicities.append((bench.current, [m for _, m in roots]))
            return roots

        poly.poly_roots = poly_roots
    try:
        traced = route_percentiles(bench.passes(deadline))
    finally:
        if traced_roots is not None:
            poly.poly_roots = traced_roots
        tracer.enable(False)
    phases.mark("traced_passes")
    match = [sorted(got) == sorted(m for _, m in bench.cases[i].poles) for i, got in multiplicities]
    return layer_metrics(bench, plain, traced, match, probes)


def layer_metrics(bench: Bench, plain: dict, traced: dict, match: list, probes: list[dict]) -> dict:
    tracer = bench.tracer
    us, ms = 1e6, 1e3
    m: dict[str, tuple[float | None, str]] = {}

    def stat(name, scale, unit, fn=layers.duration, metric=None):
        spans = tracer.named(name)
        m[metric or f"{name}.{unit}_p50"] = (layers.median(fn(s) * scale for s in spans), unit)

    stat("signal.laplace_transform", us, "us")
    stat("laplace.assemble", us, "us")
    stat("signal.from_partial_fractions", us, "us")
    stat("poly.poly_roots", us, "us")
    stat("poly.partial_fractions", us, "us", layers.self_time, "poly.partial_fractions.self_us_p50")
    m["poly.poly_roots.multiplicity_match"] = (sum(match) / len(match) if match else None, "ratio")
    stat("signal.Signal.eval_grid", ms, "ms")
    stat("ic.map_previous_to_first", us, "us")
    stat("realization.observable_canonical", us, "us")
    stat("ic.recover_state", us, "us")
    raised_cases = {s[layers.OP].split(":")[1] for s in tracer.named("ic.recover_state") if s[layers.RAISED]}
    m["ic.recover_state.raised"] = (len(raised_cases), "count")

    sim_ops = [s[layers.OP] for s in tracer.named("route.simulate")]
    expm_spans = tracer.named(layers.EXPM)
    m["simulate.expm.calls_per_problem"] = (
        layers.median(layers.per_op(expm_spans, lambda s: 1, sim_ops)) if expm_spans else None, "count")
    stat(layers.EXPM, ms, "ms")
    stat("simulate.simulate", ms, "ms", layers.self_time, "simulate.simulate.self_ms_p50")
    steps = tracer.named("simulate.simulate")
    m["signal.Signal.calls_per_problem"] = (
        layers.median(s[layers.SIG_CALLS] for s in steps) if layers.SIGNAL_CALL not in tracer.absent else None,
        "count")

    m["cli.import_ltivp.ms_p50"] = (layers.median(p["import_s"] * ms for p in probes), "ms")
    for sub in draws.SUBCOMMANDS:
        m[f"cli.main.{sub}.ms_p50"] = (layers.median(p["main_s"] * ms for p in probes if p["sub"] == sub), "ms")
    loads = [t * us for p in probes if p["load_s"] is not None for t in p["load_s"]]
    m["problemfile.load_problem.us_p50"] = (layers.median(loads), "us")

    m["accuracy.route_gap_ratio_max"] = (bench.gap_ratio_max, "ratio")
    m["accuracy.ref_rel_err_max"] = (max(bench.ref_rel_err) if bench.ref_rel_err else None, "ratio")
    m["trace.solve_overhead"] = (traced["solve_ms_p50"] / plain["solve_ms_p50"] - 1.0, "ratio")
    m["trace.simulate_overhead"] = (traced["simulate_ms_p50"] / plain["simulate_ms_p50"] - 1.0, "ratio")

    out = {}
    for name, (value, unit) in m.items():
        out[name] = {"value": value, "unit": unit}
        if value is None:
            out[name]["absent"] = True
    return out


def environment() -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def describe(workload: draws.Workload) -> dict:
    grids = {c.points: c.grid() for c in workload.cases}
    return {
        "problems": len(workload.cases),
        "cli_runs": [f"{sub} {case.name}" for sub, case in workload.cli_pairs],
        "n_histogram": dict(sorted(Counter(c.n for c in workload.cases).items())),
        "grid_points": sorted(grids),
        "distinct_grid_steps": {p: len(set(np.diff(np.r_[0.0, g]).tolist())) for p, g in grids.items()},
        "input_kinds": dict(Counter(c.kind for c in workload.cases)),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the workload (the benchmark's own tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = STARTED + args.seconds
    try:
        ltivp, tracer = import_checkout(bool(args.trace))
        workload = draws.build(args.workload, args.seed, ROOT, args.scale)
        bench = Bench(ltivp, workload, tracer)
        phases = Phases()
        if tracer is not None:
            metrics, extra = run_traced(bench, deadline, phases), {}
        else:
            metrics, extra = run_plain(bench, deadline, phases)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    ops = bench.ops_report()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ltivp": ltivp.__file__, "environment": environment(), "workload_info": describe(workload),
        "ops": ops, "phase_s": phases, "unscaled": extra.get("unscaled"), "claim": None,
    }
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(report, metrics=metrics, samples=extra.get("samples"))))
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": bench.correct(), "attempted": ops["ops_attempted"], "failed": ops["ops_failed"], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
