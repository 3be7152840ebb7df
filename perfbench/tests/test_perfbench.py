"""The benchmark's own tests: metric names, failure accounting and seeding.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import draws  # noqa: E402
import layers  # noqa: E402
import mpref  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--scale", "0.02"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass_emits_every_metric(workload, trace):
    proc = bench_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    ops = report["ops"]
    assert (ops["ops_attempted"], ops["ops_failed"]) == (result["attempted"], result["failed"])


@pytest.fixture(scope="module")
def bench():
    ltivp, _ = run.import_checkout(trace=False)
    return run.Bench(ltivp, draws.build("small-grid200", 5, ROOT, scale=0.02), None)


def fresh_pass(bench, passes=1):
    """Forget earlier judgements and references, then make `passes` untimed passes."""
    bench.checks.clear()
    bench.passed.clear()
    bench.judgements.clear()
    bench.errors.clear()
    bench.unjudged.clear()
    for k in range(passes):
        bench.one_pass(k, timed=False)
    return bench.ops_report()


def test_perturbed_result_fails(bench):
    solve = run.Bench._solve
    bench._solve = lambda i: solve(bench, i) * (1 + 1e-5) + 1e-7
    try:
        ops = fresh_pass(bench)
    finally:
        del bench._solve
    assert ops["by_route"]["solve"] == {"attempted": len(bench.cases), "failed": len(bench.cases)}
    assert ops["by_route"]["simulate"]["failed"] == 0
    assert all(check.consulted for check in bench.checks.values())
    assert not bench.correct()


def test_raising_call_fails(bench):
    def broken(i):
        raise RuntimeError("broken route")

    bench._simulate = broken
    try:
        ops = fresh_pass(bench)
    finally:
        del bench._simulate
    assert ops["by_route"]["simulate"]["failed"] == len(bench.cases)
    assert ops["errors"]["simulate:RuntimeError"] == len(bench.cases)
    assert ops["by_route"]["solve"]["failed"] == 0
    assert not bench.correct()


def test_untouched_routes_pass(bench):
    ops = fresh_pass(bench)
    assert ops["ops_failed"] == 0 and ops["unjudged"] == {}
    assert bench.correct()


def test_operations_counted_once_failed_if_any_pass_fails(bench):
    solve, calls = run.Bench._solve, []

    def second_pass_wrong(i):
        calls.append(i)
        values = solve(bench, i)
        return values + 1.0 if i == 0 and calls.count(0) == 2 else values

    bench._solve = second_pass_wrong
    try:
        ops = fresh_pass(bench, passes=3)
    finally:
        del bench._solve
    assert ops["ops_attempted"] == 2 * len(bench.cases)
    assert ops["ops_failed"] == 1
    assert ops["judgements"]["solve"] == {"attempted": 3 * len(bench.cases), "failed": 1}


def test_known_defects_keep_the_run_correct(bench):
    bench._simulate = lambda i: 1 / 0
    try:
        fresh_pass(bench)
        bench.wl.known_defects = True
        assert bench.correct()
    finally:
        bench.wl.known_defects = False
        del bench._simulate
    assert not bench.correct()


def test_output_of_wrong_shape_is_unjudged(bench):
    solve = run.Bench._solve
    bench._solve = lambda i: solve(bench, i)[:-1]
    try:
        ops = fresh_pass(bench)
    finally:
        del bench._solve
    assert ops["by_route"]["solve"]["failed"] == len(bench.cases)
    assert ops["unjudged"]
    bench.wl.known_defects = True
    try:
        assert not bench.correct()
    finally:
        bench.wl.known_defects = False


def test_reference_error_is_unjudged(bench, monkeypatch):
    def no_reference(problem):
        raise ValueError("no reference")

    monkeypatch.setattr(mpref, "Reference", no_reference)
    bench.refs.clear()
    bench._simulate = lambda i: 1 / 0
    try:
        ops = fresh_pass(bench)
    finally:
        del bench._simulate
    assert ops["unjudged"]["reference:ValueError"] == len(bench.cases)
    assert ops["by_route"]["solve"]["failed"] == len(bench.cases)
    assert not bench.correct()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_same_seed_same_inputs(workload):
    def dump(seed):
        return json.dumps([(c.name, c.data, c.points, c.horizon) for c in draws.build(workload, seed, ROOT).cases])

    assert dump(7) == dump(7)
    assert dump(7) != dump(8)


@pytest.mark.parametrize("name", draws.SHIPPED)
def test_reference_matches_shipped_examples(name):
    import ltivp
    from ltivp.problemfile import load_problem

    data = json.loads((ROOT / "problems" / name).read_text())
    grid = np.linspace(0.03, 3.0, 100)
    closed = ltivp.solve_ivp(load_problem(str(ROOT / "problems" / name)).problem)(grid)
    np.testing.assert_allclose(mpref.Reference(data)(grid), closed, rtol=1e-10, atol=1e-12)


def test_refuses_directory_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("small-grid200", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_layer_is_reported_absent(monkeypatch):
    import ltivp.laplace

    monkeypatch.delattr(ltivp.laplace, "assemble")
    tracer = layers.Tracer()
    tracer.attach()
    assert "laplace.assemble" in tracer.absent
    assert all(attr != "assemble" for _, attr, _, _ in tracer.patches)
