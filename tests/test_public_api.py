"""The top-level namespace is what README documents, README's example and
command-line transcript run as shown, and every function the benchmark's
tracer wraps still exists."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import ltivp
from ltivp.cli import main
from ltivp.problemfile import load_problem
from ltivp.simulate import default_grid

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def library_use_block() -> str:
    text = README.read_text()
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_runs():
    exec(compile(library_use_block(), str(README), "exec"), {})


def test_readme_command_line_transcript_matches(capsys):
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    runs = re.findall(r"^\$ ltivp (\S+) (\S+)\n(.*?)(?=^\$ |\Z)", block, re.S | re.M)
    assert len(runs) == 3
    for sub, path, printed in runs:
        assert main([sub, str(ROOT / path)]) == 0
        assert capsys.readouterr().out == printed.rstrip("\n") + "\n", f"ltivp {sub} {path}"


def test_all_names_resolve():
    assert len(set(ltivp.__all__)) == len(ltivp.__all__)
    for name in ltivp.__all__:
        assert getattr(ltivp, name) is not None, name


def test_readme_lists_every_public_name():
    text = README.read_text()
    for name in ltivp.__all__:
        assert f"`{name}`" in text or re.search(rf"\b{name}\b", library_use_block()), name


def load_layers() -> dict:
    """The namespace of perfbench/layers.py, the benchmark's tracer."""
    path = ROOT / "perfbench" / "layers.py"
    layers = {"__name__": "perfbench_layers"}
    exec(compile(path.read_text(), str(path), "exec"), layers)
    return layers


def test_trace_targets_resolve():
    # perfbench/layers.py wraps these module attributes; a renamed one would
    # only show up as "absent" in a traced benchmark run
    for _, module, attr in load_layers()["TARGETS"]:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_traced_run_records_every_layer():
    # each per-layer metric of a traced benchmark run is read from these
    # spans; a layer reached other than through its wrapped name would read null.
    # The file has previous-form conditions and b_0 != 0, so every layer runs.
    import scipy.linalg

    layers = load_layers()
    expm = scipy.linalg.expm
    parsed = load_problem(ROOT / "problems" / "input_switch.json")
    grid = default_grid(parsed.problem.horizon)
    tracer = layers["Tracer"]()
    tracer.wrap_expm_before_import()
    try:
        tracer.attach()
        tracer.enable(True)
        y = ltivp.solve_ivp(parsed.problem)
        tracer.span("signal.Signal.eval_grid", y, grid)
        ltivp.simulate_ivp(parsed.problem, grid)
    finally:
        tracer.enable(False)
    assert scipy.linalg.expm is expm
    assert tracer.absent == []
    for name, _, _ in layers["TARGETS"]:
        assert tracer.named(name), name
    assert tracer.named(layers["EXPM"])
    steps = tracer.named("simulate.simulate")
    assert any(s[layers["SIG_CALLS"]] > 0 for s in steps)


def public_numeric_constants() -> list[tuple[str, str]]:
    """(module, NAME) of every public numeric constant a module of ltivp defines."""
    found = []
    for info in pkgutil.iter_modules(ltivp.__path__):
        module = importlib.import_module(f"ltivp.{info.name}")
        for node in ast.parse(Path(module.__file__).read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                if not isinstance(target, ast.Name) or target.id.startswith("_"):
                    continue
                value = getattr(module, target.id)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    found.append((info.name, target.id))
    return found


def test_readme_constants_match_the_code():
    # Tolerances names each threshold as `module.NAME` = value
    named = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`(?:\s*=\s*([-+.\deE]+))?", README.read_text())
    assert named
    for module, name, value in named:
        actual = getattr(importlib.import_module(f"ltivp.{module}"), name, None)
        assert actual is not None, f"{module}.{name}"
        if value:
            assert actual == float(value), f"{module}.{name} = {actual}, README says {value}"
    with_value = {(module, name) for module, name, value in named if value}
    constants = public_numeric_constants()
    assert ("ic", "JUMP_TOL") in constants
    for module, name in constants:
        assert (module, name) in with_value, f"README does not give `{module}.{name}` = value"
