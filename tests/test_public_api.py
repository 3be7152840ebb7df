"""The top-level namespace is what README documents, README's example runs,
and every function the benchmark's tracer wraps still exists."""

import importlib
import re
from pathlib import Path

import ltivp

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def library_use_block() -> str:
    text = README.read_text()
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_runs():
    exec(compile(library_use_block(), str(README), "exec"), {})


def test_all_names_resolve():
    assert len(set(ltivp.__all__)) == len(ltivp.__all__)
    for name in ltivp.__all__:
        assert getattr(ltivp, name) is not None, name


def test_readme_lists_every_public_name():
    text = README.read_text()
    for name in ltivp.__all__:
        assert f"`{name}`" in text or re.search(rf"\b{name}\b", library_use_block()), name


def test_trace_targets_resolve():
    # perfbench/layers.py wraps these module attributes; a renamed one would
    # only show up as "absent" in a traced benchmark run
    path = ROOT / "perfbench" / "layers.py"
    layers = {"__name__": "perfbench_layers"}
    exec(compile(path.read_text(), str(path), "exec"), layers)
    for _, module, attr in layers["TARGETS"]:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_readme_constants_match_the_code():
    # Tolerances names each threshold as `module.NAME` = value
    named = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`(?:\s*=\s*([-+.\deE]+))?", README.read_text())
    assert named
    for module, name, value in named:
        actual = getattr(importlib.import_module(f"ltivp.{module}"), name, None)
        assert actual is not None, f"{module}.{name}"
        if value:
            assert actual == float(value), f"{module}.{name} = {actual}, README says {value}"
