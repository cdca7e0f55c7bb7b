"""Executable documentation and the names the benchmark harness wraps."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYTHON_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S
)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize(
    "source", PYTHON_BLOCKS, ids=[f"block{k}" for k in range(len(PYTHON_BLOCKS))]
)
def test_readme_python_block_runs(source):
    exec(compile(source, "README.md", "exec"), {})


def test_every_traced_boundary_resolves():
    # bench/tracing.py looks up each boundary even with tracing off, so a
    # renamed or removed attribute would crash every benchmark pass
    path = ROOT / "bench" / "tracing.py"
    namespace = {"__name__": "tracing"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in namespace["BOUNDARIES"]
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
