"""Executable documentation and the names the benchmark harness and the
scripts take from voss."""

import ast
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


def _voss_imports(path):
    """(module, name) of every voss import in a file, function bodies too;
    name is None for a plain ``import voss.x``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] == "voss":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "voss":
                    yield alias.name, None


def _resolves(module, name):
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return True
    try:  # `from voss import cli` names a submodule
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_voss_name_imported_by_bench_and_scripts_resolves():
    # bench/checks.py and scripts/make_feeders.py import inside functions,
    # so a deleted name would break them only when they run
    imports = {
        path.relative_to(ROOT).as_posix(): list(_voss_imports(path))
        for folder in ("bench", "scripts")
        for path in sorted((ROOT / folder).glob("*.py"))
    }
    assert imports["bench/checks.py"] and imports["scripts/make_feeders.py"]
    missing = [
        f"{rel}: {module}.{name}" if name else f"{rel}: {module}"
        for rel, names in imports.items()
        for module, name in names
        if not _resolves(module, name)
    ]
    assert missing == []
