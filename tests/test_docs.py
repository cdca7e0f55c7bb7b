"""Executable documentation and the names the benchmark harness and the
scripts take from voss."""

import argparse
import ast
import importlib
import re
from dataclasses import fields
from pathlib import Path

import pytest

from voss.cli import build_parser
from voss.feeder import _KIND_KEYS, _SEGMENT_KEYS, SegmentKind
from voss.sensors import CHAIN_KEYS, SensorChain

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize(
    "source", PYTHON_BLOCKS, ids=[f"block{k}" for k in range(len(PYTHON_BLOCKS))]
)
def test_readme_python_block_runs(source):
    exec(compile(source, "README.md", "exec"), {})


def test_readme_command_line_names_the_flags_the_parser_takes():
    section = re.search(r"^## Command line\n(.*?)^## ", README, re.M | re.S)[1]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    accepted = {option for parser in subcommands.choices.values()
                for action in parser._actions for option in action.option_strings
                if option.startswith("--")}
    assert documented - {"--help"} == accepted - {"--help"}


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


def test_no_voss_module_imports_a_private_name_of_another():
    # a rule such as the bits of a magnitude has one owner; a module that
    # needs it calls the owner's public name instead of borrowing a helper
    borrowed = [
        f"{path.name}: {'.' * node.level}{node.module or ''}.{alias.name}"
        for path in sorted((ROOT / "src" / "voss").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.split(".")[0] == "voss")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert borrowed == []


def _table_rows(doc, header):
    """The cells of each row of the markdown table in docs/doc under header."""
    lines = (ROOT / "docs" / doc).read_text().splitlines()
    rows = []
    for line in lines[lines.index(header) + 2 :]:  # past the |---| row
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_chain_config_key_table_lists_chain_config_keys_and_defaults():
    rows = _table_rows("sensor_chain_schema.md", "| key | default | meaning |")
    defaults = {key.strip("`"): default for key, default, _ in rows}
    assert set(defaults) == CHAIN_KEYS
    numbers = {
        f.name: f.default for f in fields(SensorChain) if isinstance(f.default, float)
    }
    assert sorted(numbers) == [
        "grid_step_s", "nominal_voltage_v", "smoothing_window_s", "tolerance_s"
    ]
    assert {key: float(defaults[key]) for key in numbers} == numbers


@pytest.mark.parametrize(
    "path", [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))],
    ids=lambda path: path.name,
)
def test_user_docs_name_no_private_identifier(path):
    # the user docs describe the public API: no backticked `_name`, dotted or not
    assert re.findall(r"`(?:\w+\.)*(_\w+)`", path.read_text()) == []


def test_feeder_kind_table_is_the_readers_table():
    rows = _table_rows("feeder_schema.md", "| kind | required | optional |")

    def keys(cell):
        return tuple(re.findall(r"`([^`]+)`", cell))

    documented = {
        SegmentKind(kind.strip("`")): (keys(required), keys(optional))
        for kind, required, optional in rows
    }
    assert documented == _KIND_KEYS


def test_feeder_common_keys_are_the_readers_common_keys():
    text = (ROOT / "docs" / "feeder_schema.md").read_text()
    listed = re.findall(r"`([^`]+)`", re.search(r"^Common keys: (.*?)\.$", text, re.M)[1])
    assert sorted(listed) == sorted(_SEGMENT_KEYS)


SOURCES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted((ROOT / "src" / "voss").glob("*.py"))}


def _loaded_names(tree):
    """Every name a tree reads, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_voss_module_imports_a_name_it_never_uses():
    # no linter runs on src/voss; a re-export others wrap is marked noqa: F401
    unused = []
    for name, tree in SOURCES.items():
        if name == "__init__.py":
            continue
        lines = (ROOT / "src" / "voss" / name).read_text().splitlines()
        used = set(_loaded_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{name}:{alias.lineno}: {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in used
                    and "# noqa: F401" not in lines[alias.lineno - 1]
                ]
    assert unused == []


def test_every_private_voss_module_name_is_used():
    # a module-level _name read nowhere in src/voss but by its own
    # definition is left over from removed code
    defined, reads = [], []
    for name, tree in SOURCES.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                targets = [n.id for t in stmt.targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
            else:
                targets = []
            defined += [(name, t, stmt) for t in targets
                        if t.startswith("_") and not t.startswith("__")]
            reads.append((stmt, set(_loaded_names(stmt))))
    unused = [f"{name}: {target}" for name, target, stmt in defined
              if not any(target in names for other, names in reads if other is not stmt)]
    assert unused == []
