"""The names the benchmark reaches into sentipipe by, checked without running it.

perfbench/tracing.py patches every (module, function) in its TARGETS, and
perfbench/workloads.py calls ``sp.<name>`` on the package root. Both files are
parsed here, not imported, so a trim of the package that drops one of these
names fails in this suite and not only in the benchmark's own tests.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sentipipe

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"), filename=name)


def _targets() -> list[tuple[str, str]]:
    """(module, function) of each entry of tracing.TARGETS."""
    for node in ast.walk(_tree("tracing.py")):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(n, ast.Name) and n.id == "TARGETS" for n in names):
                return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def _root_names() -> set[str]:
    """Every attribute read off ``sp`` (import sentipipe as sp) in workloads.py."""
    return {node.attr for node in ast.walk(_tree("workloads.py"))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "sp"}


TARGETS = _targets()
ROOT_NAMES = sorted(_root_names())


def test_the_pins_were_found():
    assert len(TARGETS) > 20
    assert {"generate", "run_stages", "evaluate_kpis"} <= set(ROOT_NAMES)


@pytest.mark.parametrize("module, function", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_every_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"sentipipe.{module}"), function))


@pytest.mark.parametrize("name", ROOT_NAMES)
def test_every_workload_name_is_on_the_package_root(name):
    assert hasattr(sentipipe, name)


def test_importing_the_package_loads_every_traced_module():
    # a fresh interpreter, as this one has imported every submodule already,
    # that finds the package where this one did
    src = str(Path(sentipipe.__file__).parent.parent)
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, sentipipe; print(' '.join(m for m in sys.modules if m.startswith('sentipipe.')))"],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    ).stdout.split()
    assert {f"sentipipe.{module}" for module, _ in TARGETS} <= set(loaded)
