"""The package surface the benchmark in perfbench/ relies on.

perfbench wraps functions by module and name, imports names from the package
and its submodules, and generates its clouds with `pregrasp synth`'s default
dimensions.  A refactor that drops or renames one of them breaks the
benchmark, so it is checked here, with the tier-1 tests.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from pregrasp.pointcloud import SYNTH_KINDS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """A perfbench module, loaded by path under a private name."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _imported_names():
    """(module, name) for every `from pregrasp[.x] import name` and every
    `pregrasp.name` attribute read in perfbench/*.py."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                    and node.module.split(".")[0] == "pregrasp":
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "pregrasp":
                found.add(("pregrasp", node.attr))
    return sorted(found)


def test_perfbench_finds_what_it_uses():
    wrapped = [f"{m}.{a}" for m, a in _load("layers").WRAPPED
               if not callable(getattr(importlib.import_module(f"pregrasp.{m}"), a, None))]
    assert wrapped == [], "perfbench/layers.py wraps functions that are gone"

    names = _imported_names()
    assert ("pregrasp", "EmptySide") in names and ("pregrasp", "synth_shape") in names
    # the package imports every submodule, so a submodule is an attribute too
    missing = [f"{m}.{a}" for m, a in names if not hasattr(importlib.import_module(m), a)]
    assert missing == [], "perfbench imports names that are gone"

    shape_dims = _load("workloads").SHAPE_DIMS
    assert shape_dims == {kind: tuple(dims.values()) for kind, dims in SYNTH_KINDS.items()}
