"""Each weaktomo module imports only the modules below it in one order, so
moving a shared check down a layer cannot create an import cycle, and
outside the package only the standard library and numpy, the one
dependency pyproject.toml declares."""

import ast
import sys
from pathlib import Path

import pytest

import weaktomo

PACKAGE = Path(weaktomo.__file__).resolve().parent
# Lowest first; modules of one layer do not import each other.
LAYERS = [{"errors"}, {"qcore"}, {"weakval"}, {"pointer", "recon"}, {"harness"},
          {"serialize"}, {"cli"}, {"__init__"}, {"__main__"}]
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}


def _imported(path: Path) -> set[str]:
    """The weaktomo modules a file imports, relatively or by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                names.add(node.module.split(".")[0])
            elif node.level == 1:
                names.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "weaktomo":
                parts = node.module.split(".")
                names.update([parts[1]] if len(parts) > 1 else
                             [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("weaktomo."))
    return names


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(RANK)


@pytest.mark.parametrize("module", sorted(RANK))
def test_module_imports_only_lower_layers(module):
    above = {name for name in _imported(PACKAGE / f"{module}.py")
             if RANK.get(name, len(LAYERS)) >= RANK[module]}
    assert not above, f"{module} imports {sorted(above)} from its own layer or above"


@pytest.mark.parametrize("module", sorted(RANK))
def test_module_imports_only_the_standard_library_and_numpy(module):
    top = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            top.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top.add(node.module.split(".")[0])
    outside = top - set(sys.stdlib_module_names) - {"numpy", "weaktomo"}
    assert not outside, f"{module} imports {sorted(outside)}, which is no dependency"
