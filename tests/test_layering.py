"""Module dependencies point one way:
measures -> energies -> {bounds, spectral1d, dynamics} -> estimators
-> {verify, config} -> cli, with `errors` importable from anywhere.

A module may import only modules of a strictly lower layer. The package
`__init__` re-exports the public API and sits outside the layering. Two
facts have one owner each: `config` turns an energy type into an energy, so
`cli` imports no energy, and `ParticleSystem` lifts F to U_N, so `dynamics`
calls no energy primitive.
"""

import ast
from pathlib import Path

import mfgibbs

LAYERS = {
    "measures": 0,
    "energies": 1,
    "bounds": 2,
    "spectral1d": 2,
    "dynamics": 2,
    "estimators": 3,
    "verify": 4,
    "config": 4,
    "cli": 5,
}
ANYWHERE = {"errors"}
SRC = Path(mfgibbs.__file__).parent
MODULES = {p.stem for p in SRC.glob("*.py")} - {"__init__"}


def _relative_imports(path):
    """Sibling modules a source file imports with a relative import."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                yield node.module.split(".")[0]
            else:  # `from . import x`: only submodules count
                yield from (a.name for a in node.names if a.name in MODULES)


def test_every_module_has_a_layer():
    assert MODULES == set(LAYERS) | ANYWHERE


def test_imports_point_down():
    bad = []
    for name in sorted(MODULES):
        for target in _relative_imports(SRC / f"{name}.py"):
            if target in ANYWHERE:
                continue
            if name in ANYWHERE or LAYERS[target] >= LAYERS[name]:
                bad.append(f"{name} imports {target}")
    assert not bad, bad


def _names(path):
    """Every identifier and attribute name a source file mentions."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_cli_imports_no_energy():
    assert "energies" not in set(_relative_imports(SRC / "cli.py"))


def test_dynamics_calls_no_energy_primitive():
    primitives = {"_eval", "_eval_batch", "_value_and_grad", "_grad", "_flat"}
    assert not primitives & set(_names(SRC / "dynamics.py"))
