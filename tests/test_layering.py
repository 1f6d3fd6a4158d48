"""Module dependencies point one way:
measures -> energies -> {bounds, spectral1d, dynamics} -> estimators
-> {verify, config} -> cli, with `errors` importable from anywhere.

A module may import only modules of a strictly lower layer. The package
`__init__` re-exports the public API and sits outside the layering. Three
facts have one owner each: `config` turns an energy type into an energy, so
`cli` imports no energy; each energy declares its theorem inputs, so
`config` imports nothing from `bounds`; and `ParticleSystem` lifts F to
U_N, so `dynamics` calls no energy primitive. The tests' replay of a
replica shares no code with the chain loop it checks.
"""

import ast
import importlib
from pathlib import Path

import mfgibbs
from mfgibbs import dynamics

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


def test_every_export_resolves():
    # a deletion that leaves its name in an `__all__` fails here
    dangling = []
    for name in ["mfgibbs"] + [f"mfgibbs.{m}" for m in sorted(MODULES)]:
        module = importlib.import_module(name)
        exports = getattr(module, "__all__", [])
        dangling += [f"{name}.{export}" for export in exports if not hasattr(module, export)]
    assert not dangling, dangling


def test_imports_point_down():
    bad = []
    for name in sorted(MODULES):
        for target in _relative_imports(SRC / f"{name}.py"):
            if target in ANYWHERE:
                continue
            if name in ANYWHERE or LAYERS[target] >= LAYERS[name]:
                bad.append(f"{name} imports {target}")
    assert not bad, bad


def _names(tree):
    """Every identifier and attribute name a syntax tree mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_cli_imports_no_energy():
    assert "energies" not in set(_relative_imports(SRC / "cli.py"))


def test_config_imports_nothing_from_bounds():
    assert "bounds" not in set(_relative_imports(SRC / "config.py"))


def test_dynamics_calls_no_energy_primitive():
    primitives = {"_eval", "_eval_batch", "_value_and_grad", "_grad", "_flat"}
    assert not primitives & set(_names(ast.parse((SRC / "dynamics.py").read_text())))


def test_replay_names_no_dynamics_private():
    # every replica of the chain loop is checked against `_replay` in
    # test_dynamics.py; it and the test functions it calls share no code
    # with the loop, and of the privates of `dynamics` name only the chunk
    # size that defines the random stream
    tree = ast.parse((Path(__file__).parent / "test_dynamics.py").read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    names, reached, todo = set(), set(), ["_replay"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            names |= set(_names(functions[name]))
            todo.extend(names & functions.keys())
    privates = {name for name in vars(dynamics) if name.startswith("_")}
    assert "_textbook_log_alpha" in reached
    assert names & privates == {"_RNG_CHUNK"}
