"""The package imports SciPy only where it calls it: `scipy.linalg` for a
grid spectral gap and `scipy.optimize` for a W2 distance in d >= 2. Each
test runs in a fresh interpreter, since this process has long since
imported both."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfgibbs

SRC = str(Path(mfgibbs.__file__).parents[1])

CONFIG = """
[energy]
type = quadratic
a = 0.2

[system]
n = 10
d = 1

[sim]
step = 0.1
n_steps = 200
burn_in = 50
seed = 3

[analysis]
max_lag = 10
"""

# defines report(value), which prints one line for `fresh` to return
PRELUDE = """
import json, sys
def report(value):
    print("@" + json.dumps(value))
"""
# reports the SciPy modules loaded so far
SCIPY_LOADED = "report(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"


def fresh(code: str, *args: str) -> list:
    """The values `code` reports when run in a new interpreter on this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code, *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line[1:]) for line in proc.stdout.splitlines() if line.startswith("@")]


def test_the_cli_loads_no_scipy_outside_the_grid_gap(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG)
    code = f"""
import mfgibbs, mfgibbs.cli as cli
{SCIPY_LOADED}
cfg, out = sys.argv[1:]
codes = [cli.main(["constants", "--config", cfg, "--out", out + "/report.json"]),
         cli.main(["simulate", "--config", cfg, "--out", out + "/traj.csv"]),
         cli.main(["estimate", "--config", cfg, "--out", out + "/gap.json"])]
report(codes)
{SCIPY_LOADED}
# the first grid gap imports scipy.linalg inside cli.main's np.errstate
report(cli.main(["verify", "conditional"]))
{SCIPY_LOADED}
"""
    on_import, codes, after_commands, verified, after_verify = fresh(code, str(cfg), str(tmp_path))
    assert on_import == [] and after_commands == []
    assert codes == [0, 0, 0] and verified == 0
    assert "scipy.linalg" in after_verify
    assert "scipy.optimize" not in after_verify


def test_the_first_w2_in_d2_imports_scipy_under_raise():
    code = f"""
import numpy as np
from mfgibbs.measures import DiscreteMeasure, w2_squared
{SCIPY_LOADED}
rng = np.random.default_rng(5)
x, y = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
weights = np.full(5, 0.2)
with np.errstate(all="raise"):
    value = w2_squared(DiscreteMeasure(x, weights), DiscreteMeasure(y, weights))
report({{"x": x.tolist(), "y": y.tolist(), "w2": value}})
{SCIPY_LOADED}
"""
    before, result, after = fresh(code)
    assert before == []
    assert "scipy.optimize" in after
    x, y = np.array(result["x"]), np.array(result["y"])
    cost = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=-1)
    best = min(cost[range(5), perm].sum() / 5 for perm in itertools.permutations(range(5)))
    assert result["w2"] == pytest.approx(best, rel=1e-12)
