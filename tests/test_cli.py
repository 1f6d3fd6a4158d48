import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfgibbs
from mfgibbs import __version__, cli, config, verify
from mfgibbs.cli import main
from mfgibbs.config import GRID_N_MAX, ConfigError, load_config
from mfgibbs.energies import quadratic_as_parametrized

QUADRATIC = """
[energy]
type = quadratic
a = 0.5

[system]
n = 20
d = 1

[sim]
step = 0.1
n_steps = 400
burn_in = 100
seed = 3
sampler = MALA

[analysis]
epsilon = 0.5
max_lag = 20
"""

KERNEL = """
[energy]
type = kernel
l = 1.0
alpha = 0.05
eta = 1.0

[system]
n = 10
d = 1

[sim]
step = 0.05
n_steps = 200
seed = 1
"""


# MALA at a step where most proposals are rejected: both replicas move, but
# the chain stalls for whole batches of the estimator's stderr
STALLING = """
[energy]
type = quadratic
a = 0.5

[system]
n = 5

[sim]
step = 3.0
n_steps = 300
replicas = 2
seed = 2
sampler = MALA

[analysis]
max_lag = 20
"""


# 3*10^4 records: long enough that OpenBLAS splits a dot product over them
# across its threads
LONG_CHAIN = """
[energy]
type = quadratic
a = 0.5

[system]
n = 10
d = 1

[sim]
step = 0.1
n_steps = 30000
seed = 1
sampler = ULA

[analysis]
max_lag = 200
"""


def write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConstants:
    def test_quadratic_report(self, tmp_path):
        cfg = write(tmp_path, QUADRATIC)
        out = tmp_path / "report.json"
        code = main(["constants", "--config", cfg, "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["version"] == __version__
        rep = payload["report"]
        assert abs(rep["poincare_bound"] - 0.45) < 1e-12
        assert abs(payload["example"]["exact_poincare"] - 0.5) < 1e-12
        assert abs(payload["example"]["gap_to_exact"] - 0.05) < 1e-12
        assert abs(payload["example"]["var_phi"] - 1.0) < 1e-5
        assert rep["flags"]["poincare_positive"]
        # at a = 0.5 the cost bound gives 4 lambda' >= rho for every epsilon,
        # so the log-Sobolev corollary does not apply (but the report is written)
        assert not rep["flags"]["corollary_valid"]
        assert code == 3

    def test_quadratic_corollary_applies(self, tmp_path):
        text = QUADRATIC.replace("a = 0.5", "a = 0.2").replace("n = 20", "n = 200")
        cfg = write(tmp_path, text)
        out = tmp_path / "report.json"
        code = main(["constants", "--config", cfg, "--out", str(out)])
        payload = json.loads(out.read_text())
        rep = payload["report"]
        assert rep["flags"]["corollary_valid"]
        assert code == 0
        assert 0 <= payload["fixed_point"]["end_density_ratio"] <= 1e-12
        assert 0 < rep["rho_star"] <= 0.8 + 1e-12  # never beats the exact LSI

    def test_quadratic_stdout(self, tmp_path, capsys):
        cfg = write(tmp_path, QUADRATIC)
        code = main(["constants", "--config", cfg])
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["report"]["poincare_bound"] - 0.45) < 1e-12
        assert code == 3

    def test_kernel_report(self, tmp_path):
        cfg = write(tmp_path, KERNEL)
        out = tmp_path / "report.json"
        code = main(["constants", "--config", cfg, "--out", str(out)])
        payload = json.loads(out.read_text())
        ex = payload["example"]
        assert abs(ex["Mmm"] - 3.57151) < 1e-5
        assert abs(ex["rho"] - 0.367879) < 1e-5
        assert abs(ex["beta_max"] - 1.60944) < 1e-5
        assert ex["condition_holds"]
        assert code in (0, 3)  # report written either way

    def test_kernel_condition_violated_exit_3(self, tmp_path):
        text = KERNEL.replace("alpha = 0.05", "alpha = 0.2")
        cfg = write(tmp_path, text)
        out = tmp_path / "report.json"
        code = main(["constants", "--config", cfg, "--out", str(out)])
        assert code == 3
        payload = json.loads(out.read_text())  # report still written
        assert not payload["example"]["condition_holds"]

    @pytest.mark.parametrize(
        "energy, rho_N",
        [
            ("type = quadratic\na = 0.5", 1.0 - 0.5 / 10),
            ("type = parametrized\na = 0.5", 1.0 - 0.5 / 10),
            ("type = kernel\neta = 2\nl = 0.5\nalpha = 0.1\nv1_sup = 0.3", 2 * math.exp(-1.1)),
        ],
    )
    def test_poincare_bound_reads_the_built_energy(self, tmp_path, energy, rho_N):
        text = KERNEL.replace("type = kernel\nl = 1.0\nalpha = 0.05\neta = 1.0", energy)
        cfg = write(tmp_path, text)
        out = tmp_path / "report.json"
        main(["constants", "--config", cfg, "--out", str(out)])
        built = load_config(cfg).build_energy()
        expected = rho_N - built.declared_lambda - built.declared_Mmm / 10
        assert abs(json.loads(out.read_text())["report"]["poincare_bound"] - expected) <= 1e-15

    def test_gibbs_undefined_exit_3(self, tmp_path):
        text = QUADRATIC.replace("a = 0.5", "a = 1.5")
        cfg = write(tmp_path, text)
        code = main(["constants", "--config", cfg, "--out", str(tmp_path / "r.json")])
        assert code == 3

    def test_truncated_fixed_point_exit_3(self, tmp_path):
        # the stationary law has unit variance: [-1, 1] cuts off much of its
        # mass, and the fixed point on it would give a wrong Var(phi)
        text = QUADRATIC.replace("[analysis]\n", "[analysis]\ngrid_lo = -1\ngrid_hi = 1\n")
        cfg = write(tmp_path, text)
        out = tmp_path / "r.json"
        code = main(["constants", "--config", cfg, "--out", str(out)])
        assert code == 3
        payload = json.loads(out.read_text())
        assert "report" not in payload
        assert payload["error"].startswith("fixed-point-untrusted")
        # the unit-variance law at x = +-1, relative to its peak: about e^{-1/2}
        assert payload["error"].endswith("negligible density at the grid ends=False "
                                         "(end density ratio 0.607)")


    def test_coarse_grid_fixed_point_exit_3(self, tmp_path):
        # on 9 nodes the fixed point converges, but its Var(phi) reads 0.860
        # against 1.0 and moves by 16 % on the 17-node refinement
        text = QUADRATIC.replace("a = 0.5", "a = 0.2").replace("n = 20", "n = 50")
        cfg = write(tmp_path, text.replace("[analysis]\n", "[analysis]\ngrid_n = 9\n"))
        out = tmp_path / "r.json"
        assert main(["constants", "--config", cfg, "--out", str(out)]) == 3
        payload = json.loads(out.read_text())
        assert "report" not in payload
        assert payload["error"].startswith("fixed-point-untrusted")
        assert "relative change of Var(phi) under grid refinement 0.163" in payload["error"]

    def test_fixed_point_diagnostics_beside_the_report(self, tmp_path):
        cfg = write(tmp_path, QUADRATIC)
        out = tmp_path / "report.json"
        main(["constants", "--config", cfg, "--out", str(out)])
        payload = json.loads(out.read_text())
        fixed_point = payload["fixed_point"]
        assert set(fixed_point) == {
            "residual", "iterations", "refinement_change", "end_density_ratio"
        }
        assert 0 <= fixed_point["residual"] <= 1e-8
        assert 1 <= fixed_point["iterations"] <= 200
        assert 0 <= fixed_point["refinement_change"] <= 1e-3
        assert "fixed_point" not in payload["report"]


class TestVerify:
    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])

    @pytest.mark.parametrize("name", list(verify.SUITES))
    def test_every_suite_passes(self, capsys, name):
        assert main(["verify", name]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"suite {name}: PASS"


class TestSimulate:
    def test_csv_and_meta(self, tmp_path):
        cfg = write(tmp_path, QUADRATIC)
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "replica,step,time,observable,value"
        assert len(lines) == 1 + 300 * 3  # 3 default observables
        meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
        assert meta["version"] == __version__
        assert meta["config"]["system"]["n"] == 20
        assert 0.0 < meta["acceptance_rates"][0] <= 1.0

    def test_byte_determinism(self, tmp_path):
        cfg = write(tmp_path, QUADRATIC)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", cfg, "--out", str(a)])
        main(["simulate", "--config", cfg, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write(tmp_path, QUADRATIC)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", cfg, "--out", str(a)])
        main(["simulate", "--config", cfg, "--out", str(b), "--seed", "99"])
        assert a.read_bytes() != b.read_bytes()

    # Philox takes the seed as one 64-bit key word; a seed outside it would
    # share its stream with the seed it reduces to
    @pytest.mark.parametrize("via", ["flag", "ini"])
    @pytest.mark.parametrize("seed, code", [(-1, 2), (2**64, 2), (0, 0), (2**64 - 1, 0)])
    def test_seed_must_fit_64_bits(self, tmp_path, capsys, seed, code, via):
        text = QUADRATIC.replace("seed = 3", f"seed = {seed}") if via == "ini" else QUADRATIC
        flags = ["--seed", str(seed)] if via == "flag" else []
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", write(tmp_path, text), "--out", str(out), *flags]) == code
        if code:
            assert capsys.readouterr().err == (
                "config error: bad [sim] values: seed must be an integer in [0, 2**64)\n")
            assert not out.exists()
        else:
            meta = json.loads(Path(f"{out}.meta.json").read_text())
            assert meta["config"]["sim"]["seed"] == seed

    def test_missing_output_path_exit_2(self, tmp_path):
        cfg = write(tmp_path, QUADRATIC)
        assert main(["simulate", "--config", cfg]) == 2

    def test_missing_output_path_fails_before_the_chain(self, tmp_path, monkeypatch, capsys):
        def no_chain(*args, **kwargs):
            raise AssertionError("run_chain called without an output path")

        monkeypatch.setattr(cli, "run_chain", no_chain)
        cfg = write(tmp_path, QUADRATIC)
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: simulate needs an output path")

    def test_blow_up_exit_4(self, tmp_path):
        text = QUADRATIC.replace("step = 0.1", "step = 1e7").replace(
            "sampler = MALA", "sampler = ULA\ninitial = gaussian(2.0)"
        )
        cfg = write(tmp_path, text)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")])
        assert code == 4


def no_chain(*args, **kwargs):
    raise AssertionError("run_chain called")


@pytest.mark.parametrize(
    "energy_type, message",
    [
        ("quadratic", "quadratic-mean energy needs a < 1"),
        ("parametrized", "parametrized energy needs kappa = 1.0 > r_hess_bound Lip(phi)^2 = 1.5"),
    ],
)
@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_no_gibbs_measure_exit_3_before_the_chain(
    tmp_path, monkeypatch, capsys, command, energy_type, message
):
    monkeypatch.setattr(cli, "run_chain", no_chain)
    text = QUADRATIC.replace("a = 0.5", "a = 1.5").replace("quadratic", energy_type)
    cfg = write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"gibbs-undefined: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


@pytest.mark.parametrize("a", ["0.2", "0.5"])
def test_parametrized_report_equals_the_quadratic_one(tmp_path, a):
    # two derivations, one from each energy's own declarations
    reports = {}
    for energy_type in ("quadratic", "parametrized"):
        text = QUADRATIC.replace("a = 0.5", f"a = {a}").replace("quadratic", energy_type)
        out = tmp_path / f"{energy_type}.json"
        main(["constants", "--config", write(tmp_path, text), "--out", str(out)])
        reports[energy_type] = json.loads(out.read_text())["report"]
    quad, par = reports["quadratic"], reports["parametrized"]
    assert sorted(par) == sorted(quad)
    for key in quad:
        assert par[key] == quad[key], key


def _zero_phi_hess(xs):
    return np.zeros(xs.shape[:-1] + (xs.shape[-1],) * 3)


def _non_affine(p):
    """The parametrized energy, with a declared (vanishing) curvature of its features."""
    return dataclasses.replace(quadratic_as_parametrized(p["a"]), phi_hess=_zero_phi_hess)


def test_non_affine_features_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        config._ENERGY_TYPES, "parametrized",
        config._ENERGY_TYPES["parametrized"]._replace(build=_non_affine),
    )
    cfg = write(tmp_path, QUADRATIC.replace("quadratic", "parametrized"))
    out = tmp_path / "r.json"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 3
    payload = json.loads(out.read_text())
    assert sorted(payload) == ["error", "version"]
    assert payload["error"].startswith("theorem inputs need affine phi")
    monkeypatch.setattr(cli, "run_chain", no_chain)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 3
    assert capsys.readouterr().err.startswith("theorem inputs need affine phi")


def test_vanishing_lsi_constant_still_simulates(tmp_path):
    # rho = eta exp(-v1_sup - L) underflows to 0: no theorem, but a Gibbs measure
    cfg = write(tmp_path, KERNEL.replace("eta = 1.0", "eta = 1.0\nv1_sup = 1000"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 0


class TestDimension:
    """Var(phi) comes from a fixed point on a 1-D grid: `constants` trusts it at d = 1 only."""

    def test_constants_at_d_2_exit_3_before_the_fixed_point(self, tmp_path, monkeypatch):
        def no_fixed_point(*args, **kwargs):
            raise AssertionError("fixed point computed")

        monkeypatch.setattr(cli, "proximal_gibbs_fixed_point", no_fixed_point)
        text = QUADRATIC.replace("a = 0.5", "a = 0.2").replace("n = 20\nd = 1", "n = 50\nd = 2")
        out = tmp_path / "r.json"
        assert main(["constants", "--config", write(tmp_path, text), "--out", str(out)]) == 3
        payload = json.loads(out.read_text())
        assert sorted(payload) == ["error", "version"]
        assert payload["error"].startswith("fixed-point-untrusted")
        assert "1-D grid" in payload["error"] and "d = 2" in payload["error"]

    def test_constants_at_d_1_unchanged(self, tmp_path):
        text = QUADRATIC.replace("a = 0.5", "a = 0.2").replace("n = 20", "n = 50")
        out = tmp_path / "r.json"
        assert main(["constants", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["example"]["var_phi"] - 1.0) < 1e-5
        assert payload["report"]["flags"]["corollary_valid"]

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_chains_at_d_2_unchanged(self, tmp_path, command):
        cfg = write(tmp_path, QUADRATIC.replace("n = 20\nd = 1", "n = 20\nd = 2"))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0


class TestEstimate:
    def test_records_only_the_analysed_observable(self, tmp_path, monkeypatch):
        recorded = []

        def spy(system, config, observables=None):
            recorded.append(sorted(observables))
            return run_chain(system, config, observables)

        run_chain = cli.run_chain
        monkeypatch.setattr(cli, "run_chain", spy)
        text = QUADRATIC.replace("max_lag = 20", "max_lag = 20\nobservable = x1")
        assert main(["estimate", "--config", write(tmp_path, text)]) == 0
        assert recorded == [["x1"]]

    def test_stalled_batches_are_not_a_frozen_chain(self, tmp_path, capsys):
        out = tmp_path / "est.json"
        assert main(["estimate", "--config", write(tmp_path, STALLING), "--out", str(out)]) == 0
        est = json.loads(out.read_text())["estimate"]
        assert est["rate"] > 0 and math.isnan(est["stderr"])
        assert est["flags"] == {"stderr_unavailable": True}
        assert capsys.readouterr().err == ""

    def test_overflowing_estimate_flagged(self, tmp_path, capsys):
        cfg = write(tmp_path, STALLING.replace("step = 3.0", "step = 1e-300"))
        out = tmp_path / "est.json"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        est = json.loads(out.read_text())["estimate"]
        assert math.isinf(est["stderr"])
        assert est["flags"] == {"non_finite": True}
        assert capsys.readouterr().err == ""

    def test_json_output(self, tmp_path):
        text = QUADRATIC.replace("n_steps = 400", "n_steps = 4000")
        cfg = write(tmp_path, text)
        out = tmp_path / "est.json"
        code = main(["estimate", "--config", cfg, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        est = payload["estimate"]
        assert est["quantity"] == "spectral-gap"
        assert est["method"] == "autocorr-fit"
        assert "rate" in est and "stderr" in est and "flags" in est

    def test_frozen_chain_exit_4(self, tmp_path, capsys):
        # with this step MALA rejects every proposal, so xbar never changes
        cfg = write(tmp_path, QUADRATIC.replace("step = 0.1", "step = 1e6"))
        out = tmp_path / "est.json"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("frozen chain: constant observable 'xbar'")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_output_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        cfg = write(tmp_path, LONG_CHAIN)
        src = str(Path(mfgibbs.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"est-{threads}.json"
            env = dict(
                os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
            )
            argv = [sys.executable, "-m", "mfgibbs.cli", "estimate", "--config", cfg, "--out", str(out)]
            subprocess.run(argv, env=env, check=True, timeout=300)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_too_short_for_lag_exit_2(self, tmp_path):
        text = QUADRATIC.replace("max_lag = 20", "max_lag = 1000")
        cfg = write(tmp_path, text)
        assert main(["estimate", "--config", cfg]) == 2


class TestConfigErrors:
    def test_missing_file_exit_2(self, tmp_path):
        assert main(["constants", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        bad = write(
            tmp_path,
            "[energy]\ntype = quadratic\na = 0.5\nbogus = 1\n[system]\nn = 5\n",
            "bad.ini",
        )
        assert main(["constants", "--config", bad]) == 2

    def test_unknown_section_exit_2(self, tmp_path):
        bad = write(
            tmp_path,
            "[energy]\ntype = quadratic\na = 0.5\n[system]\nn = 5\n[extra]\nx = 1\n",
        )
        assert main(["constants", "--config", bad]) == 2

    def test_unknown_energy_type_exit_2(self, tmp_path):
        bad = write(tmp_path, "[energy]\ntype = mystery\n[system]\nn = 5\n")
        assert main(["constants", "--config", bad]) == 2

    def test_bad_sampler_exit_2(self, tmp_path):
        bad = write(
            tmp_path,
            "[energy]\ntype = quadratic\na = 0.5\n[system]\nn = 5\n"
            "[sim]\nsampler = HMC\n",
        )
        assert main(["simulate", "--config", bad, "--out", "/tmp/x.csv"]) == 2


CONFIG_ERRORS = {
    "unknown-sim-key": (
        QUADRATIC.replace("sampler = MALA", "sampler = MALA\nfoo = 1"),
        "unknown key 'foo' in section [sim]",
    ),
    "unknown-analysis-key": (
        QUADRATIC.replace("max_lag = 20", "max_lag = 20\nbar = 2"),
        "unknown key 'bar' in section [analysis]",
    ),
    "feature_map=cubic": (
        "[energy]\ntype = parametrized\na = 0.5\nfeature_map = cubic\n[system]\nn = 5\n",
        "[energy] feature_map must be identity, got 'cubic'",
    ),
    "no-system-section": (
        "[energy]\ntype = quadratic\na = 0.5\n",
        "missing [system] section",
    ),
    "thin=0": (
        QUADRATIC.replace("sampler = MALA", "sampler = MALA\nthin = 0"),
        "bad [sim] values: n_steps, thin, replicas must be positive",
    ),
}


@pytest.mark.parametrize("case", list(CONFIG_ERRORS))
def test_config_error_names_its_cause(tmp_path, capsys, case):
    text, message = CONFIG_ERRORS[case]
    assert main(["constants", "--config", write(tmp_path, text)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


class TestNonFiniteInputs:
    """NaN parameters and an out-of-range epsilon are config errors (exit 2),
    not tracebacks or blow-ups."""

    def _assert_config_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_nan_attraction_constants(self, tmp_path, capsys):
        cfg = write(tmp_path, QUADRATIC.replace("a = 0.5", "a = nan"))
        self._assert_config_error(capsys, ["constants", "--config", cfg])

    def test_nan_kernel_strength_simulate(self, tmp_path, capsys):
        cfg = write(tmp_path, KERNEL.replace("l = 1.0", "l = nan"))
        out = str(tmp_path / "t.csv")
        self._assert_config_error(capsys, ["simulate", "--config", cfg, "--out", out])

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_infinite_step(self, tmp_path, capsys, command):
        cfg = write(tmp_path, QUADRATIC.replace("step = 0.1", "step = inf"))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "t")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert "step must be positive and finite" in err

    @pytest.mark.parametrize("eps", ["1.5", "0", "nan", "abc"])
    def test_epsilon_outside_unit_interval(self, tmp_path, capsys, eps):
        cfg = write(tmp_path, QUADRATIC.replace("epsilon = 0.5", f"epsilon = {eps}"))
        self._assert_config_error(capsys, ["constants", "--config", cfg])


BAD_INPUTS = {
    "n=0-simulate": ("simulate", "n = 20", "n = 0"),
    "n=0-constants": ("constants", "n = 20", "n = 0"),
    "d=0-simulate": ("simulate", "d = 1", "d = 0"),
    "d=0-constants": ("constants", "d = 1", "d = 0"),
    "initial=gaussian(abc)": ("simulate", "sampler = MALA", "sampler = MALA\ninitial = gaussian(abc)"),
    "initial=uniform": ("simulate", "sampler = MALA", "sampler = MALA\ninitial = uniform"),
    "initial=gaussian(nan)": ("simulate", "sampler = MALA", "sampler = MALA\ninitial = gaussian(nan)"),
    "observable=bogus": ("estimate", "max_lag = 20", "max_lag = 20\nobservable = bogus"),
    "max_lag=abc": ("estimate", "max_lag = 20", "max_lag = abc"),
    "grid_lo=abc": ("constants", "max_lag = 20", "max_lag = 20\ngrid_lo = abc"),
    "grid_n=2": ("constants", "max_lag = 20", "max_lag = 20\ngrid_n = 2"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_system_sim_or_analysis_input_exits_2(tmp_path, capsys, case):
    command, old, new = BAD_INPUTS[case]
    cfg = write(tmp_path, QUADRATIC.replace(old, new))
    argv = [command, "--config", cfg] + (["--out", str(tmp_path / "t.csv")] if command == "simulate" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


class TestLoadConfig:
    def test_round_trip_values(self, tmp_path):
        cfg = load_config(write(tmp_path, QUADRATIC))
        assert cfg.energy_type == "quadratic"
        assert cfg.energy_params["a"] == 0.5
        assert cfg.N == 20 and cfg.d == 1
        assert cfg.sim.step == 0.1 and cfg.sim.seed == 3
        assert cfg.analysis["epsilon"] == 0.5

    def test_overrides(self, tmp_path):
        cfg = load_config(write(tmp_path, QUADRATIC), seed=42, replicas=3)
        assert cfg.sim.seed == 42
        assert cfg.sim.replicas == 3

    def test_gaussian_initial_parsed(self, tmp_path):
        text = QUADRATIC.replace("sampler = MALA", "sampler = MALA\ninitial = gaussian(2.5)")
        cfg = load_config(write(tmp_path, text))
        assert cfg.sim.initial == ("gaussian", 2.5)

    def test_resolved_embeds_everything(self, tmp_path):
        cfg = load_config(write(tmp_path, QUADRATIC))
        r = cfg.resolved()
        assert r["energy"]["type"] == "quadratic"
        assert r["sim"]["seed"] == 3
        assert "analysis" in r

    def test_defaults(self, tmp_path):
        cfg = load_config(
            write(tmp_path, "[energy]\ntype = quadratic\na = 0.3\n[system]\nn = 4\n")
        )
        assert cfg.d == 1
        assert cfg.sim.sampler == "MALA"
        assert cfg.analysis["max_lag"] == 200

    def test_invalid_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "[energy]\ntype = quadratic\n[system]\nn = 2\n"))


def _quadratic_or_kernel(key: str) -> str:
    return QUADRATIC if key == "a" else KERNEL + "\n[analysis]\nmax_lag = 20\n"


@pytest.mark.parametrize("value", ["abc", ""])
@pytest.mark.parametrize("key", ["a", "eta", "l", "alpha", "v1_sup"])
@pytest.mark.parametrize("command", ["constants", "estimate"])
def test_non_numeric_energy_parameter_exit_2(tmp_path, capsys, command, key, value):
    text = re.sub(rf"^{key} = .*\n", "", _quadratic_or_kernel(key), flags=re.M)
    text = text.replace("[energy]\n", f"[energy]\n{key} = {value}\n")
    cfg = write(tmp_path, text)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: [energy] {key} must be a number, got {value!r}\n"


@pytest.mark.parametrize("config", ["quadratic", "kernel"])
def test_overflowing_theorem_inputs_exit_3(tmp_path, config):
    # 0 < epsilon < 1, but alpha_N = alpha_r (1 + 1/eps) Var(phi) overflows
    text = {"quadratic": QUADRATIC, "kernel": KERNEL + "\n[analysis]\n"}[config]
    text = text.replace("epsilon = 0.5", "")
    text = text.replace("[analysis]\n", "[analysis]\nepsilon = 1e-320\n")
    out = tmp_path / "r.json"
    assert main(["constants", "--config", write(tmp_path, text), "--out", str(out)]) == 3
    payload = json.loads(out.read_text())
    assert sorted(payload) == ["error", "version"]
    assert payload["error"].startswith("non-finite inputs: LsiInputs(")
    assert "alpha_N=inf" in payload["error"]


def test_vanishing_lsi_constant_exit_3(tmp_path):
    # rho = eta exp(-v1_sup - L) underflows to 0, outside the theorem's hypotheses
    cfg = write(tmp_path, KERNEL.replace("eta = 1.0", "eta = 1.0\nv1_sup = 1000"))
    out = tmp_path / "r.json"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 3
    assert json.loads(out.read_text())["error"].startswith("invalid LSI inputs: LsiInputs(rho=0.0,")


class TestOutputPath:
    """`--out`, else `[output] path`, else stdout, for every command that writes."""

    def _config(self, tmp_path, target):
        return write(tmp_path, QUADRATIC + f"\n[output]\npath = {target}\n")

    @pytest.mark.parametrize("command", ["constants", "estimate"])
    def test_config_path_used_without_out(self, tmp_path, capsys, command):
        target = tmp_path / "written.json"
        code = main([command, "--config", self._config(tmp_path, target)])
        assert code in (0, 3)  # the quadratic report at a = 0.5 is no corollary
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["version"] == __version__

    @pytest.mark.parametrize("command", ["constants", "estimate", "simulate"])
    def test_out_wins(self, tmp_path, capsys, command):
        target, out = tmp_path / "written.json", tmp_path / "out.json"
        main([command, "--config", self._config(tmp_path, target), "--out", str(out)])
        assert capsys.readouterr().out == ""
        assert out.exists() and not target.exists()

    def test_empty_path_is_no_path(self, tmp_path, capsys):
        cfg = write(tmp_path, QUADRATIC + "\n[output]\npath =\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: simulate needs an output path")


def test_grid_n_above_the_cap_exit_2_before_the_fixed_point(tmp_path, monkeypatch, capsys):
    def no_fixed_point(*args, **kwargs):
        raise AssertionError("fixed point computed")

    monkeypatch.setattr(cli, "proximal_gibbs_fixed_point", no_fixed_point)
    text = QUADRATIC.replace("max_lag = 20", f"max_lag = 20\ngrid_n = {GRID_N_MAX + 1}")
    assert main(["constants", "--config", write(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert f"[analysis] grid_n must be an integer in [3, {GRID_N_MAX}]" in err
    text = QUADRATIC.replace("max_lag = 20", f"max_lag = 20\ngrid_n = {GRID_N_MAX}")
    assert load_config(write(tmp_path, text)).analysis["grid_n"] == GRID_N_MAX


@pytest.mark.parametrize(
    "command, error, message",
    [
        ("verify", RuntimeError("something\nunexpected"), "RuntimeError: something unexpected"),
        ("simulate", RuntimeError("something\nunexpected"), "RuntimeError: something unexpected"),
        # a KeyError inside a suite is no unknown suite name
        ("verify", KeyError("missing"), "KeyError: 'missing'"),
    ],
    ids=["verify", "simulate", "verify-KeyError"],
)
def test_unexpected_error_exit_5_in_one_line(
    tmp_path, monkeypatch, capsys, command, error, message
):
    def broken(*args, **kwargs):
        raise error

    if command == "verify":
        monkeypatch.setitem(cli.verify.SUITES, "sharpness", broken)
        argv = ["verify", "sharpness"]
    else:
        monkeypatch.setattr(cli, "run_chain", broken)
        argv = ["simulate", "--config", write(tmp_path, QUADRATIC), "--out", str(tmp_path / "t")]
    assert main(argv) == 5
    assert capsys.readouterr().err == f"internal error: {message}\n"


def test_unknown_suite_name_exit_2(capsys):
    # argparse's choices stop it on the command line; the command checks it too
    assert cli.cmd_verify("nonsense") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown suite 'nonsense'")


def test_bad_ini_seed_accepted_under_seed_override(tmp_path):
    text = QUADRATIC.replace("seed = 3", "seed = abc").replace("[sim]\n", "[sim]\nreplicas = x\n")
    cfg = write(tmp_path, text)
    with pytest.raises(ConfigError):
        load_config(cfg)
    assert load_config(cfg, seed=5, replicas=2).sim.seed == 5


@pytest.mark.parametrize("text", ["no section header\n", "[energy]\ntype = quadratic\na = 50%\n"])
def test_unparsable_ini_exit_2(tmp_path, capsys, text):
    assert main(["constants", "--config", write(tmp_path, text + "[system]\nn = 5\n")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("key", ["eta", "l", "alpha", "v1_sup"])
def test_infinite_kernel_parameter_exit_2(tmp_path, capsys, key):
    text = re.sub(rf"^{key} = .*\n", "", KERNEL, flags=re.M)
    cfg = write(tmp_path, text.replace("[energy]\n", f"[energy]\n{key} = inf\n"))
    assert main(["constants", "--config", cfg]) == 2
    assert "finite" in capsys.readouterr().err


#: a decimal integer too large for a float
HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize(
    "text, key",
    [
        (KERNEL.replace("eta = 1.0", f"eta = {HUGE_INT}"), "eta"),
        (QUADRATIC.replace("[analysis]\n", f"[analysis]\ngrid_hi = {HUGE_INT}\n"), "grid_hi"),
    ],
    ids=["eta", "grid_hi"],
)
def test_integer_beyond_float_range_exit_2_naming_the_key(tmp_path, capsys, text, key):
    assert main(["constants", "--config", write(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "section, key", [("system", "n"), ("system", "d"), ("sim", "n_steps"), ("sim", "replicas")]
)
def test_integer_numpy_cannot_size_exit_2_naming_the_key(tmp_path, monkeypatch, capsys,
                                                         section, key):
    monkeypatch.setattr(cli, "run_chain", no_chain)
    text = re.sub(rf"^{key} = .*\n", "", QUADRATIC, flags=re.M)
    cfg = write(tmp_path, text.replace(f"[{section}]\n", f"[{section}]\n{key} = {HUGE_INT}\n"))
    with pytest.raises(ConfigError):
        load_config(cfg)
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [{section}] ") and err.count("\n") == 1
    assert re.search(rf"\b{key}\b", err) and "numpy" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


#: 10^15 float64 entries: sizeable by numpy, but 7.11 PiB, beyond any
#: address space, so the allocation fails at once
MEMORY_CASES = {
    "n": ("[system]\nn = 20\n", "[system]\nn = 1000000000000000\n"),
    "replicas-x-records": (
        "n_steps = 400\n", "n_steps = 1000100\nreplicas = 1000000000\n"
    ),
}


@pytest.mark.parametrize(
    "command, case",
    [("constants", "n"), ("simulate", "n"), ("estimate", "n"),
     ("simulate", "replicas-x-records"), ("estimate", "replicas-x-records")],
)
def test_run_too_large_for_memory_exit_2_naming_the_allocation(tmp_path, capsys, command, case):
    old, new = MEMORY_CASES[case]
    assert old in QUADRATIC
    cfg = write(tmp_path, QUADRATIC.replace(old, new))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the run does not fit in memory: ")
    assert err.count("\n") == 1 and "Unable to allocate" in err and "shape" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


def test_floating_point_overflow_is_a_blow_up(tmp_path, capsys):
    # eta |x|^2 / 2 overflows on the analysis grid: exit 4, not a warning
    cfg = write(tmp_path, KERNEL.replace("eta = 1.0", "eta = 1e308"))
    out = tmp_path / "r.json"
    assert main(["constants", "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().err == "blow-up: overflow encountered in multiply\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["constants", "simulate", "estimate"])
@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_output_exit_2_before_the_chain(tmp_path, monkeypatch, capsys, command, where):
    monkeypatch.setattr(cli, "run_chain", no_chain)
    out = tmp_path / "missing" / "out.json" if where == "missing-dir" else tmp_path
    assert main([command, "--config", write(tmp_path, QUADRATIC), "--out", str(out)]) == 2
    reason = {"missing-dir": f"[Errno 2] No such file or directory: '{out}'",
              "a-directory": f"{out} is a directory"}[where]
    assert capsys.readouterr().err == f"config error: cannot write the output: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


FOREIGN_KEYS = {
    "quadratic": ["eta", "l", "alpha", "v1_sup", "feature_map"],
    "parametrized": ["eta", "l", "alpha", "v1_sup"],
    "kernel": ["a", "feature_map"],
}


@pytest.mark.parametrize(
    "energy_type, key", [(t, k) for t, keys in FOREIGN_KEYS.items() for k in keys]
)
def test_foreign_energy_key_exit_2(tmp_path, capsys, energy_type, key):
    base = KERNEL if energy_type == "kernel" else QUADRATIC.replace("quadratic", energy_type)
    value = "identity" if key == "feature_map" else "2"
    cfg = write(tmp_path, base.replace("[energy]\n", f"[energy]\n{key} = {value}\n"))
    with pytest.raises(ConfigError):
        load_config(cfg)
    assert main(["constants", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [energy] type {energy_type} takes no key {key!r}")
    assert err.count("\n") == 1
