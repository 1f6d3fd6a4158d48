import json

import pytest

from mfgibbs import __version__
from mfgibbs.cli import main
from mfgibbs.config import ConfigError, load_config

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


class TestVerify:
    def test_sharpness_suite_passes(self, capsys):
        code = main(["verify", "sharpness"])
        out = capsys.readouterr().out
        assert code == 0
        assert "suite sharpness: PASS" in out

    def test_hessian_suite_passes(self, capsys):
        code = main(["verify", "hessian"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])


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

    def test_missing_output_path_exit_2(self, tmp_path):
        cfg = write(tmp_path, QUADRATIC)
        assert main(["simulate", "--config", cfg]) == 2

    def test_blow_up_exit_4(self, tmp_path):
        text = QUADRATIC.replace("step = 0.1", "step = 1e7").replace(
            "sampler = MALA", "sampler = ULA\ninitial = gaussian(2.0)"
        )
        cfg = write(tmp_path, text)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")])
        assert code == 4


class TestEstimate:
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
