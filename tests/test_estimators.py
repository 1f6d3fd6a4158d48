import json
import math

import numpy as np
import pytest

from mfgibbs.dynamics import SimConfig, Trajectory, run_chain
from mfgibbs.energies import (
    LinearPotentialEnergy,
    ParticleSystem,
    QuadraticMeanEnergy,
)
from mfgibbs.estimators import (
    GapEstimate,
    conditional_gap_mc,
    entropy_decay_gaussian,
    estimate_gap_autocorr,
    estimate_gap_variance_decay,
)
from mfgibbs.spectral1d import gaussian_exact


def ou_system(kappa=1.0, N=1):
    energy = LinearPotentialEnergy(
        v=lambda x: 0.5 * kappa * float(x @ x),
        v_grad=lambda x: kappa * x,
        v_hess=lambda x: kappa * np.eye(len(x)),
    )
    return ParticleSystem(energy, N, 1)


def synthetic_ar1_trajectory(rate, dt, n, replicas=4, seed=0):
    """Exact stationary AR(1) samples of an OU process with the given rate."""
    rng = np.random.default_rng(seed)
    phi = math.exp(-rate * dt)
    sig = math.sqrt(1.0 - phi * phi)
    data = np.empty((replicas, n))
    for r in range(replicas):
        x = rng.standard_normal()
        for k in range(n):
            x = phi * x + sig * rng.standard_normal()
            data[r, k] = x
    return Trajectory(
        step=dt,
        thin=1,
        burn_in=0,
        steps=np.arange(1, n + 1),
        observables={"x": data},
        acceptance_rates=np.full(replicas, np.nan),
        seed=seed,
        sampler="ULA",
    )


class TestAutocorrGap:
    def test_exact_ar1_rate_recovered(self):
        traj = synthetic_ar1_trajectory(rate=2.0, dt=0.1, n=60000, seed=1)
        est = estimate_gap_autocorr(traj, "x", max_lag=40)
        assert est.method == "autocorr-fit"
        assert abs(est.rate - 2.0) < 0.1  # 5%
        assert est.stderr < 0.2
        assert est.effective_samples > 1000

    def test_iid_flag(self):
        # decorrelation much faster than the recording interval
        traj = synthetic_ar1_trajectory(rate=100.0, dt=1.0, n=5000, seed=2)
        est = estimate_gap_autocorr(traj, "x", max_lag=20)
        assert est.flags.get("iid")
        assert est.rate == 1.0  # resolution floor 1/dt

    def test_thin_accounted(self):
        traj = synthetic_ar1_trajectory(rate=1.0, dt=0.5, n=40000, seed=3)
        traj.step = 0.1
        traj.thin = 5
        est = estimate_gap_autocorr(traj, "x", max_lag=30)
        assert abs(est.rate - 1.0) < 0.1

    def test_quadratic_xbar_rate(self):
        # the mean observable relaxes at exactly 1 - a
        a, N = 0.5, 10
        system = ParticleSystem(QuadraticMeanEnergy(a), N, 1)
        cfg = SimConfig(
            step=0.05, n_steps=80000, burn_in=4000, replicas=4, seed=14,
            sampler="MALA",
        )
        traj = run_chain(
            system, cfg, observables={"xbar": lambda x: float(np.mean(x[:, 0]))}
        )
        est = estimate_gap_autocorr(traj, "xbar", max_lag=100)
        assert abs(est.rate - (1.0 - a)) < 0.05  # 10%

    def test_constant_observable_rejected(self):
        traj = synthetic_ar1_trajectory(rate=1.0, dt=0.1, n=100)
        traj.observables["x"][:] = 3.0
        with pytest.raises(ValueError):
            estimate_gap_autocorr(traj, "x", max_lag=10)

    def test_json_schema(self):
        est = GapEstimate(0.5, 0.01, "autocorr-fit", 100.0, {"iid": False})
        d = json.loads(est.to_json("spectral-gap"))
        assert d["quantity"] == "spectral-gap"
        assert d["rate"] == 0.5
        assert d["method"] == "autocorr-fit"
        assert "flags" in d


class TestVarianceDecayGap:
    def test_ou_unit_gap(self):
        system = ou_system(kappa=1.0)
        cfg = SimConfig(
            step=0.01, n_steps=2, replicas=4000, seed=5, sampler="ULA",
            initial=("gaussian", 3.0),
        )
        est = estimate_gap_variance_decay(
            system, cfg, lambda x: float(x[0, 0]), horizon=2.5
        )
        assert est.method == "variance-decay"
        assert abs(est.rate - 1.0) < 0.05  # 5%
        # a clean exponential over the whole fit window is not low-confidence
        assert "low_confidence" not in est.flags
        assert "tail_not_stationary" not in est.flags

    def test_rate_halving(self):
        # kappa = 2: variance of the observable decays at 2*kappa; the
        # reported rate must be the gap itself
        system = ou_system(kappa=2.0)
        cfg = SimConfig(
            step=0.005, n_steps=2, replicas=4000, seed=6, sampler="ULA",
            initial=("gaussian", 3.0),
        )
        est = estimate_gap_variance_decay(
            system, cfg, lambda x: float(x[0, 0]), horizon=1.2
        )
        # ULA bias alone gives -ln(1 - kappa h)/h = 2.01
        assert abs(est.rate - 2.0) < 0.15
        assert "tail_not_stationary" not in est.flags

    def test_short_horizon_tail_flagged(self):
        # at horizon 1 the unit-gap excess variance is still exp(-2 * 0.9) = 17%
        # of its start where the tail window begins: the tail mean is not the
        # stationary variance, and subtracting it inflates the rate to ~1.5
        system = ou_system(kappa=1.0)
        cfg = SimConfig(
            step=0.01, n_steps=2, replicas=1000, seed=5, sampler="ULA",
            initial=("gaussian", 3.0),
        )
        est = estimate_gap_variance_decay(
            system, cfg, lambda x: float(x[0, 0]), horizon=1.0
        )
        assert est.rate > 1.3
        assert est.flags.get("tail_not_stationary")

    @pytest.mark.parametrize("replicas", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_few_replicas_stderr_unavailable(self, replicas, seed):
        # a replica half of one chain has no variance: the stderr is skipped
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 3, 1)
        cfg = SimConfig(
            step=0.05, n_steps=2, replicas=replicas, seed=seed, sampler="MALA",
            initial=("gaussian", 3.0),
        )
        est = estimate_gap_variance_decay(system, cfg, lambda x: float(x[0, 0]), horizon=6.0)
        assert math.isfinite(est.rate)
        assert math.isnan(est.stderr)
        assert est.flags["stderr_unavailable"]

    def test_one_replica_rejected(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 3, 1)
        cfg = SimConfig(step=0.05, n_steps=2, replicas=1, seed=1, initial=("gaussian", 3.0))
        with pytest.raises(ValueError):
            estimate_gap_variance_decay(system, cfg, lambda x: float(x[0, 0]), horizon=6.0)

    def test_constant_observable_flagged(self):
        system = ou_system()
        cfg = SimConfig(step=0.01, n_steps=2, replicas=8, seed=7, sampler="ULA")
        est = estimate_gap_variance_decay(system, cfg, lambda x: 1.0, horizon=0.1)
        assert est.flags.get("constant_observable")
        assert math.isnan(est.rate)


class TestEntropyDecay:
    def test_quadratic_rate_is_twice_gap(self):
        # slowest KL mode of the exact flow decays at 2 * (1 - a) when the
        # initial law is off along the soft direction
        a, N = 0.2, 50
        system = ParticleSystem(QuadraticMeanEnergy(a), N, 1)
        mean0 = np.full(N, 1.0)  # uniform shift = soft eigendirection
        cov0 = np.linalg.inv(gaussian_exact(system).precision)
        times = np.linspace(0.0, 3.0, 40)
        curve = entropy_decay_gaussian(system, mean0, cov0, times, rho_star=0.5)
        assert abs(curve.rate - 2.0 * (1.0 - a)) < 0.016  # 1%
        assert curve.floor < 1e-8
        assert curve.flags["rate_geq_2rho_star"]

    def test_entropies_monotone(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 5, 1)
        times = np.linspace(0.0, 4.0, 30)
        curve = entropy_decay_gaussian(
            system, np.ones(5), 0.3 * np.eye(5), times
        )
        assert np.all(np.diff(curve.entropies) < 1e-12)
        assert curve.entropies[0] > curve.entropies[-1]

    def test_stationary_start_flagged(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 3, 1)
        cov_inf = np.linalg.inv(gaussian_exact(system).precision)
        curve = entropy_decay_gaussian(
            system, np.zeros(3), cov_inf, np.linspace(0.0, 1.0, 10)
        )
        assert curve.flags.get("identically_zero")

    def test_mixed_modes_dominated_by_slowest(self):
        # generic start: late-time rate approaches 2 lambda_min
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 4, 1)
        rng = np.random.default_rng(9)
        mean0 = rng.normal(size=4)
        times = np.linspace(4.0, 10.0, 30)  # late window isolates the slow mode
        curve = entropy_decay_gaussian(
            system, mean0, np.linalg.inv(gaussian_exact(system).precision), times
        )
        assert abs(curve.rate - 1.0) < 0.05


class TestConditionalGapMc:
    def test_quadratic_constant_across_configs(self):
        a, N = 0.5, 20
        system = ParticleSystem(QuadraticMeanEnergy(a), N, 1)
        cfg = SimConfig(
            step=0.1, n_steps=4000, burn_in=1000, thin=10, replicas=1, seed=10
        )
        res = conditional_gap_mc(
            system, cfg, n_frozen=8, claimed_rho_N=1.0 - a / N
        )
        assert abs(res.median - (1.0 - a / N)) < 1e-3
        assert res.spread < 1e-6  # conditional curvature independent of config
        assert res.passed

    def test_claim_too_strong_fails(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 10, 1)
        cfg = SimConfig(
            step=0.1, n_steps=2000, burn_in=500, thin=10, replicas=1, seed=11
        )
        res = conditional_gap_mc(system, cfg, n_frozen=4, claimed_rho_N=1.5)
        assert res.passed is False

    def test_requires_d1(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 4, 2)
        cfg = SimConfig(step=0.1, n_steps=100, seed=0)
        with pytest.raises(ValueError):
            conditional_gap_mc(system, cfg, n_frozen=2)
