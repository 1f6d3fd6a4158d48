import dataclasses
import inspect
import math

import numpy as np
import pytest

from mfgibbs.dynamics import SimConfig, Trajectory, run_chain
from mfgibbs.energies import (
    LinearPotentialEnergy,
    PairwiseKernelEnergy,
    ParticleSystem,
    QuadraticMeanEnergy,
)
from mfgibbs.estimators import (
    ConditionalGapResult,
    GapEstimate,
    conditional_gap_mc,
    entropy_decay_gaussian,
    estimate_gap_autocorr,
    estimate_gap_variance_decay,
)
from mfgibbs.spectral1d import gaussian_exact, gaussian_kl, ou_exact_flow_stacks


def ou_system(kappa=1.0, N=1):
    energy = LinearPotentialEnergy(
        v=lambda x: 0.5 * kappa * np.sum(x * x, axis=-1),
        v_grad=lambda x: kappa * x,
        v_hess=lambda x: kappa * np.eye(x.shape[-1]) * np.ones(x.shape[:-1] + (1, 1)),
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
        steps=np.arange(1, n + 1),
        observables={"x": data},
        acceptance_rates=np.full(replicas, np.nan),
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

    def test_constant_batch_leaves_stderr_unavailable(self):
        # R < 4: the stderr comes from 8 batches of the flattened series; a
        # stalled stretch makes the first batch constant, but the chain moved
        traj = synthetic_ar1_trajectory(rate=1.0, dt=0.1, n=2000, replicas=2, seed=4)
        traj.observables["x"][0, :600] = traj.observables["x"][0, 0]
        est = estimate_gap_autocorr(traj, "x", max_lag=20)
        assert math.isfinite(est.rate) and est.rate > 0
        assert math.isnan(est.stderr)
        assert est.flags == {"stderr_unavailable": True}

    def test_overflowing_stderr_flagged_without_warning(self):
        # a step near zero turns per-record decay into rates near 1e300 whose
        # batch spread overflows; RuntimeWarnings are errors in this suite
        traj = synthetic_ar1_trajectory(rate=1.0, dt=0.1, n=4000, replicas=2, seed=5)
        traj.step = 1e-301
        est = estimate_gap_autocorr(traj, "x", max_lag=20)
        assert math.isfinite(est.rate) and math.isinf(est.stderr)
        assert est.flags == {"non_finite": True}

    def test_non_finite_flag(self):
        assert GapEstimate(math.inf, 0.0, "autocorr-fit", 1.0).flags == {"non_finite": True}
        assert GapEstimate(math.nan, math.nan, "autocorr-fit", 1.0).flags == {}

    def test_json_schema(self):
        est = GapEstimate(0.5, 0.01, "autocorr-fit", 100.0, {"iid": False})
        d = est.to_dict()
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
        curve = entropy_decay_gaussian(system, mean0, cov0, times)
        assert abs(curve.rate - 2.0 * (1.0 - a)) < 0.016  # 1%
        assert curve.floor < 1e-8
        assert curve.rate >= 2.0 * 0.5 - 1e-9 and curve.flags == {}

    @pytest.mark.parametrize(
        "a, N, horizon, cov_scale",
        [(0.2, 50, 4.0, 1.0), (0.5, 10, 2.0, 2.0), (0.7, 5, 8.0, 2.0), (0.1, 3, 20.0, 2.0)],
    )
    def test_floor_scan_is_the_per_floor_fit(self, a, N, horizon, cov_scale):
        # the reference fits each floor on its own, on the times it keeps
        system = ParticleSystem(QuadraticMeanEnergy(a), N, 1)
        times = np.linspace(0.0, horizon, 60)
        curve = entropy_decay_gaussian(system, np.ones(N), cov_scale * np.eye(N), times)
        ents = curve.entropies
        h_min = float(np.min(ents[ents > 0]))
        scored = []
        for floor in np.concatenate([[0.0], np.linspace(0.0, 0.999 * h_min, 64)[1:]]):
            ok = ents - floor > 1e-300
            y, t = np.log(ents[ok] - floor), times[ok]
            slope, intercept = np.polyfit(t, y, 1)
            scored.append((float(np.sum((y - (slope * t + intercept)) ** 2)), -slope, floor))
        _, rate, floor = min(scored, key=lambda s: s[0])
        assert curve.floor == floor and type(curve.floor) is float
        assert abs(curve.rate - rate) <= 1e-12 * abs(rate) and type(curve.rate) is float

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

    def test_entropies_are_the_one_law_kls(self):
        # the curve's one stacked KL call, bit for bit the KL of each law alone
        system = ParticleSystem(QuadraticMeanEnergy(0.2), 50, 1)
        times = np.linspace(0.0, 4.0, 60)
        curve = entropy_decay_gaussian(system, np.ones(50), np.eye(50), times)
        target = gaussian_exact(system).precision
        one = [gaussian_kl(m, c, np.zeros(50), target) for m, c in zip(*ou_exact_flow_stacks(
            system, np.ones(50), np.eye(50), times
        ))]
        np.testing.assert_array_equal(curve.entropies, one)

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


def chain_frozen(system, config, count):
    """`count` configurations of particles 2..N, a stack (count, N - 1), at
    records evenly spaced over replica 0 of a chain: the configurations that
    the conditional oracle drew from its own chain before it took a stack."""
    others = range(1, system.N)
    traj = run_chain(
        system,
        dataclasses.replace(config, replicas=1),
        observables={f"c{j}": (lambda x, j=j: float(x[j, 0])) for j in others},
    )
    picks = np.linspace(0, traj.steps.shape[0] - 1, count).astype(int)
    return np.stack([traj.observables[f"c{j}"][0, picks] for j in others], axis=1)


def ripple():
    """(system, frozen): V(x) = x^2/2 + cos(100 x) at N = 3, declaring
    kappa = 0, and three configurations of the others. The conditional
    window's 1201 nodes, about 0.017 apart, alias the ripple, so no gap is
    stable when its grid is refined."""
    energy = LinearPotentialEnergy(
        v=lambda x: 0.5 * np.sum(x * x, axis=-1) + np.cos(100.0 * x[..., 0]),
        v_grad=lambda x: x - 100.0 * np.sin(100.0 * x),
        v_hess=lambda x: np.eye(1) - 1e4 * np.cos(100.0 * x[..., None]) * np.eye(1),
        kappa=0.0,
    )
    return ParticleSystem(energy, 3, 1), np.random.default_rng(12).normal(size=(3, 2))


class TestConditionalGapMc:
    def test_quadratic_constant_across_configs(self):
        a, N = 0.5, 20
        system = ParticleSystem(QuadraticMeanEnergy(a), N, 1)
        frozen = np.random.default_rng(10).normal(size=(8, N - 1))
        res = conditional_gap_mc(system, frozen)
        assert abs(res.median - (1.0 - a / N)) < 1e-3
        assert res.spread < 1e-6  # conditional curvature independent of config
        assert res.gaps.shape == res.converged.shape == (8,) and res.converged.all()
        assert res.minimum >= 1.0 - a / N - 1e-3

    def test_each_gap_is_its_configuration_alone(self):
        system = ParticleSystem(PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05), 4, 1)
        frozen = np.random.default_rng(3).normal(size=(5, 3))
        res = conditional_gap_mc(system, frozen)
        for k, others in enumerate(frozen):
            one = conditional_gap_mc(system, others[None])
            assert (one.gaps[0], one.converged[0]) == (res.gaps[k], res.converged[k])
        assert res.minimum == float(np.min(res.gaps))

    def test_grid_too_coarse_to_converge_is_flagged(self):
        system, frozen = ripple()
        res = conditional_gap_mc(system, frozen)
        assert not res.converged.any()
        assert res.minimum >= 0.0

    def test_window_holds_a_law_flatter_than_its_tails(self):
        # kernel L = 3, N = 2, the other particle frozen at y in [0, 4]: the
        # window of max(8 sd, 4) around the mean, which the level-set window
        # replaced, left end densities above 1e-12 and raised ValueError on
        # 37 of these 81 configurations (from y = 1.15, worst end ratio 7.7e-11)
        system = ParticleSystem(PairwiseKernelEnergy(eta=1.0, L=3.0, alpha=0.05), 2, 1)
        res = conditional_gap_mc(system, np.linspace(0.0, 4.0, 81)[:, None])
        assert np.all(np.isfinite(res.gaps)) and res.converged.all()
        assert res.minimum > 0.5

    @pytest.mark.parametrize("sd, centre", [(4.0, 0.0), (20.0, 0.0), (1.0, 60.0)])
    def test_window_holds_a_law_beyond_the_first_scan(self, sd, centre):
        # V = (x - centre)^2 / (2 sd^2): above sd = 3.4, or off centre, the
        # level set reaches an end of the first scan of [-25, 25], whose
        # window would leave end densities above 1e-12
        kappa = sd**-2.0
        energy = LinearPotentialEnergy(
            v=lambda x: 0.5 * kappa * np.sum((x - centre) ** 2, axis=-1),
            v_grad=lambda x: kappa * (x - centre),
            v_hess=lambda x: kappa * np.eye(1) * np.ones(x.shape[:-1] + (1, 1)),
        )
        res = conditional_gap_mc(ParticleSystem(energy, 2, 1), np.zeros((1, 1)))
        assert res.converged.all() and abs(res.minimum / kappa - 1.0) < 1e-3

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 5), (0, 4), (1, 1, 4), ()])
    def test_frozen_must_be_a_stack_of_the_others(self, shape):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 5, 1)
        with pytest.raises(ValueError, match=r"\(K, N - 1\) = \(K, 4\)"):
            conditional_gap_mc(system, np.zeros(shape))

    def test_requires_d1(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 4, 2)
        with pytest.raises(ValueError, match="d = 1"):
            conditional_gap_mc(system, np.zeros((2, 3)))


def test_the_oracles_take_no_claim_and_return_no_verdict():
    # a claimed constant meets its oracle in `verify` alone
    assert list(inspect.signature(conditional_gap_mc).parameters) == ["system", "frozen"]
    assert list(inspect.signature(entropy_decay_gaussian).parameters) == [
        "system", "mean0", "cov0", "times"
    ]
    fields = [f.name for f in dataclasses.fields(ConditionalGapResult)]
    assert fields == ["gaps", "converged", "minimum", "median", "spread"]
