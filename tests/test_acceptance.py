"""Acceptance gate: one test per release criterion, each reporting a
single PASS/FAIL line (see the terminal summary) with its runtime."""

import time
from contextlib import contextmanager

import numpy as np
from test_estimators import chain_frozen

from mfgibbs import bounds, verify
from mfgibbs.dynamics import SimConfig, run_chain
from mfgibbs.energies import (
    LinearPotentialEnergy,
    PairwiseKernelEnergy,
    ParticleSystem,
    QuadraticMeanEnergy,
)
from mfgibbs.estimators import conditional_gap_mc, entropy_decay_gaussian
from mfgibbs.measures import DiscreteMeasure, empirical, mix
from mfgibbs.spectral1d import conditional_potential, grid_poincare
from mfgibbs.energies import quadratic_as_parametrized

RESULTS = []


@contextmanager
def criterion(number, name, time_limit):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        RESULTS.append(f"criterion {number:2d} {name}: FAIL ({dt:.1f}s)")
        raise
    dt = time.perf_counter() - t0
    if dt > time_limit:
        RESULTS.append(
            f"criterion {number:2d} {name}: FAIL (runtime {dt:.1f}s > {time_limit}s)"
        )
        raise AssertionError(f"runtime {dt:.1f}s exceeds {time_limit}s")
    RESULTS.append(f"criterion {number:2d} {name}: PASS ({dt:.1f}s)")


def random_measure(rng, d=1, max_atoms=5):
    n = int(rng.integers(1, max_atoms + 1))
    w = rng.random(n) + 0.1
    return DiscreteMeasure(rng.normal(size=(n, d)) * 1.5, w / w.sum())


def concrete_energies():
    return [
        QuadraticMeanEnergy(0.5),
        PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05),
        quadratic_as_parametrized(0.5),
    ]


def test_criterion_01_sharpness_battery():
    with criterion(1, "sharpness-battery", 5.0):
        q = bounds.quadratic_example_constants(0.5, 20)
        assert q.theorem_bound == 0.45
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 20, 1)
        lam_min = float(
            np.linalg.eigvalsh(system.hess_u_n(np.zeros((20, 1))))[0]
        )
        assert abs(lam_min - 0.5) < 1e-10
        assert q.theorem_bound <= lam_min
        assert abs((q.exact_poincare - q.theorem_bound) - 0.05) < 1e-10
        for a in np.arange(0.1, 0.95, 0.1):
            for N in (10, 50, 200):
                q = bounds.quadratic_example_constants(float(a), N)
                system = ParticleSystem(QuadraticMeanEnergy(float(a)), N, 1)
                lam_min = float(
                    np.linalg.eigvalsh(system.hess_u_n(np.zeros((N, 1))))[0]
                )
                assert abs(lam_min - q.exact_poincare) < 1e-10
                assert q.theorem_bound <= lam_min + 1e-12
                assert abs(q.gap - 2.0 * a / N) < 1e-10


def test_criterion_02_conditional_gap():
    with criterion(2, "conditional-gap", 10.0):
        a, N = 0.5, 20
        system = ParticleSystem(QuadraticMeanEnergy(a), N, 1)
        rng = np.random.default_rng(101)
        gaps = []
        for _ in range(5):
            frozen = 2.0 * rng.standard_normal(N - 1)
            grid = conditional_potential(system, frozen, -30.0, 30.0, 3001)
            gaps.append(grid_poincare(grid).gap)
        gaps = np.array(gaps)
        assert np.all(np.abs(gaps - 0.975) < 1e-3)
        assert gaps.max() - gaps.min() < 1e-6


def test_criterion_03_curvature_equality():
    with criterion(3, "curvature-equality", 10.0):
        quad = QuadraticMeanEnergy(0.5)
        rng = np.random.default_rng(102)
        for _ in range(20):
            x, y = rng.normal(size=2)
            deficit = bounds.check_semi_convexity(
                quad, empirical([[x]]), empirical([[y]]), lam=0.5
            )
            assert abs(deficit) <= 1e-12
        for energy in concrete_energies():
            for _ in range(1000):
                deficit = bounds.check_semi_convexity(
                    energy, random_measure(rng), random_measure(rng)
                )
                assert deficit <= 1e-9


def test_criterion_04_hessian_block_battery():
    with criterion(4, "hessian-block-battery", 10.0):
        rng = np.random.default_rng(103)
        a, N = 0.5, 8
        quad = QuadraticMeanEnergy(a)
        for _ in range(20):
            x = rng.normal(size=(N, 1))
            lam_min = N * bounds.hessian_block_bound(quad, [x])
            assert abs(lam_min - (-a * N)) < 1e-9
        alpha, N = 0.05, 8
        kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=alpha)
        configs = [rng.normal(size=(N, 1)) for _ in range(100)]
        lam_min = N * bounds.hessian_block_bound(kern, configs)
        assert lam_min >= -2.0 * alpha * N - 1e-9


def test_criterion_05_constants_algebra():
    with criterion(5, "constants-algebra", 1.0):
        inp = bounds.LsiInputs(
            rho=1.0, lambda_prime=0.1, alpha_N=1.0, Mmm=1.0,
            epsilon=0.5, N=100, d=1,
        )
        r = bounds.defective_lsi_constants(inp)
        assert abs(r.N0 - 46.6667) < 1e-4 and abs(r.N0 - 140.0 / 3.0) < 1e-6
        assert abs(r.lambda_tilde - 0.17) < 1e-6
        assert abs(r.beta_N - 0.515152) < 1e-6
        assert abs(r.rho_prime_star - 0.484848) < 1e-6
        assert abs(r.delta_N - 12.0) < 1e-6
        for rho in np.linspace(0.5, 3.0, 10):
            for lp in np.linspace(0.0, rho / 4 * 0.99, 10):
                for M in np.linspace(0.01, 2.0, 10):
                    g = bounds.LsiInputs(
                        rho=rho, lambda_prime=lp, alpha_N=0.5, Mmm=M,
                        epsilon=0.5, N=100, d=1,
                    )
                    out = bounds.defective_lsi_constants(g)
                    assert (0.0 < out.beta_N < 1.0) == (g.N > out.N0)


def _quadratic_rho_star(a, N, eps):
    """Corollary constant for the quadratic energy via the parametrized
    route: base LSI constant 1, feature variance 1 at the fixed point."""
    par = quadratic_as_parametrized(a)
    lam_p, alpha_N = bounds.parametrized_cost_bound(par, var_phi=1.0, epsilon=eps)
    lsi = bounds.LsiInputs(
        rho=1.0, lambda_prime=lam_p, alpha_N=alpha_N, Mmm=a,
        epsilon=eps, N=N, d=1,
    )
    poin = bounds.PoincareInputs(rho_N=1.0 - a / N, lam=a, Mmm=a, N=N)
    report = bounds.full_report(lsi, poin)
    if not report.flags.get("corollary_valid", False):
        return None
    return report.rho_star


def test_criterion_06_soundness_vs_exact_lsi():
    with criterion(6, "lsi-soundness", 5.0):
        a = 0.2
        exact_lsi = 0.8
        any_valid = False
        for N in (100, 1000):
            for eps in np.linspace(0.05, 0.95, 19):
                rho_star = _quadratic_rho_star(a, N, float(eps))
                if rho_star is None:
                    continue
                any_valid = True
                assert rho_star <= exact_lsi + 1e-12, (N, eps, rho_star)
        assert any_valid


def test_criterion_07_entropy_decay():
    with criterion(7, "entropy-decay", 5.0):
        a, N = 0.2, 50
        system = ParticleSystem(QuadraticMeanEnergy(a), N, 1)
        rho_stars = [
            _quadratic_rho_star(a, N, float(e))
            for e in np.linspace(0.05, 0.95, 19)
        ]
        rho_star = max(r for r in rho_stars if r is not None)
        mean0 = np.full(N, 1.0)
        cov0 = np.linalg.inv(system.hess_u_n(np.zeros((N, 1))))
        curve = entropy_decay_gaussian(
            system, mean0, cov0, np.linspace(0.0, 3.0, 40), rho_star=rho_star
        )
        assert abs(curve.rate - 1.6) <= 0.016
        assert curve.floor < 1e-8
        assert curve.flags["rate_geq_2rho_star"]


def test_criterion_08_sampler_correctness():
    with criterion(8, "sampler-correctness", 120.0):
        # MALA: exact covariance entries of the quadratic Gibbs measure
        a, N = 0.5, 10
        system = ParticleSystem(QuadraticMeanEnergy(a), N, 1)
        cfg = SimConfig(
            step=0.05, n_steps=1_000_000, burn_in=20_000, replicas=1,
            seed=71, sampler="MALA",
        )
        traj = run_chain(
            system,
            cfg,
            observables={
                "xbar": lambda x: float(np.mean(x[:, 0])),
                "x1": lambda x: float(x[0, 0]),
            },
        )
        exact = {
            "xbar": 1.0 / (N * (1.0 - a)),               # 0.2
            "x1": 1.0 + a / (N * (1.0 - a)),             # 1.1
        }
        for name, target in exact.items():
            series = traj.observables[name][0]
            batches = np.array_split(series, 50)
            per_batch = np.array([np.var(b) for b in batches])
            est = float(np.mean(per_batch))
            stderr = float(np.std(per_batch, ddof=1) / np.sqrt(len(per_batch)))
            assert abs(est - target) <= 3.0 * stderr, (name, est, target, stderr)

        # ULA: exactly computable stationary variance bias in 1-D
        kappa, h = 1.0, 0.1
        ou = ParticleSystem(
            LinearPotentialEnergy(
                v=lambda x: 0.5 * kappa * np.sum(x * x, axis=-1),
                v_grad=lambda x: kappa * x,
                v_hess=lambda x: kappa * np.eye(x.shape[-1]) * np.ones(x.shape[:-1] + (1, 1)),
            ),
            1,
            1,
        )
        cfg = SimConfig(
            step=h, n_steps=200_000, burn_in=5_000, replicas=4,
            seed=72, sampler="ULA",
        )
        traj = run_chain(ou, cfg, observables={"x": lambda x: float(x[0, 0])})
        var = float(np.var(traj.observables["x"]))
        expected = 1.0 / (kappa * (1.0 - kappa * h / 2.0))
        assert abs(var / expected - 1.0) < 0.02


def test_criterion_09_kernel_example():
    with criterion(9, "kernel-example", 60.0):
        k = bounds.kernel_example_constants(L=1.0, alpha=0.05, eta=1.0, v1_sup=0.0)
        assert abs(k.Mmm - 3.57151) < 1e-5
        assert abs(k.rho - 0.367879) < 1e-5
        assert abs(k.beta_max - 1.60944) < 1e-5
        energy = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        mu = empirical([[0.0]])
        norms = [
            float(np.abs(np.linalg.eigvalsh(energy.intrinsic_hess(mu, z, 0.0))).max())
            for z in np.linspace(0.0, 5.0, 201)
        ]
        assert max(norms) <= k.Mmm + 1e-12
        system = ParticleSystem(energy, 10, 1)
        cfg = SimConfig(
            step=0.1, n_steps=6000, burn_in=1000, thin=10, replicas=1,
            seed=73, sampler="MALA",
        )
        frozen = np.concatenate([chain_frozen(system, cfg, 50), verify._frozen_family(10)])
        res = conditional_gap_mc(system, frozen, claimed_rho_N=k.rho, tolerance=0.0)
        assert res.passed
        assert res.minimum >= k.rho


def test_criterion_10_derivative_ladder():
    with criterion(10, "derivative-ladder", 30.0):
        rng = np.random.default_rng(104)
        for energy in concrete_energies():
            system = ParticleSystem(energy, 4, 1)
            for _ in range(100):
                mu = random_measure(rng)
                x = rng.normal() * 1.5
                # flat derivative against the mixture path
                h = 1e-5
                dirac = empirical([[x]])
                lhs = (energy.eval(mix(dirac, mu, h)) - energy.eval(mu)) / h
                flat_mu = np.array(
                    [energy.flat_derivative(mu, p[0]) for p in mu.points]
                )
                rhs = energy.flat_derivative(mu, x) - float(mu.weights @ flat_mu)
                assert abs(lhs - rhs) < 1e-4 * max(1.0, abs(rhs))
                # intrinsic derivative against the flat derivative
                fd = (
                    energy.flat_derivative(mu, x + h)
                    - energy.flat_derivative(mu, x - h)
                ) / (2 * h)
                grad = energy.intrinsic_grad(mu, x)[0]
                assert abs(fd - grad) < 1e-6 * max(1.0, abs(grad))
            # energy gradient and Hessian of the particle potential
            for _ in range(25):
                x = rng.normal(size=(4, 1))
                grad = system.grad_u_n(x)
                for i in range(4):
                    xp, xm = x.copy(), x.copy()
                    xp[i, 0] += 1e-5
                    xm[i, 0] -= 1e-5
                    fd = (system.u_n(xp) - system.u_n(xm)) / 2e-5
                    assert abs(fd - grad[i, 0]) < 1e-5 * max(1.0, abs(grad[i, 0]))
                H = system.hess_u_n(x)
                fd = np.zeros_like(H)
                for i in range(4):
                    xp, xm = x.copy(), x.copy()
                    xp[i, 0] += 1e-4
                    xm[i, 0] -= 1e-4
                    fd[:, i] = (system.grad_u_n(xp) - system.grad_u_n(xm)).ravel() / 2e-4
                np.testing.assert_allclose(H, fd, atol=1e-4)
