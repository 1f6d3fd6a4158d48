"""Verification batteries behind `mfgibbs verify <suite>`.

Each battery returns a list of (check name, passed, detail) tuples so the
CLI can print a table and pick an exit code.
"""

from __future__ import annotations

import numpy as np

from . import bounds, measures, spectral1d
from .energies import (
    PairwiseKernelEnergy,
    ParticleSystem,
    QuadraticMeanEnergy,
    quadratic_as_parametrized,
)
from .estimators import conditional_gap_mc, entropy_decay_gaussian
from .measures import empirical

__all__ = ["SUITES"]

SHARPNESS_A = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
SHARPNESS_N = (10, 50, 200)


def _random_stacks(rng, count: int) -> tuple:
    """`count` random pairs (mu, nu) on the line, 1..6 atoms each, as two
    checked stacks (points (count, 6, 1), weights (count, 6)), padded by
    atoms at 0 of weight 0. Each measure's weights are U(0, 1) + 0.05,
    normalized, and its atoms N(0, 4). The draws: the atom counts of all mu,
    then of all nu; then mu's weights and atoms, then nu's, six per measure,
    of which those beyond its atom count are dropped."""
    n_mu, n_nu = rng.integers(1, 7, size=count), rng.integers(1, 7, size=count)
    stacks = []
    for n in (n_mu, n_nu):
        used = np.arange(6) < n[:, None]
        w = np.where(used, rng.random((count, 6)) + 0.05, 0.0)
        points = np.where(used[..., None], rng.normal(size=(count, 6, 1)) * 2.0, 0.0)
        stacks.append((points, w / w.sum(axis=1, keepdims=True)))
        measures.check_atoms(*stacks[-1])
    return tuple(stacks)


def suite_sharpness():
    results = []
    for a in SHARPNESS_A:
        for N in SHARPNESS_N:
            q = bounds.quadratic_example_constants(a, N)
            system = ParticleSystem(QuadraticMeanEnergy(a), N, 1)
            exact = spectral1d.gaussian_exact(system).poincare
            name = f"sharpness a={a} N={N}"
            ok = (
                abs(q.theorem_bound - (1.0 - a * (1.0 + 2.0 / N))) < 1e-12
                and abs(exact - (1.0 - a)) < 1e-10
                and q.theorem_bound <= exact + 1e-12
                and abs((exact - q.theorem_bound) - 2.0 * a / N) < 1e-10
            )
            results.append((name, ok, f"bound={q.theorem_bound:.6f} exact={exact:.6f}"))
    return results


def _concrete_energies():
    return [
        ("quadratic(a=0.5)", QuadraticMeanEnergy(0.5)),
        ("kernel(L=1,alpha=0.05,eta=1)", PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)),
        ("parametrized(a=0.5)", quadratic_as_parametrized(0.5)),
    ]


def _random_deficits():
    """(check name, deficit of each pair in index order) of the mixture
    checks on random pairs."""
    rng = np.random.default_rng(0)
    checks = []
    for name, energy in _concrete_energies():
        penalty = bounds.w2_penalty(energy.declared_lambda)
        deficits = bounds.stack_deficits(energy, *_random_stacks(rng, 1000), penalty)
        checks.append((f"semi-convexity {name}", deficits))
    par = quadratic_as_parametrized(0.5)  # cost-convexity for the parametrized route
    penalty = bounds.feature_cost_penalty(par)
    deficits = bounds.stack_deficits(par, *_random_stacks(rng, 200), penalty)
    return checks + [("cost-convexity parametrized", deficits)]


def _spread():
    """100 points evenly spaced on [-50, 50], where the Gaussian kernel
    barely couples neighbours: the atoms of both kernel witnesses."""
    return np.linspace(-50.0, 50.0, 100)[:, None]


def _frozen_family(N):
    """11 configurations of the N - 1 others, a stack (11, N - 1): all at one
    point c in (0, 0.5, 1, 1.5, 2, 3), then floor((N - 1) / 2) of them at -c
    and the rest at +c for c in (0.5, 1, 1.5, 2, 3). The kernel's least
    conditional gap lies among them (at c = 0, for L = 1), where a chain's
    draws miss it."""
    first = np.arange(N - 1) < (N - 1) // 2
    together = [np.full(N - 1, c) for c in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)]
    split = [np.where(first, -c, c) for c in (0.5, 1.0, 1.5, 2.0, 3.0)]
    return np.array(together + split)


def _kernel_witness():
    """A pair on which the kernel energy's declared lambda = 2 alpha is
    nearly sharp: mu of equal atoms at `_spread()` and nu = mu shifted by
    0.5. The random pairs of a few N(0, 4) atoms still pass at 0.8 lambda."""
    x = _spread()
    return empirical(x), empirical(x + 0.5)


def suite_curvature():
    results = []
    quad = QuadraticMeanEnergy(0.5)
    # equality case on the Dirac pairs (0, 2), (-1, 3) and (0.5, 0.5), one stack
    ones = np.ones((3, 1))
    mu = np.array([0.0, -1.0, 0.5])[:, None, None], ones
    nu = np.array([2.0, 3.0, 0.5])[:, None, None], ones
    deficits = bounds.stack_deficits(quad, mu, nu, bounds.w2_penalty(quad.declared_lambda))
    worst = float(np.max(np.abs(deficits)))
    results.append(("quadratic Dirac equality", worst <= 1e-12, f"|deficit|={worst:.2e}"))
    # sensitivity: an understated modulus must be caught
    deficit = bounds.check_semi_convexity(quad, empirical([[0.0]]), empirical([[2.0]]), lam=0.25)
    results.append(("understated lambda detected", deficit > 1e-6, f"deficit={deficit:.3e}"))
    # np.max, unlike max, carries a NaN deficit into a FAIL
    for name, deficits in _random_deficits():
        worst = float(np.max(deficits))
        results.append((name, worst <= 1e-9, f"worst={worst:.2e}"))
    kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
    deficit, found = bounds.semi_convexity_witness(kern, *_kernel_witness())
    results.append((
        "semi-convexity kernel witness",
        deficit <= 1e-9,
        f"lambda found={found:.6f} <= declared {kern.declared_lambda}",
    ))
    return results


def _mmm_line(name, energy, stacks):
    """The M_mm check of an energy: the largest block norm over its stacks
    of configurations against the declared M_mm."""
    norm = float(np.max([bounds.hessian_block_norm(energy, x) for x in stacks]))
    Mmm = energy.declared_Mmm
    return (
        f"{name} Mmm",
        norm <= Mmm + 1e-9,
        f"max block norm={norm:.6f} <= declared {Mmm:.6f} (slack {Mmm - norm:.6f})",
    )


def suite_hessian():
    rng = np.random.default_rng(1)
    results = []
    quad = QuadraticMeanEnergy(0.5)
    quad_configs = rng.normal(size=(1, 4, 1))
    ratio = bounds.hessian_block_bound(quad, quad_configs)
    results.append(
        ("quadratic block bound sharp", abs(ratio + 0.5) <= 1e-9, f"min ratio={ratio:.6f}")
    )
    kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
    configs = rng.normal(size=(100, 8, 1))
    ratio = bounds.hessian_block_bound(kern, configs)
    results.append(
        (
            "kernel block bound",
            ratio >= -kern.declared_lambda - 1e-9,
            f"min ratio={ratio:.6f} >= {-kern.declared_lambda}",
        )
    )
    # the particles at `_spread()` nearly reach -lambda, which the random
    # configurations of 8 N(0, 1) particles miss by a factor of 30
    witness = _spread()[None]
    ratio = bounds.hessian_block_bound(kern, witness)
    results.append((
        "kernel block bound witness",
        ratio >= -kern.declared_lambda - 1e-9,
        f"lambda found={-ratio:.6f} <= declared {kern.declared_lambda}",
    ))
    results.append(_mmm_line("quadratic", quad, (quad_configs, witness)))
    results.append(_mmm_line("kernel", kern, (configs, witness)))
    # every block of the parametrized quadratic is -a I, so both of its
    # lines are sharp on the kernel's configurations, with no witness
    par = quadratic_as_parametrized(0.5)
    ratio = bounds.hessian_block_bound(par, configs)
    results.append((
        "parametrized block bound",
        ratio >= -par.declared_lambda - 1e-9,
        f"min ratio={ratio:.6f} >= {-par.declared_lambda}",
    ))
    results.append(_mmm_line("parametrized", par, (configs,)))
    return results


def _gap_line(name, system, frozen):
    """The conditional gap check of an energy: the least gap over `frozen`
    against the declared rho_N, every grid converged."""
    rho_N = system.energy.declared_rho_N(system.N)
    res = conditional_gap_mc(system, frozen, claimed_rho_N=rho_N)
    return (
        f"{name} conditional gap >= rho",
        bool(res.passed),
        f"min={res.minimum:.6f} rho={rho_N:.6f}",
    )


def suite_conditional():
    results = []
    N = 20
    system = ParticleSystem(QuadraticMeanEnergy(0.5), N, 1)
    rho_N = system.energy.declared_rho_N(N)
    # the quadratic conditional law only shifts with the others, so three
    # rows (c = 0, all at 3, split at -3 and 3) show it constant
    shifts = _frozen_family(N)[[0, 5, 10]]
    res = conditional_gap_mc(system, shifts, claimed_rho_N=rho_N)
    results.append(
        (
            "quadratic conditional gap",
            abs(res.median - rho_N) <= 1e-3 and res.spread < 1e-6 and bool(res.converged.all()),
            f"median={res.median:.6f} spread={res.spread:.2e}",
        )
    )
    kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
    results.append(_gap_line("kernel", ParticleSystem(kern, 8, 1), _frozen_family(8)))
    par = ParticleSystem(quadratic_as_parametrized(0.5), N, 1)
    results.append(_gap_line("parametrized", par, shifts))
    return results


def suite_entropy():
    results = []
    a, N = 0.2, 50
    system = ParticleSystem(QuadraticMeanEnergy(a), N, 1)
    report, _ = bounds.corollary_report(system.energy, N, 1, var_phi=1.0, epsilon=0.5)
    times = np.linspace(0.0, 4.0, 60)
    curve = entropy_decay_gaussian(
        system,
        mean0=np.ones(N),
        cov0=np.eye(N),
        times=times,
        rho_star=report.rho_star,
    )
    target = 2.0 * (1.0 - a)
    ok_rate = abs(curve.rate - target) <= 0.01 * target
    results.append(
        ("entropy decay rate 2(1-a)", ok_rate, f"rate={curve.rate:.5f} target={target}")
    )
    results.append(("entropy floor ~ 0", curve.floor < 1e-8, f"floor={curve.floor:.2e}"))
    if report.rho_star is not None:
        results.append(
            (
                "rate >= 2 rho_star",
                bool(curve.flags.get("rate_geq_2rho_star", False)),
                f"2 rho_star={2 * report.rho_star:.5f}",
            )
        )
    return results


SUITES = {
    "sharpness": suite_sharpness,
    "curvature": suite_curvature,
    "hessian": suite_hessian,
    "conditional": suite_conditional,
    "entropy": suite_entropy,
}
