import time

import numpy as np
import pytest
from test_energies import _cos_perturbed_kernel
from test_estimators import ripple

from mfgibbs import spectral1d
from mfgibbs.config import GRID_N_MAX
from mfgibbs.dynamics import SimConfig, run_chain
from mfgibbs.energies import PairwiseKernelEnergy, ParticleSystem
from mfgibbs.energies import LinearPotentialEnergy, ParametrizedEnergy, QuadraticMeanEnergy
from mfgibbs.energies import _eye, _identity, quadratic_as_parametrized
from mfgibbs.errors import GibbsUndefinedError
from mfgibbs.estimators import _CONDITIONAL_GRID_N, _level_set_window
from mfgibbs.spectral1d import (
    REFINE_TOL,
    Grid1D,
    conditional_potential,
    gaussian_exact,
    gaussian_kl,
    grid_poincare,
    proximal_gibbs_fixed_point,
    trapezoid_moments,
)
from mfgibbs.spectral1d import _FP_MIN_STEP, _fitted_step, _gap, _generator, _refine_potential


def ou_grid(kappa=1.0, lo=-10.0, hi=10.0, n=2001):
    x = np.linspace(lo, hi, n)
    return Grid1D(lo, hi, n, 0.5 * kappa * x * x)


def _half_damped_fixed_point(energy, lo, hi, n):
    """(density, nodes): the fixed-point iteration with a step of 1/2 every
    time, its density mixed half and half with its target until the two
    agree within 1e-8."""
    x = np.linspace(lo, hi, n)
    h = x[1] - x[0]
    trap = np.full(n, h)
    trap[[0, -1]] *= 0.5
    dens = np.full(n, 1.0 / (hi - lo))
    for _ in range(200):
        flat = energy._flat_on_grid(x, dens * trap / np.sum(dens * trap))
        target = np.exp(-(flat - flat.min()))
        target /= np.trapezoid(target, dx=h)
        if np.max(np.abs(target - dens)) <= 1e-8:
            return target, x
        dens = 0.5 * (dens + target)
    raise AssertionError("the half-damped iteration did not converge")


def _double_well(k, tilt):
    """V = x^4/4 - x^2 + tilt x with the attraction R(m) = -(k/2) m^2 on the mean."""
    return ParametrizedEnergy(
        base=LinearPotentialEnergy(
            lambda x: 0.25 * x[..., 0] ** 4 - x[..., 0] ** 2 + tilt * x[..., 0],
            lambda x: x**3 - 2.0 * x + tilt,
            lambda x: (3.0 * x**2 - 2.0)[..., None],
        ),
        phi=_identity,
        phi_jac=_eye,
        r=lambda m: -0.5 * k * np.sum(m * m, axis=-1),
        r_grad=lambda m: -k * m,
        r_hess=lambda m: -k * _eye(m),
        alpha_r=k / 2.0,
        r_hess_bound=k,
    )


class TestGrid1D:
    def test_density_normalized(self):
        g = ou_grid()
        assert abs(np.trapezoid(g.density(), dx=g.spacing) - 1.0) < 1e-12

    def test_density_matches_gaussian(self):
        g = ou_grid()
        ref = np.exp(-0.5 * g.x**2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(g.density() - ref)) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 10, np.zeros(10))
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 10, np.zeros(9))
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 3, np.array([0.0, np.inf, 0.0]))

    @pytest.mark.parametrize(
        "lo, hi", [(np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 0.0), (1.0, 1.0)]
    )
    def test_bounds_must_be_finite_and_ordered(self, lo, hi):
        with pytest.raises(ValueError, match="finite lo < hi"):
            Grid1D(lo, hi, 5, np.zeros(5))


class TestGridPoincare:
    def test_ou_unit(self):
        res = grid_poincare(ou_grid(1.0))
        assert abs(res.gap - 1.0) < 1e-3
        assert res.converged

    def test_ou_scaling(self):
        # gap of U = kappa x^2 / 2 is exactly kappa
        for kappa in (0.5, 2.0, 4.0):
            lo = 12.0 / np.sqrt(kappa)
            res = grid_poincare(ou_grid(kappa, -lo, lo, 4001))
            assert abs(res.gap - kappa) < 2e-3 * kappa

    def test_additive_shift_invariant(self):
        g = ou_grid()
        shifted = Grid1D(g.lo, g.hi, g.n, g.potential + 7.3)
        a = grid_poincare(g).gap
        b = grid_poincare(shifted).gap
        assert abs(a - b) < 1e-12

    def test_translation_invariant(self):
        g = Grid1D(-10.0, 14.0, 2401, 0.5 * (np.linspace(-10.0, 14.0, 2401) - 2.0) ** 2)
        res = grid_poincare(g)
        assert abs(res.gap - 1.0) < 1e-3

    def test_double_well_below_convexity(self):
        # U = (x^2-1)^2 has a small gap due to the barrier, far below the
        # curvature at the wells (which is 8)
        x = np.linspace(-6.0, 6.0, 4001)
        g = Grid1D(-6.0, 6.0, 4001, (x * x - 1.0) ** 2)
        res = grid_poincare(g)
        assert 0.0 < res.gap < 4.0

    def test_boundary_mass_guard(self):
        x = np.linspace(-2.0, 2.0, 101)
        g = Grid1D(-2.0, 2.0, 101, 0.5 * x * x)
        with pytest.raises(ValueError):
            grid_poincare(g)

    def test_refinement_consistency(self):
        coarse = grid_poincare(ou_grid(n=401)).gap
        fine = grid_poincare(ou_grid(n=3201)).gap
        # second-order scheme: coarse error should dominate and both are close
        assert abs(fine - 1.0) < abs(coarse - 1.0) + 1e-9
        assert abs(coarse - fine) < 1e-3


def _grid(potential, lo, hi, n=301):
    return Grid1D(lo, hi, n, potential(np.linspace(lo, hi, n)))


def _dense_generator(grid):
    diag, off = _generator(grid)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


class TestGapAgainstDense:
    """`grid_poincare`'s bisection gap against a dense eigensolve of the same
    symmetric tridiagonal: its least eigenvalue is the constant mode's 0, the
    next one the gap."""

    GRIDS = {
        "ou": (lambda x: 0.5 * x * x, -10.0, 10.0),
        "tilted-well": (lambda x: x**4 / 4 - x * x + 0.3 * x, -4.5, 4.5),
        "deep-well": (lambda x: 2.0 * (x * x - 1.0) ** 2 + 0.5 * x, -3.0, 3.0),
        # u exceeds 600 beyond |x| ~ 34.6: those nodes are dropped
        "steep-tail": (lambda x: 0.5 * x * x, -40.0, 40.0),
    }

    @pytest.mark.parametrize("name", GRIDS)
    def test_gap_is_second_dense_eigenvalue(self, name):
        grid = _grid(*self.GRIDS[name])
        vals = np.linalg.eigvalsh(_dense_generator(grid))
        gap = grid_poincare(grid).gap
        assert abs(gap - vals[1]) <= 1e-9 * vals[1]
        assert abs(vals[0]) <= 1e-9 * gap

    def test_steep_tail_drops_nodes(self):
        grid = _grid(*self.GRIDS["steep-tail"])
        kept = np.nonzero(grid.potential - grid.potential.min() <= 600.0)[0]
        diag, off = _generator(grid)
        assert len(diag) == len(kept) < grid.n
        assert len(off) == len(kept) - 1
        # the gap of the grid cut to the kept nodes, up to the rounding of
        # the cut grid's spacing
        x = grid.x[kept]
        cut = Grid1D(x[0], x[-1], len(kept), grid.potential[kept])
        gap = grid_poincare(grid).gap
        assert abs(gap - grid_poincare(cut).gap) <= 1e-12 * gap
        assert abs(gap - 1.0) < 1e-2

    def test_one_eigenvalue_per_grid(self, monkeypatch):
        # one LAPACK routine for all three calls: a bisection for the index-1
        # eigenvalue alone (RANGE = 'I', il = iu = 2) on the n-node grid, and
        # two eigenvalue counts (RANGE = 'V') on the 2n - 1 grid, which
        # refine no eigenvalue
        import scipy.linalg.lapack

        calls = []
        stebz = scipy.linalg.lapack.dstebz

        def spy(diag, off, *args):
            calls.append((len(diag), args[0], args[3:5]))
            return stebz(diag, off, *args)

        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", spy)
        grid_poincare(ou_grid(n=301))
        assert calls == [(301, 2, (2, 2)), (601, 1, (0, 0)), (601, 1, (0, 0))]

    @pytest.mark.parametrize("n", [21, 301, 1201, 2401])
    def test_the_gap_is_the_select_range_bisection(self, n):
        # dstebz with RANGE = 'I' is the call eigh_tridiagonal makes for
        # select="i": the same gap, bit for bit, on smooth and rough potentials
        from scipy.linalg import eigh_tridiagonal

        x = np.linspace(-12.0, 12.0, n)
        potentials = (0.5 * x * x, 0.5 * x * x + 3.0 * np.cos(5.0 * x),
                      0.25 * x**4 - x * x, 0.5 * x * x + np.cos(100.0 * x))
        for potential in potentials:
            grid = Grid1D(-12.0, 12.0, n, potential)
            (ref,) = eigh_tridiagonal(
                *_generator(grid), eigvals_only=True, select="i", select_range=(1, 1)
            )
            assert _gap(grid) == float(ref)


def _parent_rule(grid):
    """The refinement check as a second bisection made it: the index-1
    eigenvalue of the 2n - 1 grid within REFINE_TOL |gap| of the gap."""
    from scipy.linalg import eigh_tridiagonal

    def gap_of(g):
        vals = eigh_tridiagonal(*_generator(g), eigvals_only=True, select="i", select_range=(1, 1))
        return float(vals[0])

    fine = Grid1D(grid.lo, grid.hi, 2 * grid.n - 1, _refine_potential(grid.potential))
    gap = gap_of(grid)
    return abs(gap_of(fine) - gap) <= REFINE_TOL * max(abs(gap), 1e-300)


def _ripple_grids():
    """The windowed grids of `conditional_gap_mc` for V = x^2/2 + cos(100 x),
    N = 3, at the three configurations of `test_estimators.ripple`."""
    system, frozen = ripple()
    grids = []
    for others in frozen:
        lo, hi = _level_set_window(system, others)
        grids.append(conditional_potential(system, others, lo, hi, _CONDITIONAL_GRID_N))
    return grids


class TestRefinementCounts:
    """`converged` from two eigenvalue counts on the 2n - 1 grid against the
    rule they replace, a second bisection there."""

    TABLE = {
        "ou": (lambda: [ou_grid()], True),
        "double-well": (lambda: [_grid(lambda x: (x * x - 1.0) ** 2, -6.0, 6.0, 4001)], True),
        "tilted-well": (lambda: [_grid(*TestGapAgainstDense.GRIDS["tilted-well"])], True),
        "steep-tail": (lambda: [_grid(*TestGapAgainstDense.GRIDS["steep-tail"])], False),
        "coarse-ou-n21": (lambda: [_grid(lambda x: 0.5 * x * x, -12.0, 12.0, 21)], False),
        "ripple": (_ripple_grids, False),
    }

    @pytest.mark.parametrize("name", TABLE)
    def test_counts_equal_the_second_bisection(self, name):
        build, expected = self.TABLE[name]
        for grid in build():
            assert grid_poincare(grid).converged is _parent_rule(grid) is expected

    @pytest.mark.parametrize("barrier", [30.0, 40.0, 60.0])
    def test_a_gap_at_the_bisection_resolution_is_not_converged(self, barrier):
        # U = barrier (x^2 - 1)^2: the true gap, about e^{-barrier} times a
        # prefactor below 100, lies far below eps times the generator's norm,
        # so the bisection returns round-off, which no refinement confirms
        grid = _grid(lambda x: barrier * (x * x - 1.0) ** 2, -2.5, 2.5, 801)
        diag, off = _generator(grid)
        norm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
        res = grid_poincare(grid)
        assert abs(res.gap) <= np.finfo(float).eps * norm
        assert res.converged is False

    def test_a_failed_count_raises(self, monkeypatch):
        import scipy.linalg.lapack

        monkeypatch.setattr(
            scipy.linalg.lapack, "dstebz", lambda d, *args: (0, d, None, None, 1)
        )
        with pytest.raises(np.linalg.LinAlgError, match="info=1"):
            grid_poincare(ou_grid(n=301))


def _conditional_by_node(system, frozen, lo, hi, n):
    """x1 -> U_N over the grid nodes, one `system.u_n` per node."""
    config = np.empty((system.N, 1))
    config[1:, 0] = frozen
    vals = np.empty(n)
    for k, xk in enumerate(np.linspace(lo, hi, n)):
        config[0, 0] = xk
        vals[k] = system.u_n(config)
    return vals - vals.min()


class TestConditionalPotential:
    @pytest.mark.parametrize(
        "energy, N",
        [(QuadraticMeanEnergy(0.5), 20), (PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05), 8)],
        ids=["quadratic", "kernel"],
    )
    def test_matches_node_by_node(self, energy, N):
        system = ParticleSystem(energy, N, 1)
        frozen = np.random.default_rng(N).normal(size=N - 1)
        grid = conditional_potential(system, frozen, -12.0, 12.0, 801)
        ref = _conditional_by_node(system, frozen, -12.0, 12.0, 801)
        assert np.max(np.abs(grid.potential - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_quadratic_closed_form(self):
        # x1 | rest for the quadratic-mean energy: curvature 1 - a/N
        a, N = 0.5, 20
        system = ParticleSystem(QuadraticMeanEnergy(a), N, 1)
        rng = np.random.default_rng(5)
        frozen = rng.normal(size=N - 1)
        grid = conditional_potential(system, frozen, -30.0, 30.0, 3001)
        res = grid_poincare(grid)
        assert abs(res.gap - (1.0 - a / N)) < 1e-3

    def test_frozen_count_checked(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 5, 1)
        with pytest.raises(ValueError):
            conditional_potential(system, np.zeros(3), -10, 10, 101)

    def test_kernel_curvature_positive(self):
        kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        system = ParticleSystem(kern, 10, 1)
        frozen = np.linspace(-1.0, 1.0, 9)
        grid = conditional_potential(system, frozen, -40.0, 40.0, 2001)
        res = grid_poincare(grid)
        assert res.gap > np.exp(-1) - 1e-6  # uniform lower bound eta e^{-L}


class TestFixedPoint:
    def test_quadratic_standard_normal(self):
        # flat derivative |x|^2/2 - a xbar x; symmetric fixed point is N(0, 1)
        res = proximal_gibbs_fixed_point(QuadraticMeanEnergy(0.5), -8.0, 8.0, 1601)
        assert res.converged
        ref = np.exp(-0.5 * res.grid_x**2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(res.density - ref)) < 1e-10
        assert abs(res.variance() - 1.0) < 1e-6
        assert res.grid_converged and res.refinement_change < 1e-12

    def test_coarse_grid_fails_the_refinement_check(self):
        # 9 nodes on [-8, 8]: the trapezoid variance of the unit-variance law
        # reads 0.86 and moves by 16 % on 17 nodes, although the iteration converges
        res = proximal_gibbs_fixed_point(QuadraticMeanEnergy(0.2), -8.0, 8.0, 9)
        assert res.converged
        assert abs(res.variance() - 0.860) < 1e-3
        assert res.refinement_change > 0.1 > REFINE_TOL
        assert not res.grid_converged

    def test_kernel_variance_matches_a_replay_on_the_exact_flat(self):
        kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        res = proximal_gibbs_fixed_point(kern, -8.0, 8.0, 1201)
        x = np.linspace(-8.0, 8.0, 1201)
        h = x[1] - x[0]
        trap = np.full(len(x), h)
        trap[[0, -1]] *= 0.5
        dens = np.full(len(x), 1.0 / 16.0)
        step, last = 1.0, None
        for it in range(1, 201):
            w = dens * trap / np.sum(dens * trap)
            flat = kern._flat(x[:, None], w, x[:, None])
            target = np.exp(-(flat - flat.min()))
            target /= np.trapezoid(target, dx=h)
            r = target - dens
            if np.max(np.abs(r)) <= 1e-8:
                dens = target
                break
            if last is not None:
                diff = r - last
                step = min(1.0, max(0.05, -step * (last @ diff) / (diff @ diff)))
            dens = dens + step * r
            last = r
        assert res.converged and res.grid_converged and res.iterations == it
        mean = np.trapezoid(x * dens, dx=h)
        var = np.trapezoid((x - mean) ** 2 * dens, dx=h)
        assert abs(res.variance() - var) <= 1e-12 * var

    @pytest.mark.parametrize(
        "build, n",
        [
            (lambda: QuadraticMeanEnergy(0.2), 1201),
            (lambda: QuadraticMeanEnergy(0.5), 1201),
            (lambda: QuadraticMeanEnergy(0.9), 1201),
            (lambda: quadratic_as_parametrized(0.2), 401),
            (lambda: PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05), 1201),
            (lambda: PairwiseKernelEnergy(eta=1.0, L=3.0, alpha=0.05), 1201),
            (lambda: PairwiseKernelEnergy(eta=1.0, L=0.1, alpha=0.01), 1201),
            (_cos_perturbed_kernel, 1201),
        ],
        ids=[
            "quadratic-0.2", "quadratic-0.5", "quadratic-0.9", "parametrized-0.2",
            "kernel-1-0.05", "kernel-3-0.05", "kernel-0.1-0.01", "kernel-v1=cos",
        ],
    )
    def test_variance_matches_the_half_damped_iteration(self, build, n):
        energy = build()
        res = proximal_gibbs_fixed_point(energy, -8.0, 8.0, n)
        dens, x = _half_damped_fixed_point(energy, -8.0, 8.0, n)
        var = trapezoid_moments(x, dens, x[1] - x[0])[1]
        assert res.converged and res.grid_converged
        assert abs(res.variance() - var) <= 1e-8 * var

    @pytest.mark.parametrize(
        "energy, n, most",
        [
            (QuadraticMeanEnergy(0.2), 1201, 3),
            (PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05), 1201, 12),
        ],
        ids=["quadratic", "kernel"],
    )
    def test_iterations_on_the_analysis_grid(self, energy, n, most):
        # a step of 1/2 every time took 27 and 26
        assert proximal_gibbs_fixed_point(energy, -8.0, 8.0, n).iterations <= most

    def test_a_tilted_double_well_reaches_the_damped_fixed_point(self, monkeypatch):
        # V = x^4/4 - x^2 + 0.05 x with attraction R(m) = -m^2/2 has several
        # fixed points. On the way the fit asks for steps above 1 (up to 1.6
        # uncapped) and below 0.05: both ends of the clip bind
        steps = []

        def spy(*args):
            steps.append(_fitted_step(*args))
            return steps[-1]

        monkeypatch.setattr(spectral1d, "_fitted_step", spy)
        energy = _double_well(k=1.0, tilt=0.05)
        res = proximal_gibbs_fixed_point(energy, -8.0, 8.0, 401)
        assert (min(steps), max(steps)) == (_FP_MIN_STEP, 1.0)
        dens, x = _half_damped_fixed_point(energy, -8.0, 8.0, 401)
        h = x[1] - x[0]
        damped_mean = trapezoid_moments(x, dens, h)[0]
        assert abs(damped_mean + 1.500470) < 1e-6
        assert res.converged and res.grid_converged
        assert abs(trapezoid_moments(res.grid_x, res.density, h)[0] - damped_mean) < 1e-8

    def test_the_fitted_step_stays_in_its_range(self):
        rng = np.random.default_rng(3)
        for step in (_FP_MIN_STEP, 0.3, 1.0):
            for _ in range(200):
                last, r = rng.normal(size=(2, 50)) * rng.lognormal(size=(2, 1))
                assert _FP_MIN_STEP <= _fitted_step(step, last, r) <= 1.0
        # the secant fit of a linear map with slope -1 is 1/2, 1 / (1 - slope)
        assert _fitted_step(1.0, np.ones(5), -np.ones(5)) == 0.5

    def test_a_zero_denominator_keeps_the_step(self):
        r = np.linspace(-1.0, 1.0, 7)
        with np.errstate(all="raise"):
            assert _fitted_step(0.37, r, r.copy()) == 0.37
            assert _fitted_step(0.37, np.zeros(7), np.zeros(7)) == 0.37

    def test_a_narrow_window_overflows_no_step(self):
        # densities near 1e200 on a window of width 1e-200: the step's dot
        # products, taken on masses, stay finite
        kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        with np.errstate(over="raise", invalid="raise"):
            res = proximal_gibbs_fixed_point(kern, 0.0, 1e-200, 11)
        assert np.all(np.isfinite(res.density))

    def test_kernel_at_the_grid_cap_is_fast(self):
        # the exact O(n^2) sum took about 6 s for the first fixed point alone
        kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        start = time.perf_counter()
        res = proximal_gibbs_fixed_point(kern, -8.0, 8.0, GRID_N_MAX)
        assert time.perf_counter() - start < 2.0
        assert res.converged and res.grid_converged

    def test_kernel_fixed_point(self):
        kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        res = proximal_gibbs_fixed_point(kern, -12.0, 12.0, 1201)
        assert res.converged
        assert abs(np.trapezoid(res.density, dx=res.grid_x[1] - res.grid_x[0]) - 1.0) < 1e-9
        # symmetric energy, symmetric window: even density
        assert np.max(np.abs(res.density - res.density[::-1])) < 1e-7

    def test_mc_cross_check(self):
        # large-N particle marginal approximates the mean-field fixed point
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 100, 1)
        cfg = SimConfig(
            step=0.1, n_steps=20000, burn_in=2000, thin=5,
            replicas=4, seed=11, sampler="MALA",
        )
        traj = run_chain(system, cfg, observables={"x1": lambda x: float(x[0, 0])})
        var_mc = float(np.var(traj.observables["x1"]))
        res = proximal_gibbs_fixed_point(QuadraticMeanEnergy(0.5), -8.0, 8.0, 801)
        assert abs(var_mc - res.variance()) < 0.1


class TestGaussianExact:
    def test_small_system(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 2, 1)
        res = gaussian_exact(system)
        np.testing.assert_allclose(res.precision, [[0.75, -0.25], [-0.25, 0.75]])
        assert abs(res.poincare - 0.5) < 1e-12

    def test_matches_quadratic_formula(self):
        for a in (0.2, 0.8):
            for N in (5, 50):
                system = ParticleSystem(QuadraticMeanEnergy(a), N, 1)
                assert abs(gaussian_exact(system).poincare - (1.0 - a)) < 1e-12

    def test_undefined(self):
        with pytest.raises(GibbsUndefinedError):
            gaussian_exact(ParticleSystem(QuadraticMeanEnergy(1.2), 5, 1))

    def test_rejects_other_energies(self):
        kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        with pytest.raises(TypeError):
            gaussian_exact(ParticleSystem(kern, 5, 1))


class TestGaussianKL:
    def test_identical_zero(self):
        assert abs(gaussian_kl([0.0], [[2.0]], [0.0], [[0.5]])) < 1e-12

    def test_mean_shift_scalar(self):
        # KL(N(m,1) || N(0,1)) = m^2/2
        assert abs(gaussian_kl([1.0], [[1.0]], [0.0], [[1.0]]) - 0.5) < 1e-12

    def test_variance_scalar(self):
        # KL(N(0,s) || N(0,1)) = (s - 1 - ln s)/2
        s = 0.5
        expected = 0.5 * (s - 1.0 - np.log(s))
        assert abs(gaussian_kl([0.0], [[s]], [0.0], [[1.0]]) - expected) < 1e-12
        assert abs(expected - 0.09657359027997264) < 1e-15

    def test_multivariate_rotation_invariant(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(3, 3))
        cov = A @ A.T + 0.5 * np.eye(3)
        m = rng.normal(size=3)
        kl = gaussian_kl(m, cov, np.zeros(3), np.eye(3))
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        kl_rot = gaussian_kl(Q @ m, Q @ cov @ Q.T, np.zeros(3), np.eye(3))
        assert abs(kl - kl_rot) < 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2))
            kl = gaussian_kl(
                rng.normal(size=2), a @ a.T + 0.1 * np.eye(2),
                rng.normal(size=2), np.linalg.inv(b @ b.T + 0.1 * np.eye(2)),
            )
            assert kl >= -1e-12

    @pytest.mark.parametrize("precision", [[[0.0]], [[-1.0]]])
    def test_degenerate_rejected(self, precision):
        with pytest.raises(ValueError, match="second precision"):
            gaussian_kl([0.0], [[1.0]], [0.0], precision)


class TestGaussianKLStack:
    @staticmethod
    def laws(rng, count, k):
        B = rng.normal(size=(count, k, k))
        return rng.normal(size=(count, k)), B @ np.swapaxes(B, -1, -2) + 0.3 * np.eye(k)

    @pytest.mark.parametrize("k", [1, 3, 50])
    def test_stack_equals_one_law_calls(self, k):
        rng = np.random.default_rng(k)
        means, covs = self.laws(rng, 7, k)
        (mean_b,), (cov_b,) = self.laws(rng, 1, k)
        precision_b = np.linalg.inv(cov_b)
        stacked = gaussian_kl(means, covs, mean_b, precision_b)
        assert stacked.shape == (7,)
        one = np.array([gaussian_kl(m, c, mean_b, precision_b) for m, c in zip(means, covs)])
        assert np.all(np.abs(stacked - one) <= 1e-14 * np.abs(one))

    def test_stack_shape_kept(self):
        means, covs = self.laws(np.random.default_rng(2), 6, 2)
        kl = gaussian_kl(means.reshape(2, 3, 2), covs.reshape(2, 3, 2, 2), np.zeros(2), np.eye(2))
        assert kl.shape == (2, 3)
        np.testing.assert_array_equal(kl.ravel(), gaussian_kl(means, covs, np.zeros(2), np.eye(2)))

    def test_one_law_is_float(self):
        assert isinstance(gaussian_kl([1.0, 0.0], np.eye(2), [0.0, 0.0], np.eye(2)), float)

    @pytest.mark.parametrize("cov", [-np.eye(2), np.diag([-1.0, -2.0])], ids=["-I2", "diag(-1,-2)"])
    def test_indefinite_first_covariance_rejected(self, cov):
        # slogdet's sign of either is +1: its log-determinant alone would pass
        with pytest.raises(ValueError, match="first covariance"):
            gaussian_kl([0.0, 0.0], cov, [0.0, 0.0], np.eye(2))
        stack = np.stack([np.eye(2), cov, 2.0 * np.eye(2)])
        with pytest.raises(ValueError, match="first covariance"):
            gaussian_kl(np.zeros((3, 2)), stack, [0.0, 0.0], np.eye(2))

    @pytest.mark.parametrize(
        "mean_a, cov_a, mean_b, precision_b",
        [
            (np.zeros((3, 2)), np.tile(np.eye(2), (4, 1, 1)), np.zeros(2), np.eye(2)),
            (np.zeros(3), np.eye(2), np.zeros(2), np.eye(2)),
            (np.zeros(2), np.zeros((2, 3)), np.zeros(2), np.eye(2)),
            (np.zeros(2), np.eye(2), np.zeros((2, 2)), np.eye(2)),
            (np.zeros(2), np.eye(2), np.zeros(2), np.eye(3)),
        ],
        ids=["stack-sizes", "first-mean", "first-cov", "second-mean", "second-cov"],
    )
    def test_mismatched_shapes_rejected(self, mean_a, cov_a, mean_b, precision_b):
        with pytest.raises(ValueError, match="need means"):
            gaussian_kl(mean_a, cov_a, mean_b, precision_b)


class TestLsiFisherProperty:
    def fisher_info(self, mean, cov, prec_target):
        # I(N(m,S) || N(0,S*)) with S* = prec_target^{-1}:
        # |prec_target m|^2 + tr((prec_target - S^{-1}) S (prec_target - S^{-1}))
        S = np.atleast_2d(cov)
        m = np.atleast_1d(mean)
        D = prec_target - np.linalg.inv(S)
        return float(m @ prec_target @ prec_target @ m + np.trace(D @ S @ D))

    def test_lsi_constant_is_sharp_bound(self):
        # KL <= I / (2 rho) with rho the exact LSI constant, tight for
        # covariance perturbations along the soft eigendirection
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 4, 1)
        exact = gaussian_exact(system)
        A = exact.precision
        rho = exact.poincare  # the optimal LSI constant too
        covariance = np.linalg.inv(A)
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(100):
            m = 0.5 * rng.normal(size=4)
            B = rng.normal(size=(4, 4))
            S = 0.2 * (B @ B.T) + 0.5 * np.eye(4)
            kl = gaussian_kl(m, S, np.zeros(4), A)
            fi = self.fisher_info(m, S, A)
            assert 2.0 * rho * kl <= fi + 1e-10
            if fi > 0:
                worst = max(worst, 2.0 * rho * kl / fi)
        # near-tight along the minimal eigendirection via small mean shifts
        v = np.linalg.eigh(A)[1][:, 0]
        kl = gaussian_kl(1e-3 * v, covariance, np.zeros(4), A)
        fi = self.fisher_info(1e-3 * v, covariance, A)
        assert abs(2.0 * rho * kl / fi - 1.0) < 1e-6
