"""Deterministic oracles: 1-D grid spectral gaps, proximal-Gibbs fixed points, and the
Gaussian target of a quadratic-mean system (exact constants, exact OU flow, KL)."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .energies import MeanFieldEnergy, ParticleSystem, QuadraticMeanEnergy
from .errors import GibbsUndefinedError

__all__ = [
    "Grid1D",
    "SpectralResult",
    "grid_poincare",
    "boundary_negligible",
    "end_density_ratio",
    "conditional_potential",
    "proximal_gibbs_fixed_point",
    "trapezoid_moments",
    "gaussian_exact",
    "ou_exact_flow_stacks",
    "gaussian_kl",
]

#: Damped fixed-point iteration: step cap, sup-norm tolerance, old-density share.
_FP_MAX_ITER, _FP_TOL, _FP_DAMPING = 200, 1e-8, 0.5
#: Largest relative change under refinement to 2n - 1 nodes that counts as
#: converged: of `grid_poincare`'s gap, and of a fixed point's variance.
REFINE_TOL = 1e-3


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid [lo, hi] with potential values at the n nodes."""

    lo: float
    hi: float
    n: int
    potential: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite((self.lo, self.hi))) and self.lo < self.hi):
            raise ValueError("need finite lo < hi")
        if self.n < 3:
            raise ValueError("need at least 3 grid points")
        pot = np.asarray(self.potential, dtype=float)
        if pot.shape != (self.n,):
            raise ValueError("potential values must match grid size")
        if not np.all(np.isfinite(pot)):
            raise ValueError("non-finite potential")
        object.__setattr__(self, "potential", pot)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    def density(self) -> np.ndarray:
        """Normalized Gibbs density exp(-U)/Z on the grid (trapezoid rule)."""
        u = self.potential - self.potential.min()
        rho = np.exp(-u)
        return rho / np.trapezoid(rho, dx=self.spacing)


@dataclass(frozen=True)
class SpectralResult:
    gap: float
    # the 2n - 1 refinement's index-1 eigenvalue lies within REFINE_TOL |gap|
    # of the gap, and its index-0 one below that window
    converged: bool


def _generator(grid: Grid1D) -> tuple:
    """(diag, off): the grid's generator as a symmetric tridiagonal matrix.
    Its rows annihilate the square roots of the node masses, so its least
    eigenvalue is 0 and the next one is the gap."""
    # Dirichlet form sum m_{k+1/2} (f_{k+1}-f_k)^2 / h with geometric-mean
    # midpoint weights, symmetrized by sqrt of the node masses; reflecting
    # (zero-flux) boundaries come out naturally.
    h = grid.spacing
    u = grid.potential - grid.potential.min()
    # drop far-tail nodes whose mass would underflow; the retained mass
    # there is <= e^{-600} so the low spectrum is unchanged
    inside = np.nonzero(u <= 600.0)[0]
    u = u[inside[0] : inside[-1] + 1]
    node_w = np.exp(-u)
    node_w[0] *= 0.5
    node_w[-1] *= 0.5
    mid = np.exp(-0.5 * (u[:-1] + u[1:]))
    # generalized problem A f = gap * diag(node_w) f, A tridiagonal
    s = mid / h**2
    diag = np.zeros(len(u))
    diag[:-1] += s
    diag[1:] += s
    inv_sqrt = 1.0 / np.sqrt(node_w)
    return diag * inv_sqrt**2, -s * inv_sqrt[:-1] * inv_sqrt[1:]


def end_density_ratio(density: np.ndarray) -> float:
    """The larger density at the two end nodes of a grid, over its maximum."""
    return float(max(density[0], density[-1]) / density.max())


def boundary_negligible(density: np.ndarray) -> bool:
    """True when the end density ratio is at most 1e-12, so that the window
    cuts off no mass that matters."""
    return end_density_ratio(density) <= 1e-12


def grid_poincare(grid: Grid1D) -> SpectralResult:
    """Spectral gap (= Poincare constant) of exp(-U)/Z restricted to the grid.

    Uses a second-order symmetric discretization of f'' - U' f' with
    reflecting boundaries. Requires negligible boundary mass. The gap is the
    grid's own; it counts as converged when the 2n - 1 refinement has its
    index-1 eigenvalue within tol = REFINE_TOL |gap| of it, with the index-0
    one below the window: two eigenvalue counts on the refined generator
    find that, with no second bisection. A gap at the bisection's resolution,
    whose index-0 neighbour need not lie below gap - tol, reads not converged.
    """
    if not boundary_negligible(np.exp(-(grid.potential - grid.potential.min()))):
        raise ValueError("window too small: boundary density not negligible")
    gap = _gap(grid)
    tol = REFINE_TOL * max(abs(gap), 1e-300)
    fine = Grid1D(grid.lo, grid.hi, 2 * grid.n - 1, _refine_potential(grid.potential))
    below, within = _eigen_counts(fine, (gap - tol, gap + tol))
    return SpectralResult(gap=gap, converged=below == 1 and within >= 2)


def _gap(grid: Grid1D) -> float:
    """The index-1 eigenvalue of the grid's generator by bisection, alone:
    no eigenvector and no other eigenvalue."""
    from scipy.linalg import eigh_tridiagonal  # local: only a grid gap pays its import

    diag, off = _generator(grid)
    vals = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(1, 1))
    return float(vals[0])


def _eigen_counts(grid: Grid1D, points) -> list:
    """The number of eigenvalues of the grid's generator at or below each
    point, by Sturm counts (LAPACK ?stebz, RANGE='V'; Barth, Martin and
    Wilkinson 1967): the interval runs from below the Gershgorin bound to the
    point, and an absolute tolerance wider than it stops the bisection before
    it refines any eigenvalue. The generator is built once for all points."""
    from scipy.linalg.lapack import dstebz  # local: only a grid gap pays its import

    diag, off = _generator(grid)
    radius = np.zeros_like(diag)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lower, upper = float(np.min(diag - radius)), float(np.max(diag + radius))
    start = lower - (upper - lower)  # strictly below every eigenvalue
    counts = []
    for point in points:
        width = 2.0 * (point - start)
        m, _, _, _, info = dstebz(diag, off, 1, start, point, 0, 0, width, "E")
        if info != 0:
            raise np.linalg.LinAlgError(f"LAPACK dstebz failed (info={info})")
        counts.append(int(m))
    return counts


def _refine_potential(values: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(values) - 1)
    out[0::2] = values
    out[1::2] = 0.5 * (values[:-1] + values[1:])
    return out


def conditional_potential(
    system: ParticleSystem, frozen, lo: float, hi: float, n: int
) -> Grid1D:
    """Potential of the first particle given the others: x1 -> N F(mu_x),
    up to an additive constant (irrelevant to the spectral gap)."""
    if system.d != 1:
        raise ValueError("conditional potential oracle needs d = 1")
    frozen = np.atleast_2d(np.asarray(frozen, dtype=float).reshape(-1, 1))
    if frozen.shape[0] != system.N - 1:
        raise ValueError(f"expected {system.N - 1} frozen coordinates")
    configs = np.empty((n, system.N, 1))
    configs[:, 0, 0] = np.linspace(lo, hi, n)
    configs[:, 1:] = frozen
    vals = system.u_n(configs)
    return Grid1D(lo, hi, n, vals - vals.min())


@dataclass(frozen=True)
class FixedPointResult:
    grid_x: np.ndarray
    density: np.ndarray
    residual: float  # sup-norm self-consistency defect, the larger of the two grids'
    iterations: int  # on the grid itself
    converged: bool  # residual within _FP_TOL on both grids
    refinement_change: float  # relative change of the variance on the 2n - 1 grid

    def variance(self) -> float:
        return trapezoid_moments(self.grid_x, self.density, self.grid_x[1] - self.grid_x[0])[1]

    @property
    def grid_converged(self) -> bool:
        """The variance stable under grid refinement, within REFINE_TOL."""
        return self.refinement_change <= REFINE_TOL


def trapezoid_moments(x: np.ndarray, density: np.ndarray, dx: float) -> tuple[float, float]:
    """Mean and variance of a density tabulated at the uniform nodes x with
    spacing dx (trapezoid rule)."""
    mean = float(np.trapezoid(x * density, dx=dx))
    return mean, float(np.trapezoid((x - mean) ** 2 * density, dx=dx))


def _iterate_fixed_point(energy: MeanFieldEnergy, x: np.ndarray):
    """(density, its variance, residual, iterations) of the damped iteration on the nodes x."""
    n, h = len(x), x[1] - x[0]
    dens = np.full(n, 1.0 / (x[-1] - x[0]))
    trap = np.ones(n)
    trap[0] = trap[-1] = 0.5
    residual = np.inf
    for it in range(1, _FP_MAX_ITER + 1):
        w = dens * trap * h
        w = w / w.sum()
        flat = energy._flat_on_grid(x, w)
        flat -= flat.min()
        target = np.exp(-flat)
        target /= np.trapezoid(target, dx=h)
        residual = float(np.max(np.abs(target - dens)))
        if residual <= _FP_TOL:
            dens = target
            break
        dens = _FP_DAMPING * dens + (1.0 - _FP_DAMPING) * target
    return dens, trapezoid_moments(x, dens, h)[1], residual, it


def proximal_gibbs_fixed_point(
    energy: MeanFieldEnergy, lo: float, hi: float, n: int
) -> FixedPointResult:
    """Damped iteration of m -> normalize(exp(-dF/dm(m, .))) on a 1-D grid.

    The fixed point is the stationary mean-field measure m_inf. Densities
    are carried as trapezoid-rule discrete measures when evaluating the
    flat derivative by `_flat_on_grid`. The iteration runs again on the
    2n - 1 refinement, as `grid_poincare` does, to see the variance move.
    """
    x = np.linspace(lo, hi, n)
    dens, var, residual, iterations = _iterate_fixed_point(energy, x)
    _, fine_var, fine_residual, _ = _iterate_fixed_point(energy, np.linspace(lo, hi, 2 * n - 1))
    change = abs(fine_var - var) / max(abs(var), 1e-300)
    residual = max(residual, fine_residual)
    return FixedPointResult(x, dens, residual, iterations, residual <= _FP_TOL, change)


@dataclass(frozen=True)
class GaussianExact:
    precision: np.ndarray
    poincare: float
    lsi: float

    @functools.cached_property
    def covariance(self) -> np.ndarray:
        """The inverse of the precision, computed on first use."""
        return np.linalg.inv(self.precision)


def _gaussian_precision(system: ParticleSystem) -> np.ndarray:
    """The constant precision grad^2 U_N of a quadratic-mean system's Gaussian
    Gibbs measure; GibbsUndefinedError when there is none (a >= 1)."""
    if not isinstance(system.energy, QuadraticMeanEnergy):
        raise TypeError("the Gaussian target needs a quadratic-mean energy")
    if system.energy.a >= 1.0:
        raise GibbsUndefinedError("gibbs-undefined: a >= 1")
    return system.hess_u_n(np.zeros((system.N, system.d)))


def gaussian_exact(system: ParticleSystem) -> GaussianExact:
    """Exact constants of the Gaussian Gibbs measure of a quadratic-mean system.

    Both the optimal Poincare and LSI constants equal lambda_min of the
    precision matrix grad^2 U_N.
    """
    A = _gaussian_precision(system)
    lam_min = float(np.linalg.eigvalsh(A)[0])
    return GaussianExact(precision=A, poincare=lam_min, lsi=lam_min)


def ou_exact_flow_stacks(system: ParticleSystem, mean0, cov0, times) -> tuple:
    """Exact Gaussian law of the Langevin dynamics for quadratic-mean energies.

    mean_t = exp(-A t) mean0; cov_t = exp(-A t) cov0 exp(-A t)
    + A^{-1} (I - exp(-2 A t)), with A = grad^2 U_N constant: the means
    (T, n) and the covariances (T, n, n) at the T times.
    """
    A = _gaussian_precision(system)
    n = system.N * system.d
    mean0 = np.asarray(mean0, dtype=float).reshape(n)
    cov0 = np.asarray(cov0, dtype=float).reshape(n, n)
    evals, evecs = np.linalg.eigh(A)
    if evals[0] <= 0:
        raise GibbsUndefinedError("gibbs-undefined: precision not positive definite")
    inv_evals = 1.0 / evals
    times = np.asarray(times, dtype=float)
    means, covs = np.empty((len(times), n)), np.empty((len(times), n, n))
    for mean, cov, t in zip(means, covs, times):
        decay = np.exp(-evals * t)
        E = (evecs * decay) @ evecs.T
        stat = (evecs * (inv_evals * (1.0 - decay**2))) @ evecs.T
        mean[:] = E @ mean0
        np.add(E @ cov0 @ E, stat, out=cov)
    return means, covs


def gaussian_kl(mean_a, cov_a, mean_b, cov_b):
    """KL divergence KL(N(mean_a, cov_a) || N(mean_b, cov_b)): a float, or an
    array for a stack of first laws, means (..., k) and covariances
    (..., k, k), whose items equal their one-law calls bit for bit."""
    mean_a = np.atleast_1d(np.asarray(mean_a, dtype=float))
    mean_b = np.atleast_1d(np.asarray(mean_b, dtype=float))
    cov_a = np.atleast_2d(np.asarray(cov_a, dtype=float))
    cov_b = np.atleast_2d(np.asarray(cov_b, dtype=float))
    k = mean_b.shape[-1]
    shapes = (mean_a.shape[-1:], mean_b.shape, cov_b.shape, cov_a.shape)
    if shapes != ((k,), (k,), (k, k), mean_a.shape + (k,)):
        raise ValueError("need means (..., k), (k,) and covariances (..., k, k), (k, k)")
    # one Cholesky factor at a time: a stack of factors would be a second
    # array the size of cov_a
    logdet_a = np.array([_logdet(c, "first") for c in cov_a.reshape(-1, k, k)])
    logdet_b = _logdet(cov_b, "second")
    solve_b = np.linalg.inv(cov_b)
    # one gemv and one dot per item, as for one law
    diff = (mean_b - mean_a)[..., None, :]
    quad = (diff @ solve_b @ np.swapaxes(diff, -1, -2))[..., 0, 0]
    trace = np.einsum("ij,...ji->...", solve_b, cov_a)
    kl = 0.5 * (trace - k + quad + logdet_b - logdet_a.reshape(trace.shape))
    return float(kl) if kl.ndim == 0 else kl


def _logdet(cov: np.ndarray, which: str) -> float:
    """log det of a positive-definite covariance, from its Cholesky factor."""
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{which} covariance must be positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol))))
