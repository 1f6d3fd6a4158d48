"""Deterministic 1-D oracles: grid spectral gaps, proximal-Gibbs fixed
points, and Gaussian closed forms (KL, exact Poincare/LSI constants)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .energies import MeanFieldEnergy, ParticleSystem, QuadraticMeanEnergy
from .errors import GibbsUndefinedError
from .measures import DiscreteMeasure

__all__ = [
    "Grid1D",
    "SpectralResult",
    "grid_poincare",
    "boundary_negligible",
    "conditional_potential",
    "proximal_gibbs_fixed_point",
    "gaussian_exact",
    "gaussian_kl",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid [lo, hi] with potential values at the n nodes."""

    lo: float
    hi: float
    n: int
    potential: np.ndarray

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError("need lo < hi")
        if self.n < 3:
            raise ValueError("need at least 3 grid points")
        pot = np.asarray(self.potential, dtype=float)
        if pot.shape != (self.n,):
            raise ValueError("potential values must match grid size")
        if not np.all(np.isfinite(pot)):
            raise ValueError("non-finite potential")
        object.__setattr__(self, "potential", pot)

    @classmethod
    def from_callable(cls, u, lo: float, hi: float, n: int) -> "Grid1D":
        x = np.linspace(lo, hi, n)
        return cls(lo, hi, n, np.array([float(u(xi)) for xi in x]))

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
    ground_mass: float  # deviation of the ground state from the constant mode
    n: int
    lo: float
    hi: float
    converged: bool  # gap stable under grid refinement


def _gap_on_grid(grid: Grid1D) -> tuple[float, float]:
    # Dirichlet form sum m_{k+1/2} (f_{k+1}-f_k)^2 / h with geometric-mean
    # midpoint weights, symmetrized by sqrt of the node masses; reflecting
    # (zero-flux) boundaries come out naturally.
    h = grid.spacing
    u = grid.potential - grid.potential.min()
    # drop far-tail nodes whose mass would underflow; the retained mass
    # there is <= e^{-600} so the low spectrum is unchanged
    inside = np.nonzero(u <= 600.0)[0]
    u = u[inside[0] : inside[-1] + 1]
    node = np.exp(-u)
    node_w = node.copy()
    node_w[0] *= 0.5
    node_w[-1] *= 0.5
    mid = np.exp(-0.5 * (u[:-1] + u[1:]))
    # generalized problem A f = gap * diag(node_w) f, A tridiagonal
    s = mid / h**2
    diag = np.zeros(len(u))
    diag[:-1] += s
    diag[1:] += s
    off = -s
    inv_sqrt = 1.0 / np.sqrt(node_w)
    sym_diag = diag * inv_sqrt**2
    sym_off = off * inv_sqrt[:-1] * inv_sqrt[1:]
    vals, vecs = eigh_tridiagonal(sym_diag, sym_off, select="i", select_range=(0, 1))
    ground = vecs[:, 0] * inv_sqrt
    ground /= np.sign(ground.sum())
    # ground state of the generator is the constant function
    ground_mass = float(np.max(np.abs(ground / ground.mean() - 1.0)))
    return float(vals[1]), ground_mass


def boundary_negligible(density: np.ndarray) -> bool:
    """True when the density at both end nodes of a grid is at most 1e-12
    of its maximum, so that the window cuts off no mass that matters."""
    return bool(max(density[0], density[-1]) <= 1e-12 * density.max())


def grid_poincare(grid: Grid1D, check_convergence: bool = True) -> SpectralResult:
    """Spectral gap (= Poincare constant) of exp(-U)/Z restricted to the grid.

    Uses a second-order symmetric discretization of f'' - U' f' with
    reflecting boundaries. Requires negligible boundary mass.
    """
    if not boundary_negligible(np.exp(-(grid.potential - grid.potential.min()))):
        raise ValueError("window too small: boundary density not negligible")
    gap, ground_mass = _gap_on_grid(grid)
    converged = True
    if check_convergence:
        fine = Grid1D(
            grid.lo,
            grid.hi,
            2 * grid.n - 1,
            _refine_potential(grid.potential),
        )
        gap_fine, _ = _gap_on_grid(fine)
        converged = abs(gap_fine - gap) <= 1e-3 * max(abs(gap), 1e-300)
    return SpectralResult(
        gap=gap,
        ground_mass=ground_mass,
        n=grid.n,
        lo=grid.lo,
        hi=grid.hi,
        converged=converged,
    )


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
    x = np.linspace(lo, hi, n)
    vals = np.empty(n)
    config = np.empty((system.N, 1))
    config[1:] = frozen
    for k, xk in enumerate(x):
        config[0, 0] = xk
        vals[k] = system.u_n(config)
    return Grid1D(lo, hi, n, vals - vals.min())


@dataclass(frozen=True)
class FixedPointResult:
    grid_x: np.ndarray
    density: np.ndarray
    residual: float  # sup-norm self-consistency defect
    iterations: int
    converged: bool

    def variance(self) -> float:
        h = self.grid_x[1] - self.grid_x[0]
        mean = np.trapezoid(self.grid_x * self.density, dx=h)
        return float(np.trapezoid((self.grid_x - mean) ** 2 * self.density, dx=h))


def proximal_gibbs_fixed_point(
    energy: MeanFieldEnergy,
    lo: float,
    hi: float,
    n: int,
    max_iter: int = 200,
    tol: float = 1e-8,
    damping: float = 0.5,
) -> FixedPointResult:
    """Damped iteration of m -> normalize(exp(-dF/dm(m, .))) on a 1-D grid.

    The fixed point is the stationary mean-field measure m_inf. Densities
    are carried as trapezoid-rule discrete measures when evaluating the
    flat derivative.
    """
    x = np.linspace(lo, hi, n)
    h = x[1] - x[0]
    dens = np.full(n, 1.0 / (hi - lo))
    trap = np.ones(n)
    trap[0] = trap[-1] = 0.5
    points = x[:, None]
    residual = np.inf
    for it in range(1, max_iter + 1):
        w = dens * trap * h
        w = w / w.sum()
        mu = DiscreteMeasure(points, w)
        flat = energy._flat(mu.points, mu.weights, points)
        flat -= flat.min()
        target = np.exp(-flat)
        target /= np.trapezoid(target, dx=h)
        residual = float(np.max(np.abs(target - dens)))
        if residual <= tol:
            dens = target
            break
        dens = damping * dens + (1.0 - damping) * target
    return FixedPointResult(
        grid_x=x,
        density=dens,
        residual=residual,
        iterations=it,
        converged=residual <= tol,
    )


@dataclass(frozen=True)
class GaussianExact:
    precision: np.ndarray
    covariance: np.ndarray
    poincare: float
    lsi: float


def gaussian_exact(system: ParticleSystem) -> GaussianExact:
    """Exact constants of the Gaussian Gibbs measure of a quadratic-mean system.

    Both the optimal Poincare and LSI constants equal lambda_min of the
    precision matrix grad^2 U_N.
    """
    if not isinstance(system.energy, QuadraticMeanEnergy):
        raise TypeError("exact Gaussian constants need a quadratic-mean energy")
    if system.energy.a >= 1.0:
        raise GibbsUndefinedError("gibbs-undefined: a >= 1")
    A = system.hess_u_n(np.zeros((system.N, system.d)))
    lam_min = float(np.linalg.eigvalsh(A)[0])
    return GaussianExact(
        precision=A,
        covariance=np.linalg.inv(A),
        poincare=lam_min,
        lsi=lam_min,
    )


def gaussian_kl(mean_a, cov_a, mean_b, cov_b) -> float:
    """KL divergence KL(N(mean_a, cov_a) || N(mean_b, cov_b))."""
    mean_a = np.atleast_1d(np.asarray(mean_a, dtype=float))
    mean_b = np.atleast_1d(np.asarray(mean_b, dtype=float))
    cov_a = np.atleast_2d(np.asarray(cov_a, dtype=float))
    cov_b = np.atleast_2d(np.asarray(cov_b, dtype=float))
    k = len(mean_a)
    try:
        chol_b = np.linalg.cholesky(cov_b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("second covariance must be positive definite") from exc
    solve_b = np.linalg.inv(cov_b)
    diff = mean_b - mean_a
    sign_a, logdet_a = np.linalg.slogdet(cov_a)
    if sign_a <= 0:
        raise ValueError("first covariance must be positive definite")
    logdet_b = 2.0 * float(np.sum(np.log(np.diag(chol_b))))
    return 0.5 * float(
        np.trace(solve_b @ cov_a) - k + diff @ solve_b @ diff + logdet_b - logdet_a
    )
