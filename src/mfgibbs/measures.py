"""Finitely supported probability measures and exact Wasserstein-2 distances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = [
    "DiscreteMeasure",
    "UnsupportedTransportError",
    "empirical",
    "mix",
    "mixture_atoms",
    "stack_atoms",
    "w2_squared",
]

_WEIGHT_TOL = 1e-12


class UnsupportedTransportError(ValueError):
    """Raised for transport instances outside the exact solvers' scope."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure with finite support: atoms `points` carrying `weights`.

    Weights must sum to one; duplicate atoms are kept separate so that
    empirical measures of colliding particles retain their cardinality.
    """

    points: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        # copies: the measure is immutable, and the caller's arrays stay writable
        pts = np.array(self.points, dtype=float, ndmin=2)
        w = np.array(self.weights, dtype=float).ravel()
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights must have equal length")
        if pts.shape[0] < 1:
            raise ValueError("measure needs at least one atom")
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite atom coordinates")
        if not np.all(w >= 0):  # NaN fails too
            raise ValueError("negative or NaN weights")
        if not abs(w.sum() - 1.0) <= _WEIGHT_TOL:
            raise ValueError(f"weights sum to {w.sum()}, not 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        pts.setflags(write=False)
        w.setflags(write=False)

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def mean(self) -> np.ndarray:
        return self.weights @ self.points


def empirical(points) -> DiscreteMeasure:
    """Uniform measure on the rows of an (N, d) configuration."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("empty configuration")
    n = pts.shape[0]
    return DiscreteMeasure(pts, np.full(n, 1.0 / n))


def stack_atoms(measures) -> tuple[np.ndarray, np.ndarray]:
    """The atoms (P, n, d) and weights (P, n) of P measures of n atoms each,
    a batch for `_eval_batch`."""
    return np.stack([m.points for m in measures]), np.stack([m.weights for m in measures])


def mixture_atoms(mu, nu, t_grid):
    """(points, weights) of the mixtures t*mu + (1-t)*nu for each t of
    `t_grid`: the atoms of mu and nu stacked once (n, d), and one row of
    weights per t (K, n), t*w_mu followed by (1-t)*w_nu and renormalised to
    sum to one. An atom of weight zero keeps its column.

    mu and nu may also be sequences of P measures, the pairs (mu_i, nu_i),
    with one atom count on each side. Then points (P, 1, n, d) hold each
    pair's atoms once for its weight rows (P, K, n), and pair i is bit for
    bit its own mixture_atoms."""
    if isinstance(mu, DiscreteMeasure):
        (mu_p, mu_w), (nu_p, nu_w) = (mu.points, mu.weights), (nu.points, nu.weights)
    else:
        (mu_p, mu_w), (nu_p, nu_w) = stack_atoms(mu), stack_atoms(nu)
    if mu_p.shape[-1] != nu_p.shape[-1]:
        raise ValueError("dimension mismatch")
    t = np.asarray(t_grid, dtype=float)
    outside = t[~((0.0 <= t) & (t <= 1.0))]  # NaN too
    if outside.size:
        raise ValueError(f"mixture weight t={outside[0]} outside [0, 1]")
    w = np.concatenate(
        [t[:, None] * mu_w[..., None, :], (1.0 - t)[:, None] * nu_w[..., None, :]], axis=-1
    )
    points = np.concatenate([mu_p, nu_p], axis=-2)
    if points.ndim == 3:  # pairs: each pair's atoms once, for all its rows
        points = points[:, None]
    return points, w / w.sum(axis=-1, keepdims=True)


def mix(mu: DiscreteMeasure, nu: DiscreteMeasure, t: float) -> DiscreteMeasure:
    """Mixture t*mu + (1-t)*nu; zero-weight atoms are dropped."""
    pts, (w,) = mixture_atoms(mu, nu, (t,))
    keep = w > 0
    return DiscreteMeasure(pts[keep], w[keep])


def _w2_squared_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    # Exact quantile (monotone) coupling: merge the two CDF breakpoint sets.
    xi = np.argsort(mu.points[:, 0], kind="stable")
    yi = np.argsort(nu.points[:, 0], kind="stable")
    x, wx = mu.points[xi, 0], mu.weights[xi]
    y, wy = nu.points[yi, 0], nu.weights[yi]
    cost = 0.0
    i = j = 0
    rx, ry = wx[0], wy[0]
    while True:
        m = min(rx, ry)
        cost += m * (x[i] - y[j]) ** 2
        rx -= m
        ry -= m
        if rx <= 1e-15:
            i += 1
            if i >= len(x):
                break
            rx = wx[i]
        if ry <= 1e-15:
            j += 1
            if j >= len(y):
                break
            ry = wy[j]
    return cost


def _w2_squared_assignment(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    diff = mu.points[:, None, :] - nu.points[None, :, :]
    cost = np.sum(diff * diff, axis=-1)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / mu.n_atoms)


def w2_squared(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact squared Wasserstein-2 distance between supported instances.

    d=1 handles arbitrary weights via the quantile coupling; d>=2 requires
    equal-size uniform-weight supports and solves the assignment problem.
    """
    if mu.dim != nu.dim:
        raise UnsupportedTransportError("dimension mismatch")
    if mu.dim == 1:
        return _w2_squared_1d(mu, nu)
    uniform = (
        mu.n_atoms == nu.n_atoms
        and np.allclose(mu.weights, 1.0 / mu.n_atoms, atol=1e-12)
        and np.allclose(nu.weights, 1.0 / nu.n_atoms, atol=1e-12)
    )
    if not uniform:
        raise UnsupportedTransportError(
            "unsupported-transport-instance: d>=2 needs equal-size uniform supports"
        )
    return _w2_squared_assignment(mu, nu)
