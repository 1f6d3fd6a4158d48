"""Finitely supported probability measures and exact Wasserstein-2 distances.

A measure is given by its atoms `points` (n, d) and `weights` (n,). A stack
of P measures with n atoms each is the pair (points (P, n, d), weights
(P, n)). `check_atoms` holds every check a measure must pass, over any
leading axes; `DiscreteMeasure` calls it for one measure, and a caller that
builds a stack calls it once for the stack. `mixture_atoms` takes the atoms
of one pair or two stacks, and `w2_squared_pairs` two stacks; `mix` and
`w2_squared` are their one-pair cases on `DiscreteMeasure`s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteMeasure",
    "UnsupportedTransportError",
    "check_atoms",
    "empirical",
    "mix",
    "mixture_atoms",
    "w2_squared",
    "w2_squared_pairs",
]

_WEIGHT_TOL = 1e-12


def check_atoms(points, weights) -> None:
    """Raise ValueError unless points (..., n, d) and weights (..., n) are the
    atoms of probability measures, one per leading index: at least one atom,
    finite coordinates, and weights that are nonnegative and sum to one
    within 1e-12. A sum that is off names the first such measure's sum, the
    message `DiscreteMeasure` raises for that measure alone."""
    if points.ndim < 2 or points.shape[:-1] != weights.shape:
        raise ValueError("points and weights must have equal length")
    if weights.shape[-1] < 1:
        raise ValueError("measure needs at least one atom")
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite atom coordinates")
    if not np.all(weights >= 0):  # NaN fails too
        raise ValueError("negative or NaN weights")
    off = ~(np.abs(weights.sum(axis=-1) - 1.0) <= _WEIGHT_TOL)
    if np.any(off):
        first = tuple(np.argwhere(off)[0])
        raise ValueError(f"weights sum to {weights[first].sum()}, not 1")


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
        check_atoms(pts, w)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        pts.setflags(write=False)
        w.setflags(write=False)


def empirical(points) -> DiscreteMeasure:
    """Uniform measure on the rows of an (N, d) configuration."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("empty configuration")
    n = pts.shape[0]
    return DiscreteMeasure(pts, np.full(n, 1.0 / n))


def mixture_atoms(mu, nu, t_grid):
    """(points, weights) of the mixtures t*mu + (1-t)*nu for each t of
    `t_grid`, mu and nu given by their atoms (points (n, d), weights (n,)):
    the atoms of mu and nu stacked once, and one row of weights per t
    (K, n), t*w_mu followed by (1-t)*w_nu and renormalised to sum to one. An
    atom of weight zero keeps its column.

    mu and nu may also be stacks of P measures (points (P, n, d), weights
    (P, n)), the pairs (mu_i, nu_i), with one atom count on each side. Then
    points (P, 1, n, d) hold each pair's atoms once for its weight rows
    (P, K, n), and pair i is bit for bit its own mixture_atoms."""
    (mu_p, mu_w), (nu_p, nu_w) = mu, nu
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
    pts, (w,) = mixture_atoms((mu.points, mu.weights), (nu.points, nu.weights), (t,))
    keep = w > 0
    return DiscreteMeasure(pts[keep], w[keep])


def _w2_squared_1d(x, wx, y, wy) -> np.ndarray:
    """W2^2 of P pairs of measures on the line, atoms x (P, n) weighted wx
    against atoms y (P, m) weighted wy, by the quantile (monotone) coupling
    (Santambrogio 2015, Optimal Transport for Applied Mathematicians, 2.2).
    Both quantile functions are constant between consecutive points u_k of
    the sorted union of the two CDFs' breakpoints, so the mass
    u_k - u_{k-1} moves from one atom of x to one atom of y. All P pairs in
    one array pass, each pair's result the one it has alone."""

    def sorted_cdf(z, w):
        order = np.argsort(z, axis=1, kind="stable")
        return np.take_along_axis(z, order, 1), np.cumsum(np.take_along_axis(w, order, 1), axis=1)

    (x, cx), (y, cy) = sorted_cdf(x, wx), sorted_cdf(y, wy)
    n, m = cx.shape[1], cy.shape[1]
    breaks = np.concatenate([cx, cy], axis=1)
    order = np.argsort(breaks, axis=1, kind="stable")
    # totals within round-off of one: the coupling ends where the lighter side's mass does
    u = np.minimum(np.take_along_axis(breaks, order, 1), np.minimum(cx[:, -1:], cy[:, -1:]))
    mass = np.diff(u, axis=1, prepend=0.0)
    # On an interval (u_{k-1}, u_k] of positive mass the breakpoints sorted
    # before u_k are those below it; a side's count of them is the index of
    # the atom it moves. An interval of zero mass may point one past the end.
    from_x = order < n
    i = np.minimum(np.cumsum(from_x, axis=1) - from_x, n - 1)
    j = np.minimum(np.cumsum(~from_x, axis=1) - ~from_x, m - 1)
    gap = np.take_along_axis(x, i, 1) - np.take_along_axis(y, j, 1)
    return np.sum(mass * gap**2, axis=1)


def _w2_squared_assignment(x, y) -> float:
    from scipy.optimize import linear_sum_assignment  # local: only d >= 2 pays its import

    diff = x[:, None, :] - y[None, :, :]
    cost = np.sum(diff * diff, axis=-1)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / x.shape[0])


def w2_squared_pairs(mu, nu) -> np.ndarray:
    """Exact squared Wasserstein-2 distance of each pair (mu_i, nu_i) of two
    stacks (points (P, n, d), weights (P, n)) of measures: (P,).

    d=1 handles arbitrary weights via the quantile coupling, all pairs in one
    array pass; d>=2 requires equal-size uniform-weight supports and solves
    one assignment problem per pair.
    """
    (x, wx), (y, wy) = mu, nu
    if x.shape[-1] != y.shape[-1]:
        raise UnsupportedTransportError("dimension mismatch")
    if x.shape[-1] == 1:
        return _w2_squared_1d(x[..., 0], wx, y[..., 0], wy)
    n = x.shape[-2]
    uniform = (
        n == y.shape[-2]
        and np.allclose(wx, 1.0 / n, atol=1e-12)
        and np.allclose(wy, 1.0 / n, atol=1e-12)
    )
    if not uniform:
        raise UnsupportedTransportError(
            "unsupported-transport-instance: d>=2 needs equal-size uniform supports"
        )
    return np.array([_w2_squared_assignment(a, b) for a, b in zip(x, y)])


def w2_squared(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact squared Wasserstein-2 distance between supported instances: the
    one-pair case of `w2_squared_pairs`."""
    (value,) = w2_squared_pairs(
        (mu.points[None], mu.weights[None]), (nu.points[None], nu.weights[None])
    )
    return float(value)
