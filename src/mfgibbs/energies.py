"""Mean-field energy functionals and the induced N-particle potential.

Each energy knows its value F(mu), the flat derivative dF/dm (returned in a
natural closed form, without mean-zero normalization), the intrinsic
derivative D_m F = grad_x dF/dm, and the second intrinsic derivative
D_m^2 F. `ParticleSystem` lifts an energy to U_N = N F(mu_x) with exact
gradient and Hessian.

The private primitives share one array convention: mu is given by its atoms
`points` (n, d) and `weights` (n,), and each derivative is evaluated at all
query rows `xs` (m, d) at once (pairs with `ys` (m', d) for D_m^2 F), query
axes first. The public single-point methods are the case m = 1.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import DiscreteMeasure

__all__ = [
    "MeanFieldEnergy",
    "QuadraticMeanEnergy",
    "LinearPotentialEnergy",
    "PairwiseKernelEnergy",
    "ParametrizedEnergy",
    "ParticleSystem",
    "quadratic_as_parametrized",
]


class MeanFieldEnergy(abc.ABC):
    """Energy F on discrete probability measures with its derivative ladder."""

    #: semi-convexity modulus along mixtures (penalty lambda/2 * W2^2)
    declared_lambda: float
    #: uniform operator-norm bound on D_m^2 F
    declared_Mmm: float

    # Array-level primitives: atoms points (n, d) with weights (n,) summing
    # to one, query rows xs (m, d) and ys (m', d).

    @abc.abstractmethod
    def _eval(self, points: np.ndarray, weights: np.ndarray) -> float: ...

    @abc.abstractmethod
    def _flat(self, points, weights, xs) -> np.ndarray: ...  # dF/dm(mu, xs_i): (m,)

    @abc.abstractmethod
    def _grad(self, points, weights, xs) -> np.ndarray: ...  # D_m F(mu, xs_i): (m, d)

    @abc.abstractmethod
    def _hess_mm(self, points, weights, xs, ys) -> np.ndarray: ...  # D_m^2 F: (m, m', d, d)

    @abc.abstractmethod
    def _grad_x_of_Dm(self, points, weights, xs) -> np.ndarray: ...  # grad_x D_m F: (m, d, d)

    def _value_and_grad(self, points, weights) -> tuple[float, np.ndarray]:
        """(F(mu), D_m F(mu, x_i) for every atom); override to share work
        between the two."""
        return self._eval(points, weights), self._grad(points, weights, points)

    def _hess_mm_matrix(self, points, weights) -> np.ndarray:
        """The Nd x Nd matrix K of the blocks D_m^2 F(mu, x_i, x_j) over the atoms."""
        N, d = points.shape
        blocks = self._hess_mm(points, weights, points, points)
        return blocks.transpose(0, 2, 1, 3).reshape(N * d, N * d)

    # DiscreteMeasure-facing API: one query point x (and xp).

    def eval(self, mu: DiscreteMeasure) -> float:
        return self._eval(mu.points, mu.weights)

    def flat_derivative(self, mu: DiscreteMeasure, x) -> float:
        return float(self._flat(mu.points, mu.weights, _row(x))[0])

    def intrinsic_grad(self, mu: DiscreteMeasure, x) -> np.ndarray:
        return self._grad(mu.points, mu.weights, _row(x))[0]

    def intrinsic_hess(self, mu: DiscreteMeasure, x, xp) -> np.ndarray:
        return self._hess_mm(mu.points, mu.weights, _row(x), _row(xp))[0, 0]


def _row(x) -> np.ndarray:
    """One query point as a (1, d) array of query rows."""
    return np.atleast_2d(np.asarray(x, float))


def _rows(fn, xs, ndmin=0) -> np.ndarray:
    """A per-point callable evaluated at every query row, stacked."""
    return np.stack([np.array(fn(x), dtype=float, ndmin=ndmin) for x in xs])


@dataclass(frozen=True)
class QuadraticMeanEnergy(MeanFieldEnergy):
    """F(mu) = 1/2 int |x|^2 dmu - (a/2) |int x dmu|^2, attraction strength a > 0.

    The second flat derivative is -a x.x', so D_m^2 F = -a I; only the
    magnitude a enters the theorem constants (declared_Mmm = a).
    """

    a: float

    def __post_init__(self):
        if not self.a > 0:  # NaN fails too
            raise ValueError("attraction strength a must be positive")

    @property
    def declared_lambda(self) -> float:
        return self.a

    @property
    def declared_Mmm(self) -> float:
        return self.a

    def _eval(self, points, weights, /):
        mean = weights @ points
        return 0.5 * float(weights @ np.sum(points * points, axis=1)) - 0.5 * self.a * float(
            mean @ mean
        )

    def _flat(self, points, weights, xs):
        mean = weights @ points
        return 0.5 * np.sum(xs * xs, axis=1) - self.a * np.sum(xs * mean, axis=1)

    def _grad(self, points, weights, xs):
        return xs - self.a * (weights @ points)

    def _hess_mm(self, points, weights, xs, ys):
        return np.tile(-self.a * np.eye(xs.shape[1]), (len(xs), len(ys), 1, 1))

    def _grad_x_of_Dm(self, points, weights, xs):
        return np.tile(np.eye(xs.shape[1]), (len(xs), 1, 1))


@dataclass(frozen=True)
class LinearPotentialEnergy(MeanFieldEnergy):
    """F(mu) = int V dmu: linear in mu, hence flat-convex with D_m^2 F = 0."""

    v: Callable  # x -> float
    v_grad: Callable  # x -> (d,)
    v_hess: Callable  # x -> (d, d)

    declared_lambda = 0.0
    declared_Mmm = 0.0

    def _eval(self, points, weights, /):
        return float(sum(w * self.v(x) for w, x in zip(weights, points)))

    def _flat(self, points, weights, xs):
        return _rows(self.v, xs)

    def _grad(self, points, weights, xs):
        return _rows(self.v_grad, xs)

    def _hess_mm(self, points, weights, xs, ys):
        return np.zeros((len(xs), len(ys)) + 2 * xs.shape[1:])

    def _grad_x_of_Dm(self, points, weights, xs):
        return _rows(self.v_hess, xs)


def _zero(x):
    return 0.0


@dataclass(frozen=True)
class PairwiseKernelEnergy(MeanFieldEnergy):
    """Confinement plus Gaussian-repulsion / quadratic-attraction pair kernel.

    F(mu) = int V dmu + 1/2 iint W(x - y) mu(dx) mu(dy) with
    V = eta |x|^2 / 2 + V1 (V1 bounded, sup-norm `v1_sup`) and
    W(z) = L exp(-|z|^2) + alpha |z|^2. The double integral keeps the
    diagonal self-interaction so that U_N = N F(mu_x) holds exactly
    (a configuration-independent L/(2N) per-particle constant).
    """

    eta: float
    L: float = 0.0
    alpha: float = 0.0
    v1: Callable | None = None  # bounded perturbation x -> float
    v1_grad: Callable | None = None
    v1_hess: Callable | None = None
    v1_sup: float = 0.0

    def __post_init__(self):
        if not self.eta > 0:  # NaN fails too
            raise ValueError("eta must be positive")
        if not (self.L >= 0 and self.alpha >= 0 and self.v1_sup >= 0):
            raise ValueError("kernel parameters must be nonnegative")
        if self.v1 is None:
            object.__setattr__(self, "v1", _zero)
            object.__setattr__(self, "v1_grad", np.zeros_like)

    @property
    def declared_lambda(self) -> float:
        return 2.0 * self.alpha

    @property
    def declared_Mmm(self) -> float:
        return 2.0 * self.L * (1.0 + 2.0 * np.exp(-1.0)) + 2.0 * self.alpha

    def _w_hess(self, z):
        """W''(z) for displacements z of shape (..., d): shape (..., d, d)."""
        eye = np.eye(z.shape[-1])
        gauss = np.exp(-np.sum(z * z, axis=-1))[..., None, None]
        outer = z[..., :, None] * z[..., None, :]
        return self.L * gauss * (4.0 * outer - 2.0 * eye) + 2.0 * self.alpha * eye

    def _pair_sums(self, points, weights, xs):
        """(mean, c, ew): the mean of mu, the atoms c centred there, and
        ew = exp(-|xs_i - p_j|^2) @ [w, w c] (m, 1 + d), which carries the
        Gaussian pair terms in O(n m). The alpha |z|^2 terms need only moments:
        sum_j w_j |x - p_j|^2 = |x - mean|^2 + sum_j w_j |c_j|^2."""
        mean = weights @ points
        c = points - mean
        return mean, c, _gauss_matmul(xs, points, np.column_stack((weights, weights[:, None] * c)))

    def _grad_from_sums(self, xs, cx, ew):
        grad = self.eta * xs - 2.0 * self.L * (cx * ew[:, :1] - ew[:, 1:]) + 2.0 * self.alpha * cx
        if self.v1 is not _zero:
            grad += _rows(self.v1_grad, xs)
        return grad

    def _value_and_grad(self, points, weights):
        """F and D_m F at every atom from one O(N^2) pass of `_pair_sums`."""
        _, c, ew = self._pair_sums(points, weights, points)
        value = (
            0.5 * self.eta * float(weights @ np.sum(points * points, axis=1))
            + 0.5 * self.L * float(weights @ ew[:, 0])
            + self.alpha * float(weights @ np.sum(c * c, axis=1))
        )
        if self.v1 is not _zero:
            value += float(sum(w * self.v1(x) for w, x in zip(weights, points)))
        return value, self._grad_from_sums(points, c, ew)

    def _eval(self, points, weights, /):
        return self._value_and_grad(points, weights)[0]

    def _flat(self, points, weights, xs):
        mean, c, ew = self._pair_sums(points, weights, xs)
        cx = xs - mean
        flat = 0.5 * self.eta * np.sum(xs * xs, axis=1) + self.L * ew[:, 0]
        flat += self.alpha * (np.sum(cx * cx, axis=1) + float(weights @ np.sum(c * c, axis=1)))
        if self.v1 is not _zero:
            flat += _rows(self.v1, xs)
        return flat

    def _grad(self, points, weights, xs):
        mean, _, ew = self._pair_sums(points, weights, xs)
        return self._grad_from_sums(xs, xs - mean, ew)

    def _hess_mm(self, points, weights, xs, ys):
        return -self._w_hess(xs[:, None, :] - ys[None, :, :])

    def _grad_x_of_Dm(self, points, weights, xs):
        pair = np.tensordot(weights, self._w_hess(xs[:, None, :] - points), axes=(0, 1))
        hess = self.eta * np.eye(xs.shape[1]) + pair
        if self.v1 is not _zero:
            hess += _rows(self.v1_hess, xs)
        return hess


#: Entries of one row block of the Gaussian matrix in `_gauss_matmul`.
_BLOCK_ENTRIES = 2**16


def _gauss_rows(xs, points):
    """exp(-|xs_i - p_j|^2), shape (m, n), built in place in one buffer."""
    gauss = np.subtract.outer(xs[:, 0], points[:, 0])
    np.square(gauss, out=gauss)
    if xs.shape[1] > 1:
        diff = np.empty_like(gauss)
        for k in range(1, xs.shape[1]):
            np.subtract.outer(xs[:, k], points[:, k], out=diff)
            np.square(diff, out=diff)
            gauss += diff
    np.negative(gauss, out=gauss)
    np.exp(gauss, out=gauss)
    return gauss


def _gauss_matmul(xs, points, rhs):
    """exp(-|xs_i - p_j|^2) @ rhs over row blocks of at most _BLOCK_ENTRIES
    entries: one block, with no copy, up to 256 x 256."""
    rows = max(1, _BLOCK_ENTRIES // len(points))
    if len(xs) <= rows:
        return _gauss_rows(xs, points) @ rhs
    blocks = range(0, len(xs), rows)
    return np.concatenate([_gauss_rows(xs[s : s + rows], points) @ rhs for s in blocks])


@dataclass(frozen=True)
class ParametrizedEnergy(MeanFieldEnergy):
    """F(mu) = F0(mu) + R(int phi dmu) for a flat-convex base F0.

    phi: R^d -> R^k with Jacobian `phi_jac` (k x d) and Lipschitz constant
    `phi_lip`; optional `phi_hess` (k x d x d) for non-affine features.
    R: R^k -> R with `r_grad`, `r_hess`, semi-convexity modulus `alpha_r`
    (R + alpha_r |.|^2 convex) and an operator-norm bound `r_hess_bound`
    on its Hessian.
    """

    base: MeanFieldEnergy
    phi: Callable = None  # x -> (k,)
    phi_jac: Callable = None  # x -> (k, d)
    phi_lip: float = 1.0
    r: Callable = None  # (k,) -> float
    r_grad: Callable = None
    r_hess: Callable = None
    alpha_r: float = 0.0
    r_hess_bound: float = 0.0
    phi_hess: Callable | None = None  # x -> (k, d, d); None means affine features

    def __post_init__(self):
        if self.base.declared_lambda != 0.0:
            raise ValueError("base energy must be flat-convex (declared_lambda = 0)")
        if not self.alpha_r >= 0:  # NaN fails too
            raise ValueError("alpha_r must be nonnegative")

    @property
    def declared_lambda(self) -> float:
        return 2.0 * self.alpha_r * self.phi_lip**2

    @property
    def declared_Mmm(self) -> float:
        return self.base.declared_Mmm + self.r_hess_bound * self.phi_lip**2

    def _feature_mean(self, points, weights):
        return weights @ _rows(self.phi, points, 1)

    def _outer_grad(self, points, weights):
        return np.atleast_1d(self.r_grad(self._feature_mean(points, weights)))

    def _eval(self, points, weights, /):
        return self.base._eval(points, weights) + float(
            self.r(self._feature_mean(points, weights))
        )

    def _flat(self, points, weights, xs):
        g = self._outer_grad(points, weights)
        return self.base._flat(points, weights, xs) + np.sum(_rows(self.phi, xs, 1) * g, axis=1)

    def _grad(self, points, weights, xs):
        jac = _rows(self.phi_jac, xs, 2)
        g = self._outer_grad(points, weights)
        return self.base._grad(points, weights, xs) + np.sum(jac * g[:, None], axis=1)

    def _hess_mm(self, points, weights, xs, ys):
        h = np.atleast_2d(self.r_hess(self._feature_mean(points, weights)))
        jx, jy = _rows(self.phi_jac, xs, 2), _rows(self.phi_jac, ys, 2)
        pair = np.einsum("ika,kl,jlb->ijab", jx, h, jy)
        return self.base._hess_mm(points, weights, xs, ys) + pair

    def _grad_x_of_Dm(self, points, weights, xs):
        acc = self.base._grad_x_of_Dm(points, weights, xs)
        if self.phi_hess is not None:
            g = self._outer_grad(points, weights)
            acc = acc + np.einsum("k,ikab->iab", g, _rows(self.phi_hess, xs))
        return acc

    def cost_functional(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """Mixture-convexity cost alpha_r * |int phi d(nu - mu)|^2."""
        fm = self._feature_mean(mu.points, mu.weights)
        fn = self._feature_mean(nu.points, nu.weights)
        diff = fn - fm
        return self.alpha_r * float(diff @ diff)


def quadratic_as_parametrized(a: float) -> ParametrizedEnergy:
    """The quadratic-mean energy in parametrized form: F0 = 1/2 int |x|^2,
    identity features, outer R(m) = -(a/2) m^2 (so alpha_r = a/2)."""
    base = LinearPotentialEnergy(
        v=lambda x: 0.5 * float(x @ x),
        v_grad=lambda x: np.asarray(x, float),
        v_hess=lambda x: np.eye(len(x)),
    )
    return ParametrizedEnergy(
        base=base,
        phi=lambda x: np.asarray(x, float),
        phi_jac=lambda x: np.eye(len(x)),
        phi_lip=1.0,
        r=lambda m: -0.5 * a * float(m @ m),
        r_grad=lambda m: -a * np.asarray(m, float),
        r_hess=lambda m: -a * np.eye(len(np.atleast_1d(m))),
        alpha_r=a / 2.0,
        r_hess_bound=a,
    )


@dataclass(frozen=True)
class ParticleSystem:
    """(energy, N, d) bundle exposing U_N = N F(mu_x) and its derivatives."""

    energy: MeanFieldEnergy
    N: int
    d: int

    def __post_init__(self):
        if self.N < 1 or self.d < 1:
            raise ValueError("N and d must be positive")

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.N, self.d):
            raise ValueError(f"configuration shape {x.shape}, expected {(self.N, self.d)}")
        return x

    def u_n(self, x) -> float:
        x = self._check(x)
        w = np.full(self.N, 1.0 / self.N)
        return self.N * self.energy._eval(x, w)

    def grad_u_n(self, x) -> np.ndarray:
        """Gradient blocks; block i equals D_m F(mu_x, x_i)."""
        x = self._check(x)
        return self.energy._grad(x, np.full(self.N, 1.0 / self.N), x)

    def hess_u_n(self, x) -> np.ndarray:
        """Exact Nd x Nd Hessian from the block decomposition
        (1/N) D_m^2 F(mu_x, x_i, x_j) + 1_{i=j} grad_x D_m F(mu_x, x_i)."""
        x = self._check(x)
        N, d = self.N, self.d
        w = np.full(N, 1.0 / N)
        H = self.energy._hess_mm_matrix(x, w) / N
        i = np.arange(N)
        H.reshape(N, d, N, d)[i, :, i] += self.energy._grad_x_of_Dm(x, w, x)
        return H
