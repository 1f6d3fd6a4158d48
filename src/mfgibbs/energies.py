"""Mean-field energy functionals and the induced N-particle potential.

Each energy knows its value F(mu), the flat derivative dF/dm (returned in a
natural closed form, without mean-zero normalization), the intrinsic
derivative D_m F = grad_x dF/dm, and the second intrinsic derivative
D_m^2 F. `ParticleSystem` lifts an energy to U_N = N F(mu_x) with exact
gradient and Hessian.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import DiscreteMeasure, empirical

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

    # Array-level primitives; points (n, d), weights (n,).

    @abc.abstractmethod
    def _eval(self, points: np.ndarray, weights: np.ndarray) -> float: ...

    @abc.abstractmethod
    def _flat(self, points, weights, x: np.ndarray) -> float: ...

    @abc.abstractmethod
    def _grad(self, points, weights, x: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _hess_mm(self, points, weights, x, xp) -> np.ndarray:
        """D_m^2 F(mu, x, xp), a d x d matrix."""

    @abc.abstractmethod
    def _grad_x_of_Dm(self, points, weights, x) -> np.ndarray:
        """grad_x D_m F(mu, x) at frozen mu, a d x d matrix."""

    def _grad_all(self, points, weights) -> np.ndarray:
        """D_m F(mu, x_i) for every atom; override for vectorized paths."""
        return np.stack([self._grad(points, weights, x) for x in points])

    def _value_and_grad(self, points, weights) -> tuple[float, np.ndarray]:
        """(F(mu), D_m F(mu, x_i) for every atom); override to share work
        between the two."""
        return self._eval(points, weights), self._grad_all(points, weights)

    def _hess_mm_matrix(self, points, weights) -> np.ndarray:
        """The Nd x Nd matrix K of the blocks D_m^2 F(mu, x_i, x_j) over the atoms."""
        N, d = points.shape
        K = np.zeros((N * d, N * d))
        for i in range(N):
            for j in range(i, N):
                blk = self._hess_mm(points, weights, points[i], points[j])
                K[i * d : (i + 1) * d, j * d : (j + 1) * d] = blk
                K[j * d : (j + 1) * d, i * d : (i + 1) * d] = blk.T
        return K

    # DiscreteMeasure-facing API.

    def eval(self, mu: DiscreteMeasure) -> float:
        return self._eval(mu.points, mu.weights)

    def flat_derivative(self, mu: DiscreteMeasure, x) -> float:
        return self._flat(mu.points, mu.weights, np.atleast_1d(np.asarray(x, float)))

    def intrinsic_grad(self, mu: DiscreteMeasure, x) -> np.ndarray:
        return self._grad(mu.points, mu.weights, np.atleast_1d(np.asarray(x, float)))

    def intrinsic_hess(self, mu: DiscreteMeasure, x, xp) -> np.ndarray:
        return self._hess_mm(
            mu.points,
            mu.weights,
            np.atleast_1d(np.asarray(x, float)),
            np.atleast_1d(np.asarray(xp, float)),
        )


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

    def _flat(self, points, weights, x):
        mean = weights @ points
        return 0.5 * float(x @ x) - self.a * float(x @ mean)

    def _grad(self, points, weights, x):
        return x - self.a * (weights @ points)

    def _grad_all(self, points, weights):
        return points - self.a * (weights @ points)

    def _hess_mm(self, points, weights, x, xp):
        return -self.a * np.eye(len(x))

    def _grad_x_of_Dm(self, points, weights, x):
        return np.eye(len(x))


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

    def _flat(self, points, weights, x):
        return float(self.v(x))

    def _grad(self, points, weights, x):
        return np.asarray(self.v_grad(x), dtype=float)

    def _hess_mm(self, points, weights, x, xp):
        return np.zeros((len(x), len(xp)))

    def _grad_x_of_Dm(self, points, weights, x):
        return np.asarray(self.v_hess(x), dtype=float)


def _zero(x):
    return 0.0


def _zero_grad(x):
    return np.zeros_like(x)


def _zero_hess(x):
    return np.zeros((len(x), len(x)))


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
            object.__setattr__(self, "v1_grad", _zero_grad)
            object.__setattr__(self, "v1_hess", _zero_hess)

    @property
    def declared_lambda(self) -> float:
        return 2.0 * self.alpha

    @property
    def declared_Mmm(self) -> float:
        return 2.0 * self.L * (1.0 + 2.0 * np.exp(-1.0)) + 2.0 * self.alpha

    # kernel helpers on displacement arrays z of shape (..., d)

    def _w(self, z):
        sq = np.sum(z * z, axis=-1)
        return self.L * np.exp(-sq) + self.alpha * sq

    def _w_grad(self, z):
        sq = np.sum(z * z, axis=-1)[..., None]
        return (-2.0 * self.L * np.exp(-sq) + 2.0 * self.alpha) * z

    def _w_hess(self, z):
        d = z.shape[-1]
        sq = float(z @ z)
        outer = np.outer(z, z)
        return self.L * np.exp(-sq) * (4.0 * outer - 2.0 * np.eye(d)) + 2.0 * self.alpha * np.eye(d)

    def _v(self, x):
        return 0.5 * self.eta * float(x @ x) + self.v1(x)

    def _v_grad(self, x):
        return self.eta * x + self.v1_grad(x)

    def _v_hess(self, x):
        return self.eta * np.eye(len(x)) + self.v1_hess(x)

    def _value_and_grad(self, points, weights):
        """One O(N^2) pass for F and D_m F at every atom (weights summing to 1).

        exp(-|x_i - x_j|^2) is built in place in a single (N, N) buffer and
        contracted with [w, w c] in one matmul, where c = x - m are the points
        centred at the mean m. The alpha |z|^2 part needs only the first two
        moments: value alpha sum_i w_i |c_i|^2, gradient 2 alpha c_i.
        """
        d = points.shape[1]
        gauss = np.subtract.outer(points[:, 0], points[:, 0])
        np.square(gauss, out=gauss)
        if d > 1:
            diff = np.empty_like(gauss)
            for k in range(1, d):
                np.subtract.outer(points[:, k], points[:, k], out=diff)
                np.square(diff, out=diff)
                gauss += diff
        np.negative(gauss, out=gauss)
        np.exp(gauss, out=gauss)
        c = points - weights @ points
        ew = gauss @ np.column_stack((weights, weights[:, None] * c))
        value = (
            0.5 * self.eta * float(weights @ np.sum(points * points, axis=1))
            + 0.5 * self.L * float(weights @ ew[:, 0])
            + self.alpha * float(weights @ np.sum(c * c, axis=1))
        )
        grad = (
            self.eta * points
            - 2.0 * self.L * (c * ew[:, :1] - ew[:, 1:])
            + 2.0 * self.alpha * c
        )
        if self.v1 is not _zero:
            value += float(sum(w * self.v1(x) for w, x in zip(weights, points)))
            grad += np.stack([self.v1_grad(x) for x in points])
        return value, grad

    def _eval(self, points, weights, /):
        return self._value_and_grad(points, weights)[0]

    def _flat(self, points, weights, x):
        return self._v(x) + float(weights @ self._w(x[None, :] - points))

    def _grad(self, points, weights, x):
        return self._v_grad(x) + weights @ self._w_grad(x[None, :] - points)

    def _grad_all(self, points, weights):
        return self._value_and_grad(points, weights)[1]

    def _hess_mm(self, points, weights, x, xp):
        return -self._w_hess(x - xp)

    def _grad_x_of_Dm(self, points, weights, x):
        z = x[None, :] - points
        acc = self._v_hess(x)
        for w, zi in zip(weights, z):
            acc = acc + w * self._w_hess(zi)
        return acc


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
        feats = np.stack([np.atleast_1d(self.phi(x)) for x in points])
        return weights @ feats

    def _eval(self, points, weights, /):
        return self.base._eval(points, weights) + float(
            self.r(self._feature_mean(points, weights))
        )

    def _flat(self, points, weights, x):
        g = self.r_grad(self._feature_mean(points, weights))
        return self.base._flat(points, weights, x) + float(
            np.atleast_1d(g) @ np.atleast_1d(self.phi(x))
        )

    def _grad(self, points, weights, x):
        g = np.atleast_1d(self.r_grad(self._feature_mean(points, weights)))
        jac = np.atleast_2d(self.phi_jac(x))
        return self.base._grad(points, weights, x) + jac.T @ g

    def _hess_mm(self, points, weights, x, xp):
        h = np.atleast_2d(self.r_hess(self._feature_mean(points, weights)))
        jx = np.atleast_2d(self.phi_jac(x))
        jxp = np.atleast_2d(self.phi_jac(xp))
        return self.base._hess_mm(points, weights, x, xp) + jx.T @ h @ jxp

    def _grad_x_of_Dm(self, points, weights, x):
        m = self._feature_mean(points, weights)
        g = np.atleast_1d(self.r_grad(m))
        acc = self.base._grad_x_of_Dm(points, weights, x)
        if self.phi_hess is not None:
            acc = acc + np.tensordot(g, np.asarray(self.phi_hess(x)), axes=1)
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
        w = np.full(self.N, 1.0 / self.N)
        return self.energy._grad_all(x, w)

    def hess_u_n(self, x) -> np.ndarray:
        """Exact Nd x Nd Hessian from the block decomposition
        (1/N) D_m^2 F(mu_x, x_i, x_j) + 1_{i=j} grad_x D_m F(mu_x, x_i)."""
        x = self._check(x)
        N, d = self.N, self.d
        w = np.full(N, 1.0 / N)
        H = self.energy._hess_mm_matrix(x, w) / N
        for i in range(N):
            H[i * d : (i + 1) * d, i * d : (i + 1) * d] += self.energy._grad_x_of_Dm(x, w, x[i])
        return H

    def empirical_measure(self, x) -> DiscreteMeasure:
        return empirical(self._check(x))

    def gibbs_log_density_unnormalized(self, x) -> float:
        return -self.u_n(x)
