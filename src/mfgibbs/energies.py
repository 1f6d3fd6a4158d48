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

The value F has one primitive, `_eval_batch`, which every energy defines:
F at many measures in one call. Points (..., n, d) and weights (..., n)
have leading batch axes that broadcast, and the values have the broadcast
shape. Mixtures of two measures share their atoms: (n, d) with weights
(K, n), or, for P pairs at once, (P, 1, n, d) with (P, K, n), so that the
atoms' features are evaluated once per atom, not once per mixture.
Configurations that differ in one particle share their weights: (K, n, d)
with (n,). Each measure's value is bit for bit the one it has alone. With
no batch axis it gives F of one measure, and `_eval` is that case, written
once in the base class.

`_value_and_grad` and `_grad` at the atoms take the same leading axis of
configurations: points (G, n, d) with shared weights (n,) give values (G,)
and D_m F at every atom (G, n, d), and `_hess_mm` with xs and ys (G, n, d)
gives the blocks (G, n, n, d, d), each configuration's result bit for bit
the one it has alone. `ParticleSystem`'s `u_n`, `grad_u_n` and
`u_n_and_grad` lift them to one configuration (N, d) or a batch (K, N, d).

The user callables (V, phi, R, the kernel's V1 and their derivatives) take
an array of rows (..., d), or of feature means (..., k) for R, and return
the matching array: (...) for a value, (..., d) or (..., k) for a gradient
or features, (..., k, d) for phi's Jacobian, (..., d, d) or (..., k, d, d)
for a Hessian. A primitive calls each callable once, on all its rows.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GibbsUndefinedError, TheoremInvalidError
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
    #: LSI constant of every proximal Gibbs measure
    declared_rho: float
    #: (alpha_r, Lip phi) of the cost alpha_r |int phi d(nu - mu)|^2 in the defective LSI
    declared_cost: tuple[float, float]

    def declared_rho_N(self, N: int) -> float:
        """LSI constant of one particle's law given the other N - 1, by default
        the proximal one; GibbsUndefinedError when U_N has no Gibbs measure."""
        return self.declared_rho

    # Array-level primitives: atoms points (n, d) with weights (n,) summing
    # to one, query rows xs (m, d) and ys (m', d).

    @abc.abstractmethod
    def _eval_batch(self, points, weights) -> np.ndarray:
        """F at a batch of measures: points (..., n, d) and weights (..., n)
        whose leading axes broadcast; values of the broadcast shape. With no
        batch axis, F of one measure."""

    @abc.abstractmethod
    def _flat(self, points, weights, xs) -> np.ndarray: ...  # dF/dm(mu, xs_i): (m,)

    # D_m F(mu, xs_i): (m, d); at the atoms xs = points of G configurations, (G, n, d)
    @abc.abstractmethod
    def _grad(self, points, weights, xs) -> np.ndarray: ...

    # D_m^2 F(mu, xs_i, ys_j): (m, m', d, d); for G configurations, (G, n, n, d, d)
    @abc.abstractmethod
    def _hess_mm(self, points, weights, xs, ys) -> np.ndarray: ...

    @abc.abstractmethod
    def _grad_x_of_Dm(self, points, weights, xs) -> np.ndarray: ...  # grad_x D_m F: (m, d, d)

    def _eval(self, points, weights) -> float:
        """F of one measure: the batch with no batch axis."""
        return float(self._eval_batch(points, weights))

    def _value_and_grad(self, points, weights) -> tuple[float, np.ndarray]:
        """(F(mu), D_m F(mu, x_i) for every atom); for configurations points
        (G, n, d) with weights (n,), values (G,) and gradients (G, n, d).
        Override to share work between the two."""
        if points.ndim == 2:
            return self._eval(points, weights), self._grad(points, weights, points)
        return self._eval_batch(points, weights), self._grad(points, weights, points)

    def _flat_on_grid(self, x, weights) -> np.ndarray:
        """dF/dm of the grid measure sum_k w_k delta_{x_k} at its own uniform
        nodes x (n,): `_flat` there, unless the energy has a faster sum."""
        return self._flat(x[:, None], weights, x[:, None])

    def _hess_mm_matrix(self, points, weights) -> np.ndarray:
        """The Nd x Nd matrix K of the blocks D_m^2 F(mu, x_i, x_j) over the
        atoms of one configuration (N, d), or of each of a stack (K, N, d)."""
        *lead, N, d = points.shape
        blocks = self._hess_mm(points, weights, points, points)
        return np.swapaxes(blocks, -3, -2).reshape(*lead, N * d, N * d)

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


# The weighted sums over atoms below are one vector product per measure, so
# a batch of measures gives bit for bit what its measures give one by one.
# One measure takes the plain product by `ndarray.dot`, the same bits as `@`
# and the batch's `np.matmul` at about half the call cost of `@`, on the paths
# ULA and MALA take once per step.


def _wsum(weights, values) -> np.ndarray:
    """sum_j w_j values_j per measure: weights and values (..., n), whose
    leading axes broadcast, give (...)."""
    if weights.ndim == values.ndim == 1:
        return float(weights.dot(values))
    return np.matmul(weights[..., None, :], values[..., :, None])[..., 0, 0]


def _wmean(weights, values) -> np.ndarray:
    """sum_j w_j values_j per measure of vector values (..., n, k): (..., k)."""
    if weights.ndim == 1 and values.ndim == 2:
        return weights.dot(values)
    return np.matmul(weights[..., None, :], values)[..., 0, :]


@dataclass(frozen=True)
class QuadraticMeanEnergy(MeanFieldEnergy):
    """F(mu) = 1/2 int |x|^2 dmu - (a/2) |int x dmu|^2, attraction strength a > 0.

    The second flat derivative is -a x.x', so D_m^2 F = -a I; only the
    magnitude a enters the theorem constants (declared_Mmm = a).
    """

    a: float
    declared_rho = 1.0  # every proximal Gibbs measure is N(0, I)

    def __post_init__(self):
        if not self.a > 0:  # NaN fails too
            raise ValueError("attraction strength a must be positive")

    @property
    def declared_lambda(self) -> float:
        return self.a

    @property
    def declared_Mmm(self) -> float:
        return self.a

    def declared_rho_N(self, N: int) -> float:
        if self.a >= 1.0:
            raise GibbsUndefinedError("gibbs-undefined: quadratic-mean energy needs a < 1")
        return 1.0 - self.a / N

    @property
    def declared_cost(self) -> tuple[float, float]:  # outer R(m) = -(a/2) m^2
        return self.a / 2.0, 1.0

    def _value(self, points, weights, mean):
        """F from the mean, for one measure or a batch."""
        second = _wsum(weights, np.add.reduce(points * points, axis=-1))
        return 0.5 * second - 0.5 * self.a * _wsum(mean, mean)

    def _eval_batch(self, points, weights):
        return self._value(points, weights, _wmean(weights, points))

    def _value_and_grad(self, points, weights):
        """F and D_m F at every atom, with the mean computed once."""
        if points.ndim == 2:  # one configuration, the path MALA takes per proposal:
            # `_value` inline, by `.dot`; the squares x.x come before m.m, so an
            # overflow raises where it does in `_value`
            mean = weights.dot(points)
            sq = points * points
            if sq.shape[1] == 1:  # d = 1: the row sum of one term is that term, and
                # the mean one Python float m, so m.m = m * m with the same bits
                m = mean.item()
                second = weights.dot(sq[:, 0])
                return 0.5 * float(second) - 0.5 * self.a * (m * m), points - self.a * m
            second = weights.dot(np.add.reduce(sq, axis=1))
            value = 0.5 * float(second) - 0.5 * self.a * float(mean.dot(mean))
            return value, points - self.a * mean
        mean = _wmean(weights, points)
        return self._value(points, weights, mean), points - self.a * mean[:, None, :]

    def _flat(self, points, weights, xs):
        mean = weights.dot(points)
        return 0.5 * np.sum(xs * xs, axis=1) - self.a * np.sum(xs * mean, axis=1)

    def _grad(self, points, weights, xs):
        if points.ndim == 3:
            return xs - self.a * _wmean(weights, points)[:, None, :]
        mean = weights.dot(points)  # at d = 1 one Python float, as in `_value_and_grad`
        return xs - self.a * (mean.item() if mean.size == 1 else mean)

    def _hess_mm(self, points, weights, xs, ys):
        return np.tile(-self.a * np.eye(xs.shape[-1]), xs.shape[:-1] + (ys.shape[-2], 1, 1))

    def _grad_x_of_Dm(self, points, weights, xs):
        return np.tile(np.eye(xs.shape[1]), (len(xs), 1, 1))


@dataclass(frozen=True)
class LinearPotentialEnergy(MeanFieldEnergy):
    """F(mu) = int V dmu: linear in mu, hence flat-convex with D_m^2 F = 0."""

    v: Callable  # rows (..., d) -> (...)
    v_grad: Callable  # (..., d) -> (..., d)
    v_hess: Callable  # (..., d) -> (..., d, d)
    kappa: float | None = None  # declared convexity modulus: V - kappa |x|^2 / 2 convex

    declared_lambda = 0.0
    declared_Mmm = 0.0
    declared_cost = (0.0, 1.0)  # linear: no outer cost

    @property
    def declared_rho(self) -> float:  # Bakry-Emery: the Gibbs measure of V is kappa-log-concave
        if self.kappa is None:
            raise TheoremInvalidError("theorem inputs need a V of declared kappa")
        return self.kappa

    def _eval_batch(self, points, weights):
        return _wsum(weights, self.v(points))

    def _flat(self, points, weights, xs):
        return self.v(xs)

    def _grad(self, points, weights, xs):
        return self.v_grad(xs)

    def _hess_mm(self, points, weights, xs, ys):
        return np.zeros(xs.shape[:-1] + (ys.shape[-2],) + 2 * xs.shape[-1:])

    def _grad_x_of_Dm(self, points, weights, xs):
        return self.v_hess(xs)


def _zero(xs):
    return np.zeros(xs.shape[:-1])


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
    v1: Callable | None = None  # bounded perturbation, rows (..., d) -> (...)
    v1_grad: Callable | None = None
    v1_hess: Callable | None = None
    v1_sup: float = 0.0

    def __post_init__(self):
        if not 0 < self.eta < math.inf:  # NaN fails too
            raise ValueError("eta must be positive and finite")
        if not all(0 <= v < math.inf for v in (self.L, self.alpha, self.v1_sup)):
            raise ValueError("kernel parameters must be nonnegative and finite")
        if self.v1 is None:
            object.__setattr__(self, "v1", _zero)
            object.__setattr__(self, "v1_grad", np.zeros_like)

    @property
    def declared_lambda(self) -> float:
        return 2.0 * self.alpha

    @property
    def declared_Mmm(self) -> float:
        return 2.0 * self.L * (1.0 + 2.0 * math.exp(-1.0)) + 2.0 * self.alpha

    @property
    def declared_rho(self) -> float:  # Holley-Stroock: eta |x|^2 / 2 perturbed by V1 and L
        return self.eta * math.exp(-self.v1_sup - self.L)

    @property
    def declared_cost(self) -> tuple[float, float]:  # attraction alpha int|x|^2 - alpha |int x|^2
        return self.alpha, 1.0

    def _w_hess(self, z):
        """W''(z) for displacements z of shape (..., d): shape (..., d, d)."""
        eye = np.eye(z.shape[-1])
        gauss = np.exp(-np.sum(z * z, axis=-1))[..., None, None]
        outer = z[..., :, None] * z[..., None, :]
        return self.L * gauss * (4.0 * outer - 2.0 * eye) + 2.0 * self.alpha * eye

    def _pair_sums(self, points, weights, xs):
        """(mean, c, ew): the mean of mu, the atoms c centred there, and
        ew = exp(-|xs_i - p_j|^2) @ [w, w c] (..., m, 1 + d) from
        `_gauss_product`, which carries the Gaussian pair terms in O(n m).
        The alpha |z|^2 terms need only moments:
        sum_j w_j |x - p_j|^2 = |x - mean|^2 + sum_j w_j |c_j|^2."""
        mean = _wmean(weights, points)
        c = points - mean[..., None, :]
        rhs = np.empty(c.shape[:-1] + (1 + c.shape[-1],))
        rhs[..., 0] = weights
        np.multiply(weights[..., None], c, out=rhs[..., 1:])
        return mean, c, _gauss_product(xs, points, rhs)

    def _grad_from_sums(self, xs, cx, ew):
        pair = cx * ew[..., :1] - ew[..., 1:]
        grad = self.eta * xs - 2.0 * self.L * pair + 2.0 * self.alpha * cx
        if self.v1 is not _zero:
            grad += self.v1_grad(xs)
        return grad

    def _value(self, points, weights, c, gauss_w):
        """F from the atoms c centred at the mean and the Gaussian sums
        gauss_w_i = sum_j w_j exp(-|p_i - p_j|^2), for one measure or a batch."""
        value = (
            0.5 * self.eta * _wsum(weights, np.sum(points * points, axis=-1))
            + 0.5 * self.L * _wsum(weights, gauss_w)
            + self.alpha * _wsum(weights, np.sum(c * c, axis=-1))
        )
        if self.v1 is not _zero:
            value += _wsum(weights, self.v1(points))
        return value

    def _value_and_grad(self, points, weights):
        """F and D_m F at every atom from one O(N^2) pass of `_pair_sums`."""
        _, c, ew = self._pair_sums(points, weights, points)
        value = self._value(points, weights, c, ew[..., 0])
        if points.ndim == 2:
            value = float(value)
        return value, self._grad_from_sums(points, c, ew)

    def _eval_batch(self, points, weights):
        """F from the pass of `_pair_sums` alone, without assembling D_m F:
        each measure's value is bit for bit the one `_value_and_grad` gives."""
        _, c, ew = self._pair_sums(points, weights, points)
        return self._value(points, weights, c, ew[..., 0])

    def _flat_from_sum(self, points, weights, xs, gauss_w):
        """dF/dm at xs from the Gaussian sums gauss_w_i = sum_j w_j exp(-|xs_i - p_j|^2)."""
        mean = weights @ points
        cx, c = xs - mean, points - mean
        flat = 0.5 * self.eta * np.sum(xs * xs, axis=1) + self.L * gauss_w
        flat += self.alpha * (np.sum(cx * cx, axis=1) + float(weights @ np.sum(c * c, axis=1)))
        if self.v1 is not _zero:
            flat += self.v1(xs)
        return flat

    def _flat(self, points, weights, xs):
        gauss_w = _gauss_product(xs, points, weights[:, None])[:, 0]
        return self._flat_from_sum(points, weights, xs, gauss_w)

    def _flat_on_grid(self, x, weights):
        """`_flat` at the grid's own nodes, its Gaussian sum by `_gauss_toeplitz`."""
        nodes = x[:, None]
        spacing = (x[-1] - x[0]) / (len(x) - 1)  # linspace's step; x[1] - x[0] cancels digits
        return self._flat_from_sum(nodes, weights, nodes, _gauss_toeplitz(spacing, weights))

    def _grad(self, points, weights, xs):
        mean, _, ew = self._pair_sums(points, weights, xs)
        return self._grad_from_sums(xs, xs - mean[..., None, :], ew)

    def _hess_mm(self, points, weights, xs, ys):
        return -self._w_hess(xs[..., :, None, :] - ys[..., None, :, :])

    def _grad_x_of_Dm(self, points, weights, xs):
        pair = np.tensordot(weights, self._w_hess(xs[:, None, :] - points), axes=(0, 1))
        hess = self.eta * np.eye(xs.shape[1]) + pair
        if self.v1 is not _zero:
            hess += self.v1_hess(xs)
        return hess


#: Entries of one block of Gaussian matrices in `_gauss_product`.
_BLOCK_ENTRIES = 2**16


def _gauss_rows(xs, points):
    """exp(-|xs_i - p_j|^2) for xs (..., m, d) and points (..., n, d), shape
    (..., m, n) over any leading batch axes, built in place in one buffer."""
    gauss = np.subtract(xs[..., :, None, 0], points[..., None, :, 0])
    np.square(gauss, out=gauss)
    if xs.shape[-1] > 1:
        diff = np.empty_like(gauss)
        for k in range(1, xs.shape[-1]):
            np.subtract(xs[..., :, None, k], points[..., None, :, k], out=diff)
            np.square(diff, out=diff)
            gauss += diff
    np.negative(gauss, out=gauss)
    np.exp(gauss, out=gauss)
    return gauss


def _gauss_product(xs, points, rhs):
    """exp(-|xs_i - p_j|^2) @ rhs, shape (..., m, k): the query rows xs
    (..., m, d) and the atoms points (..., n, d) share their leading axes,
    which broadcast to those of rhs (..., n, k). Every Gaussian pair sum of
    the kernel energy off a grid's own nodes is this product, in blocks of
    at most _BLOCK_ENTRIES matrix entries. One set of atoms is built once
    for all its rhs, in row blocks: one block, with no copy, up to
    256 x 256. More are split along the first axis into blocks of whole
    sets, each block's matrices built once for the rhs that share them (one
    block, with no copy, when all sets fit the budget), or taken one set at
    a time when one set alone is over the budget. Each set's product is the
    one it has on its own."""
    m, n = xs.shape[-2], points.shape[-2]
    if math.prod(points.shape[:-2]) == 1:
        xs, points = xs.reshape(m, -1), points.reshape(n, -1)
        rows = max(1, _BLOCK_ENTRIES // n)
        if m <= rows:
            return _gauss_rows(xs, points) @ rhs
        blocks = range(0, m, rows)
        return np.concatenate(
            [_gauss_rows(xs[s : s + rows], points) @ rhs for s in blocks], axis=-2
        )
    pad = (1,) * (rhs.ndim - points.ndim)
    if pad or len(points) < len(rhs):  # sets shared along rhs's first axis
        lead = rhs.shape[:1]
        xs, points = (np.broadcast_to(a, lead + (pad + a.shape)[1:]) for a in (xs, points))
    per = _BLOCK_ENTRIES // (m * n * math.prod(points.shape[1:-2]))
    if per == 0:
        return np.stack([_gauss_product(*one) for one in zip(xs, points, rhs)])
    if len(points) <= per:
        return _gauss_rows(xs, points) @ rhs
    blocks = [slice(s, s + per) for s in range(0, len(points), per)]
    return np.concatenate([_gauss_rows(xs[b], points[b]) @ rhs[b] for b in blocks])


@functools.lru_cache(maxsize=2)
def _gauss_spectrum(n: int, h: float) -> np.ndarray:
    """rfft of the power-of-two circulant embedding of exp(-(k h)^2), k < n,
    read-only: kept for a fixed point's grid and its refinement alike."""
    size = 1 << (2 * n - 2).bit_length()  # at least 2n - 1
    column = np.zeros(size)
    column[:n] = np.exp(-np.square(np.arange(n) * h))
    column[size - n + 1 :] = column[n - 1 : 0 : -1]
    spectrum = np.fft.rfft(column)
    spectrum.setflags(write=False)
    return spectrum


def _gauss_toeplitz(h, weights):
    """exp(-(x_i - x_j)^2) @ weights over n uniform nodes of spacing h, (n,):
    a symmetric Toeplitz product, taken by FFT over a circulant embedding of
    power-of-two length (Golub & Van Loan, Matrix Computations, 4.7), exact
    up to round-off."""
    spectrum = _gauss_spectrum(len(weights), h)
    size = 2 * len(spectrum) - 2
    return np.fft.irfft(spectrum * np.fft.rfft(weights, size), size)[: len(weights)]


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
    phi: Callable = None  # rows (..., d) -> (..., k)
    phi_jac: Callable = None  # (..., d) -> (..., k, d)
    phi_lip: float = 1.0
    r: Callable = None  # feature means (..., k) -> (...)
    r_grad: Callable = None  # (..., k) -> (..., k)
    r_hess: Callable = None  # (..., k) -> (..., k, k)
    alpha_r: float = 0.0
    r_hess_bound: float = 0.0
    phi_hess: Callable | None = None  # (..., d) -> (..., k, d, d); None: affine features

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

    @property
    def declared_rho(self) -> float:  # Bakry-Emery: affine phi adds no Hessian to V + grad R . phi
        kappa = getattr(self.base, "kappa", None)
        if self.phi_hess is not None or kappa is None:
            raise TheoremInvalidError("theorem inputs need affine phi over a V of declared kappa")
        return kappa

    def declared_rho_N(self, N: int) -> float:
        kappa, curvature = self.declared_rho, self.r_hess_bound * self.phi_lip**2
        if kappa <= curvature:
            raise GibbsUndefinedError(f"gibbs-undefined: parametrized energy needs "
                                      f"kappa = {kappa} > r_hess_bound Lip(phi)^2 = {curvature}")
        return kappa - curvature / N

    @property
    def declared_cost(self) -> tuple[float, float]:
        return self.alpha_r, self.phi_lip

    def _feature_mean(self, points, weights):
        """int phi dmu, for one measure or a batch."""
        return _wmean(weights, self.phi(points))

    def _outer_grad(self, points, weights):
        """grad R at int phi dmu, for one measure or a batch: (..., k)."""
        return self.r_grad(self._feature_mean(points, weights))

    def _eval_batch(self, points, weights):
        outer = self.r(self._feature_mean(points, weights))
        return self.base._eval_batch(points, weights) + outer

    def _flat(self, points, weights, xs):
        g = self._outer_grad(points, weights)
        return self.base._flat(points, weights, xs) + np.sum(self.phi(xs) * g, axis=1)

    def _grad(self, points, weights, xs):
        jac = self.phi_jac(xs)
        g = self._outer_grad(points, weights)
        return self.base._grad(points, weights, xs) + np.sum(jac * g[..., None, :, None], axis=-2)

    def _hess_mm(self, points, weights, xs, ys):
        h = self.r_hess(self._feature_mean(points, weights))
        jx, jy = self.phi_jac(xs), self.phi_jac(ys)
        pair = np.einsum("...ika,...kl,...jlb->...ijab", jx, h, jy)
        return self.base._hess_mm(points, weights, xs, ys) + pair

    def _grad_x_of_Dm(self, points, weights, xs):
        acc = self.base._grad_x_of_Dm(points, weights, xs)
        if self.phi_hess is not None:
            g = self._outer_grad(points, weights)
            acc = acc + np.einsum("k,ikab->iab", g, self.phi_hess(xs))
        return acc

    def _cost(self, mu_points, mu_weights, nu_points, nu_weights):
        """alpha_r * |int phi d(nu - mu)|^2 of one pair, or of each pair of
        two stacks of measures (P,)."""
        diff = self._feature_mean(nu_points, nu_weights) - self._feature_mean(mu_points, mu_weights)
        return self.alpha_r * _wsum(diff, diff)


def _identity(xs):  # a copy, never a view of the caller's rows
    return np.array(xs, float)


def _eye(xs):  # the identity matrix broadcast over the rows
    return np.broadcast_to(np.eye(xs.shape[-1]), xs.shape + xs.shape[-1:])


def quadratic_as_parametrized(a: float) -> ParametrizedEnergy:
    """The quadratic-mean energy in parametrized form: F0 = 1/2 int |x|^2
    (kappa = 1), identity features, outer R(m) = -(a/2) |m|^2 (so alpha_r = a/2)."""
    return ParametrizedEnergy(
        base=LinearPotentialEnergy(lambda x: 0.5 * np.sum(x * x, axis=-1), _identity, _eye, 1.0),
        phi=_identity,
        phi_jac=_eye,
        phi_lip=1.0,
        r=lambda m: -0.5 * a * np.sum(m * m, axis=-1),
        r_grad=lambda m: -a * m,
        r_hess=lambda m: -a * _eye(m),
        alpha_r=a / 2.0,
        r_hess_bound=a,
    )


@dataclass(frozen=True)
class ParticleSystem:
    """The one lift from F at the uniform weights 1/N to U_N = N F(mu_x).
    `u_n`, `grad_u_n` and `u_n_and_grad` take one configuration (N, d) or a
    batch (K, N, d), each configuration bit for bit as alone; `hess_u_n`
    takes one configuration."""

    energy: MeanFieldEnergy
    N: int
    d: int
    _w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N < 1 or self.d < 1:
            raise ValueError("N and d must be positive")
        w = np.full(self.N, 1.0 / self.N)
        w.setflags(write=False)
        object.__setattr__(self, "_w", w)

    def _check(self, x) -> np.ndarray:
        """x as a float array of one configuration (N, d) or a batch (K, N, d), K >= 1."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (2, 3) or x.shape[-2:] != (self.N, self.d) or not x.size:
            expected = f"{(self.N, self.d)} or (K, {self.N}, {self.d})"
            raise ValueError(f"configuration shape {x.shape}, expected {expected}")
        return x

    def u_n(self, x):
        """U_N: a float for one configuration, (K,) for a batch."""
        x = self._check(x)
        if x.ndim == 2:
            return self.N * self.energy._eval(x, self._w)
        return self.N * self.energy._eval_batch(x, self._w)

    def grad_u_n(self, x) -> np.ndarray:
        """Gradient blocks; block i equals D_m F(mu_x, x_i)."""
        return self._grad_u_n(self._check(x))

    def u_n_and_grad(self, x) -> tuple:
        """(U_N, grad U_N) from one `_value_and_grad` pass of the energy."""
        return self._u_n_and_grad(self._check(x))

    # The unchecked lifts behind the two above, of an x that is already a
    # float array (N, d) or (K, N, d). The samplers' chain loop, whose state
    # is checked once at its start, calls them on every step.

    def _grad_u_n(self, xs) -> np.ndarray:
        return self.energy._grad(xs, self._w, xs)

    def _u_n_and_grad(self, xs) -> tuple:
        f, grad = self.energy._value_and_grad(xs, self._w)
        return self.N * f, grad

    def hess_u_n(self, x) -> np.ndarray:
        """Exact Nd x Nd Hessian from the block decomposition
        (1/N) D_m^2 F(mu_x, x_i, x_j) + 1_{i=j} grad_x D_m F(mu_x, x_i)."""
        x = self._check(x)
        if x.ndim != 2:
            raise ValueError(f"hess_u_n takes one configuration, not a batch of shape {x.shape}")
        N, d = self.N, self.d
        H = self.energy._hess_mm_matrix(x, self._w) / N
        i = np.arange(N)
        H.reshape(N, d, N, d)[i, :, i] += self.energy._grad_x_of_Dm(x, self._w, x)
        return H
