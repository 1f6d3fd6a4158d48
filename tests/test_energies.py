import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from mfgibbs.energies import (
    _BLOCK_ENTRIES,
    LinearPotentialEnergy,
    MeanFieldEnergy,
    PairwiseKernelEnergy,
    ParametrizedEnergy,
    ParticleSystem,
    QuadraticMeanEnergy,
)
from mfgibbs.measures import DiscreteMeasure, empirical, mix
from mfgibbs.energies import _gauss_product, _gauss_spectrum, _gauss_toeplitz
from mfgibbs.energies import quadratic_as_parametrized
from mfgibbs.spectral1d import proximal_gibbs_fixed_point


def random_measure(rng, d=1, max_atoms=5):
    n = int(rng.integers(1, max_atoms + 1))
    w = rng.random(n) + 0.1
    return DiscreteMeasure(rng.normal(size=(n, d)) * 1.5, w / w.sum())


def _eye(x):
    """The identity matrix at every row of x (..., d): (..., d, d)."""
    return np.eye(x.shape[-1]) * np.ones(x.shape[:-1] + (1, 1))


def all_energies():
    return [
        QuadraticMeanEnergy(0.5),
        PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05),
        quadratic_as_parametrized(0.5),
    ]


class TestClosedForms:
    def test_quadratic_eval(self):
        e = QuadraticMeanEnergy(0.5)
        assert e.eval(empirical([[0.0]])) == 0.0
        assert abs(e.eval(empirical([[0.0], [2.0]])) - 0.75) < 1e-15

    def test_quadratic_flat(self):
        e = QuadraticMeanEnergy(0.5)
        mu = empirical([[1.0]])
        assert abs(e.flat_derivative(mu, 2.0) - 1.0) < 1e-15

    def test_quadratic_grad(self):
        e = QuadraticMeanEnergy(0.5)
        mu = empirical([[1.0]])
        np.testing.assert_allclose(e.intrinsic_grad(mu, 2.0), [1.5])

    def test_quadratic_hess_constant(self):
        e = QuadraticMeanEnergy(0.5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            mu = random_measure(rng)
            x, xp = rng.normal(size=2)
            np.testing.assert_allclose(e.intrinsic_hess(mu, x, xp), [[-0.5]])

    def test_kernel_eval_dirac(self):
        e = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        # V(0) = 0 and the self-interaction term W(0)/2 = L/2
        assert abs(e.eval(empirical([[0.0]])) - 0.5) < 1e-15

    def test_kernel_flat_dirac(self):
        e = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        assert abs(e.flat_derivative(empirical([[0.0]]), 0.0) - 1.0) < 1e-15

    def test_kernel_grad(self):
        e = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        got = e.intrinsic_grad(empirical([[0.0]]), 1.0)
        expected = 1.0 - 2.0 * np.exp(-1.0) + 0.1
        np.testing.assert_allclose(got, [expected])

    def test_kernel_hess_at_zero(self):
        e = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        got = e.intrinsic_hess(empirical([[0.0]]), 0.0, 0.0)
        np.testing.assert_allclose(got, [[1.9]])

    def test_kernel_hess_closed_form_1d(self):
        e = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        mu = empirical([[0.0]])
        for z in np.linspace(-3, 3, 13):
            expected = 1.0 * (2.0 - 4.0 * z**2) * np.exp(-(z**2)) - 0.1
            got = e.intrinsic_hess(mu, z, 0.0)
            np.testing.assert_allclose(got, [[expected]], atol=1e-14)

    def test_kernel_mmm_dominates_on_grid(self):
        e = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        mu = empirical([[0.0]])
        norms = [
            np.abs(np.linalg.eigvalsh(e.intrinsic_hess(mu, z, 0.0))).max()
            for z in np.linspace(0, 5, 201)
        ]
        assert max(norms) <= e.declared_Mmm + 1e-12
        assert abs(e.declared_Mmm - 3.57151) < 1e-5

    def test_kernel_hess_depends_on_difference_and_even(self):
        e = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        rng = np.random.default_rng(1)
        mu = random_measure(rng)
        for _ in range(10):
            x, xp, shift = rng.normal(size=3)
            a = e.intrinsic_hess(mu, x, xp)
            b = e.intrinsic_hess(mu, x + shift, xp + shift)
            c = e.intrinsic_hess(mu, xp, x)
            np.testing.assert_allclose(a, b, atol=1e-12)
            np.testing.assert_allclose(a, c, atol=1e-12)

    def test_parametrized_with_zero_outer_reduces_to_base(self):
        base = LinearPotentialEnergy(
            v=lambda x: 0.5 * np.sum(x * x, axis=-1),
            v_grad=lambda x: np.array(x, float),
            v_hess=_eye,
        )
        par = ParametrizedEnergy(
            base=base,
            phi=lambda x: np.array(x, float),
            phi_jac=_eye,
            phi_lip=1.0,
            r=lambda m: np.zeros(m.shape[:-1]),
            r_grad=np.zeros_like,
            r_hess=lambda m: np.zeros(m.shape + m.shape[-1:]),
        )
        rng = np.random.default_rng(2)
        for _ in range(10):
            mu = random_measure(rng)
            x, xp = rng.normal(size=2)
            assert abs(par.eval(mu) - base.eval(mu)) < 1e-14
            assert abs(par.flat_derivative(mu, x) - base.flat_derivative(mu, x)) < 1e-14
            np.testing.assert_allclose(par.intrinsic_grad(mu, x), base.intrinsic_grad(mu, x))
            np.testing.assert_allclose(
                par.intrinsic_hess(mu, x, xp), base.intrinsic_hess(mu, x, xp)
            )

    def test_parametrized_matches_quadratic(self):
        quad = QuadraticMeanEnergy(0.5)
        par = quadratic_as_parametrized(0.5)
        rng = np.random.default_rng(3)
        for _ in range(20):
            mu = random_measure(rng)
            x, xp = rng.normal(size=2)
            assert abs(par.eval(mu) - quad.eval(mu)) < 1e-13
            assert abs(par.flat_derivative(mu, x) - quad.flat_derivative(mu, x)) < 1e-13
            np.testing.assert_allclose(
                par.intrinsic_grad(mu, x), quad.intrinsic_grad(mu, x), atol=1e-13
            )
            np.testing.assert_allclose(
                par.intrinsic_hess(mu, x, xp), quad.intrinsic_hess(mu, x, xp), atol=1e-13
            )

    def test_eval_permutation_invariant(self):
        rng = np.random.default_rng(4)
        for e in all_energies():
            pts = rng.normal(size=(5, 1))
            perm = rng.permutation(5)
            assert abs(e.eval(empirical(pts)) - e.eval(empirical(pts[perm]))) < 1e-13


def _kernel_reference(e, x, w):
    """F and D_m F of the kernel energy through the (N, N, d) displacement tensor."""
    z = x[:, None, :] - x[None, :, :]
    sq = np.sum(z * z, axis=-1)
    gauss = np.exp(-sq)
    value = float(np.sum(w * (0.5 * e.eta * np.sum(x * x, axis=1))))
    value += float(sum(wi * e.v1(xi) for wi, xi in zip(w, x)))
    value += 0.5 * float(w @ (e.L * gauss + e.alpha * sq) @ w)
    pair_grad = (-2.0 * e.L * gauss + 2.0 * e.alpha)[..., None] * z
    grad = np.stack([e.eta * xi + e.v1_grad(xi) for xi in x])
    return value, grad + np.einsum("j,ijk->ik", w, pair_grad)


def _cos_perturbed_kernel():
    return PairwiseKernelEnergy(
        eta=1.0, L=1.0, alpha=0.05,
        v1=lambda x: 0.3 * np.cos(x[..., 0]),
        v1_grad=lambda x: np.eye(x.shape[-1])[0] * (-0.3 * np.sin(x[..., :1])),
        v1_hess=lambda x: np.diag(np.eye(x.shape[-1])[0]) * (-0.3 * np.cos(x[..., :1, None])),
        v1_sup=0.3,
    )


def _assert_rel_close(got, ref, rel=1e-12):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.max(np.abs(got - ref)) <= rel * max(np.max(np.abs(ref)), 1e-300)


class TestValueAndGrad:
    """The fused (F, D_m F at every atom) primitive that MALA calls once per proposal."""

    @pytest.mark.parametrize("perturbed", [False, True], ids=["v1=0", "v1=cos"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 7, 200])
    def test_kernel_matches_displacement_tensor(self, N, d, perturbed):
        e = _cos_perturbed_kernel() if perturbed else PairwiseKernelEnergy(1.0, 1.0, 0.05)
        rng = np.random.default_rng(100 * N + d)
        x = rng.normal(size=(N, d)) * 1.5
        w = rng.random(N) + 0.1
        w /= w.sum()
        value, grad = e._value_and_grad(x, w)
        ref_value, ref_grad = _kernel_reference(e, x, w)
        _assert_rel_close(value, ref_value)
        _assert_rel_close(grad, ref_grad)
        assert grad.shape == (N, d)
        # _eval and _grad(x, w, x) are the same pass
        assert e._eval(x, w) == value
        np.testing.assert_array_equal(e._grad(x, w, x), grad)

    @pytest.mark.parametrize("d", [1, 2])
    def test_other_energies_match_eval_and_grad_all(self, d):
        rng = np.random.default_rng(d)
        for e in (QuadraticMeanEnergy(0.5), _sine_linear(), quadratic_as_parametrized(0.5)):
            for N in (1, 7, 200):
                x = rng.normal(size=(N, d)) * 1.5
                w = np.full(N, 1.0 / N)
                value, grad = e._value_and_grad(x, w)
                assert value == e._eval(x, w)
                np.testing.assert_array_equal(grad, e._grad(x, w, x))
                _assert_rel_close(grad, np.stack([e._grad(x, w, xi[None])[0] for xi in x]))


def _sine_linear():
    return LinearPotentialEnergy(
        v=lambda x: 0.5 * np.sum(x * x, axis=-1) + np.sin(x[..., 0]),
        v_grad=lambda x: x + np.eye(x.shape[-1])[0] * np.cos(x[..., :1]),
        v_hess=lambda x: _eye(x) - np.diag(np.eye(x.shape[-1])[0]) * np.sin(x[..., :1, None]),
    )


def _curved_features():
    """Parametrized energy with the non-affine features (sin x_0, |x|^2)."""
    return ParametrizedEnergy(
        base=_sine_linear(),
        phi=lambda x: np.stack([np.sin(x[..., 0]), np.sum(x * x, axis=-1)], axis=-1),
        phi_jac=lambda x: np.stack(
            [np.eye(x.shape[-1])[0] * np.cos(x[..., :1]), 2.0 * x], axis=-2
        ),
        phi_hess=lambda x: np.stack(
            [-np.diag(np.eye(x.shape[-1])[0]) * np.sin(x[..., :1, None]), 2.0 * _eye(x)],
            axis=-3,
        ),
        r=lambda m: 0.5 * np.sum(m * m, axis=-1),
        r_grad=lambda m: np.array(m, float),
        r_hess=_eye,
        r_hess_bound=1.0,
    )


def _scalar_feature():
    """Parametrized energy with the one feature |x|^2: k = 1, so phi gives
    (..., 1), its Jacobian (..., 1, d) and R's Hessian (1, 1)."""
    return ParametrizedEnergy(
        base=_sine_linear(),
        phi=lambda x: np.sum(x * x, axis=-1, keepdims=True),
        phi_jac=lambda x: 2.0 * x[..., None, :],
        phi_hess=lambda x: 2.0 * _eye(x)[..., None, :, :],
        r=lambda m: 0.5 * np.sum(m * m, axis=-1),
        r_grad=lambda m: np.array(m, float),
        r_hess=_eye,
        r_hess_bound=1.0,
    )


ARRAY_ENERGIES = {
    "quadratic": (lambda: QuadraticMeanEnergy(0.5), True),
    "linear": (_sine_linear, True),
    "parametrized": (lambda: quadratic_as_parametrized(0.5), True),
    "curved-features": (_curved_features, True),
    "scalar-feature": (_scalar_feature, True),
    "kernel": (lambda: PairwiseKernelEnergy(1.0, 1.0, 0.05), False),
    "kernel-v1=cos": (_cos_perturbed_kernel, False),
}


class TestArrayConvention:
    """Each primitive evaluated at m query rows at once equals its evaluation
    one row (or one pair of rows) at a time: bit for bit where the energy
    has no pair sums, to 1e-12 relative for the kernel."""

    @staticmethod
    def _compare(exact, got, ref):
        assert got.shape == ref.shape
        if exact:
            np.testing.assert_array_equal(got, ref)
        else:
            _assert_rel_close(got, ref)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", list(ARRAY_ENERGIES))
    def test_rows_match_row_by_row(self, name, d):
        build, exact = ARRAY_ENERGIES[name]
        e = build()
        rng = np.random.default_rng(d)
        points = rng.normal(size=(9, d)) * 1.5
        w = rng.random(9) + 0.1
        w /= w.sum()
        xs = rng.normal(size=(6, d)) * 1.5
        ys = rng.normal(size=(4, d)) * 1.5
        rows = [xs[i : i + 1] for i in range(len(xs))]
        for prim in (e._flat, e._grad, e._grad_x_of_Dm):
            got = prim(points, w, xs)
            self._compare(exact, got, np.concatenate([prim(points, w, r) for r in rows]))
        got = e._hess_mm(points, w, xs, ys)
        ref = np.array([[e._hess_mm(points, w, r, ys[j : j + 1])[0, 0] for j in range(len(ys))]
                        for r in rows])
        self._compare(exact, got, ref)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", list(ARRAY_ENERGIES))
    def test_hess_mm_of_a_stack_is_each_configuration_alone(self, name, d):
        # configurations (K, n, d) with shared weights, as the Hessian-block checks take them
        e = ARRAY_ENERGIES[name][0]()
        rng = np.random.default_rng(70 + d)
        x = rng.normal(size=(7, 5, d)) * 1.5
        w = rng.random(5) + 0.1
        w /= w.sum()
        blocks, matrices = e._hess_mm(x, w, x, x), e._hess_mm_matrix(x, w)
        assert blocks.shape == (7, 5, 5, d, d) and matrices.shape == (7, 5 * d, 5 * d)
        for c, got_blocks, got_matrix in zip(x, blocks, matrices):
            np.testing.assert_array_equal(got_blocks, e._hess_mm(c, w, c, c))
            np.testing.assert_array_equal(got_matrix, e._hess_mm_matrix(c, w))

    @pytest.mark.parametrize("d", [1, 2])
    def test_kernel_row_blocks_match_unblocked(self, d):
        n = m = 400
        assert _BLOCK_ENTRIES // n < m / 2  # at least two row blocks
        rng = np.random.default_rng(40 + d)
        points = rng.normal(size=(n, d)) * 2.0
        xs = rng.normal(size=(m, d)) * 2.0
        rhs = rng.normal(size=(n, 1 + d))
        ref = np.exp(-np.sum((xs[:, None, :] - points[None, :, :]) ** 2, axis=-1)) @ rhs
        _assert_rel_close(_gauss_product(xs, points, rhs), ref)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", list(ARRAY_ENERGIES))
    def test_hess_u_n_matches_block_loop(self, name, d):
        e = ARRAY_ENERGIES[name][0]()
        N = 6
        x = np.random.default_rng(60 + d).normal(size=(N, d))
        w = np.full(N, 1.0 / N)
        ref = np.zeros((N * d, N * d))
        for i in range(N):
            for j in range(N):
                blk = e._hess_mm(x, w, x[i : i + 1], x[j : j + 1])[0, 0] / N
                if i == j:
                    blk = blk + e._grad_x_of_Dm(x, w, x[i : i + 1])[0]
                ref[i * d : (i + 1) * d, j * d : (j + 1) * d] = blk
        _assert_rel_close(ParticleSystem(e, N, d).hess_u_n(x), ref)


class _SecondMomentLadder(MeanFieldEnergy):
    """The derivative primitives of F(mu) = int |x|^2 dmu, with no value."""

    declared_lambda = declared_Mmm = 0.0

    def _flat(self, points, weights, xs):
        return np.sum(xs * xs, axis=1)

    def _grad(self, points, weights, xs):
        return 2.0 * xs

    def _hess_mm(self, points, weights, xs, ys):
        return np.zeros((len(xs), len(ys)) + 2 * xs.shape[1:])

    def _grad_x_of_Dm(self, points, weights, xs):
        return np.tile(2.0 * np.eye(xs.shape[1]), (len(xs), 1, 1))


class _SecondMoment(_SecondMomentLadder):
    """F(mu) = int |x|^2 dmu, defining only the abstract primitives."""

    def _eval_batch(self, points, weights):
        return np.sum(weights * np.sum(points * points, axis=-1), axis=-1)


def _unit_weights(rng, *shape):
    w = rng.random(shape) + 0.1
    return w / w.sum(axis=-1, keepdims=True)


class TestEvalBatch:
    """`_eval_batch` at K measures equals `_eval` at each of them, bit for bit:
    K weight rows over shared atoms (mixtures) and K atom sets with shared
    weights (configurations)."""

    K, n = 7, 6

    def _batches(self, d, n):
        rng = np.random.default_rng(70 + d)
        points = rng.normal(size=(n, d)) * 1.5
        weights = _unit_weights(rng, self.K, n)
        yield points, weights, [(points, w) for w in weights]
        configs = rng.normal(size=(self.K, n, d)) * 1.5
        w = _unit_weights(rng, n)
        yield configs, w, [(x, w) for x in configs]

    # n = 6 lies below the 8-term unroll of the BLAS dot and of numpy's
    # pairwise sum, 9 and 257 above it
    @pytest.mark.parametrize("n", [6, 9, 257])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", list(ARRAY_ENERGIES))
    def test_batch_equals_per_measure_loop(self, name, d, n):
        e = ARRAY_ENERGIES[name][0]()
        assert type(e)._eval_batch is not MeanFieldEnergy._eval_batch
        for points, weights, measures in self._batches(d, n):
            got = e._eval_batch(points, weights)
            assert got.shape == (self.K,)
            np.testing.assert_array_equal(got, [e._eval(p, w) for p, w in measures])

    @pytest.mark.parametrize("n", [6, 9, 257])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", list(ARRAY_ENERGIES))
    def test_broadcast_batch_equals_per_measure_loop(self, name, d, n):
        # P pairs' atoms (P, 1, n, d) under T weight rows each (P, T, n), as
        # a group of mixtures; P atom sets each with its own weights; and P
        # atom sets under T weight rows shared by all (T, 1, n)
        e = ARRAY_ENERGIES[name][0]()
        P, T = 5, 4
        rng = np.random.default_rng(80 + d)
        atoms = rng.normal(size=(P, n, d)) * 1.5
        rows = _unit_weights(rng, P, T, n)
        got = e._eval_batch(atoms[:, None], rows)
        assert got.shape == (P, T)
        for p, t in np.ndindex(P, T):
            assert got[p, t] == e._eval(atoms[p], rows[p, t])
        got = e._eval_batch(atoms, rows[:, 0])
        np.testing.assert_array_equal(got, [e._eval(x, w) for x, w in zip(atoms, rows[:, 0])])
        got = e._eval_batch(atoms, rows[0][:, None])
        assert got.shape == (T, P)
        for t, p in np.ndindex(T, P):
            assert got[t, p] == e._eval(atoms[p], rows[0, t])

    @pytest.mark.parametrize(
        "n, P", [(20, 400), (400, 2), (400, 1)], ids=["set-blocks", "row-blocks", "one-set"]
    )
    @pytest.mark.parametrize("perturbed", [False, True], ids=["v1=0", "v1=cos"])
    def test_kernel_broadcast_blocks_equal_per_measure(self, n, P, perturbed):
        # n=20: 163 atom sets a block, so 400 end in a partial third block;
        # n=400 (two 200-atom measures): one set's matrix alone is over the
        # budget, so each set takes row blocks, once for all its weight rows
        e = _cos_perturbed_kernel() if perturbed else PairwiseKernelEnergy(1.0, 1.0, 0.05)
        per = _BLOCK_ENTRIES // (n * n)
        assert (per == 0 and n * n > _BLOCK_ENTRIES) or (P > 2 * per and P % per)
        T = 3
        rng = np.random.default_rng(n + P)
        atoms = rng.normal(size=(P, 1, n, 2)) * 2.0
        rows = _unit_weights(rng, P, T, n)
        got = e._eval_batch(atoms, rows)
        assert got.shape == (P, T)
        for p, t in np.ndindex(P, T):
            assert got[p, t] == e._eval(atoms[p, 0], rows[p, t])

    def test_subclass_without_eval_batch_cannot_be_built(self):
        class _ValueByEval(_SecondMomentLadder):
            def _eval(self, points, weights):
                return float(weights @ np.sum(points * points, axis=1))

        for cls in (_SecondMomentLadder, _ValueByEval):
            with pytest.raises(TypeError, match="_eval_batch"):
                cls()

    @pytest.mark.parametrize("d", [1, 2])
    def test_eval_is_the_one_measure_batch(self, d):
        e = _SecondMoment()
        assert "_eval" not in vars(_SecondMoment)
        for points, weights, measures in self._batches(d, self.n):
            batch = e._eval_batch(points, weights)
            for (p, w), value in zip(measures, batch):
                one = e._eval(p, w)
                assert type(one) is float and one == e._eval_batch(p, w) == value
                assert e.eval(DiscreteMeasure(p, w)) == one
        system = ParticleSystem(e, self.n, d)
        x = points[0]
        assert system.u_n(x) == self.n * e._eval(x, system._w) == system.u_n(x[None])[0]

    @pytest.mark.parametrize("perturbed", [False, True], ids=["v1=0", "v1=cos"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [3, 10, 50])
    def test_kernel_eval_is_the_fused_value(self, N, d, perturbed):
        # the value-only pass shares the fused pass's Gaussian sums, so a
        # U_N recomputed for an observable is the one MALA cached
        e = _cos_perturbed_kernel() if perturbed else PairwiseKernelEnergy(1.0, 1.0, 0.05)
        rng = np.random.default_rng(N + 10 * d)
        x = rng.normal(size=(N, d)) * 1.5
        w = _unit_weights(rng, N)
        assert e._eval(x, w) == e._value_and_grad(x, w)[0]

    @pytest.mark.parametrize("n, K", [(20, 400), (300, 2)], ids=["node-blocks", "row-blocks"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_kernel_blocks_match_unblocked(self, n, K, d):
        # n=20: 163 measures a block, so 400 end in a partial third block;
        # n=300: one measure's matrix alone is over the budget
        per = _BLOCK_ENTRIES // (n * n)
        assert (per == 0 and n * n > _BLOCK_ENTRIES) or (K > 2 * per and K % per)
        rng = np.random.default_rng(n + d)
        configs = rng.normal(size=(K, n, d)) * 2.0
        w = _unit_weights(rng, n)
        rhs = rng.normal(size=(K, n, 1 + d))
        z = configs[:, :, None, :] - configs[:, None, :, :]
        ref = np.exp(-np.sum(z * z, axis=-1)) @ rhs
        _assert_rel_close(_gauss_product(configs, configs, rhs), ref)
        e = PairwiseKernelEnergy(1.0, 1.0, 0.05)
        values = [_kernel_reference(e, x, w)[0] for x in configs]
        _assert_rel_close(e._eval_batch(configs, w), values)


class TestDerivativeLadder:
    """Finite-difference consistency between each level of the ladder."""

    N_INSTANCES = 100

    def test_flat_derivative_vs_mixture_path(self):
        # F((1-h)mu + h delta_x) - F(mu)
        #   = h [dF/dm(mu,x) - int dF/dm dmu] + O(h^2)
        rng = np.random.default_rng(5)
        h = 1e-5
        for e in all_energies():
            for _ in range(self.N_INSTANCES):
                mu = random_measure(rng)
                x = rng.normal() * 1.5
                dirac = empirical([[x]])
                lhs = (e.eval(mix(dirac, mu, h)) - e.eval(mu)) / h
                flat_mu = np.array(
                    [e.flat_derivative(mu, p[0]) for p in mu.points]
                )
                rhs = e.flat_derivative(mu, x) - float(mu.weights @ flat_mu)
                assert abs(lhs - rhs) < 1e-4 * max(1.0, abs(rhs))

    def test_intrinsic_grad_vs_flat_derivative(self):
        rng = np.random.default_rng(6)
        h = 1e-5
        for e in all_energies():
            for _ in range(self.N_INSTANCES):
                mu = random_measure(rng)
                x = rng.normal() * 1.5
                fd = (e.flat_derivative(mu, x + h) - e.flat_derivative(mu, x - h)) / (2 * h)
                grad = e.intrinsic_grad(mu, x)[0]
                assert abs(fd - grad) < 1e-6 * max(1.0, abs(grad))

    def test_grad_un_vs_un(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for e in all_energies():
            system = ParticleSystem(e, 4, 1)
            for _ in range(self.N_INSTANCES // 4):
                x = rng.normal(size=(4, 1))
                grad = system.grad_u_n(x)
                for i in range(4):
                    xp, xm = x.copy(), x.copy()
                    xp[i, 0] += h
                    xm[i, 0] -= h
                    fd = (system.u_n(xp) - system.u_n(xm)) / (2 * h)
                    assert abs(fd - grad[i, 0]) < 1e-5 * max(1.0, abs(grad[i, 0]))

    def test_hess_un_vs_grad_un(self):
        rng = np.random.default_rng(8)
        h = 1e-4
        for e in all_energies():
            for N, d in [(3, 1), (5, 1), (3, 2)]:
                system = ParticleSystem(e, N, d)
                x = rng.normal(size=(N, d))
                H = system.hess_u_n(x)
                np.testing.assert_allclose(H, H.T, atol=1e-10)
                fd = np.zeros_like(H)
                for i in range(N):
                    for k in range(d):
                        xp, xm = x.copy(), x.copy()
                        xp[i, k] += h
                        xm[i, k] -= h
                        fd[:, i * d + k] = (
                            system.grad_u_n(xp) - system.grad_u_n(xm)
                        ).ravel() / (2 * h)
                np.testing.assert_allclose(H, fd, atol=1e-4)


@pytest.mark.parametrize(
    "build",
    [
        lambda nan: QuadraticMeanEnergy(nan),
        lambda nan: PairwiseKernelEnergy(eta=nan),
        lambda nan: PairwiseKernelEnergy(eta=1.0, L=nan),
        lambda nan: PairwiseKernelEnergy(eta=1.0, alpha=nan),
        lambda nan: PairwiseKernelEnergy(eta=1.0, v1_sup=nan),
        lambda nan: ParametrizedEnergy(
            base=LinearPotentialEnergy(v=None, v_grad=None, v_hess=None), alpha_r=nan
        ),
    ],
    ids=["quadratic-a", "kernel-eta", "kernel-L", "kernel-alpha", "kernel-v1_sup", "alpha_r"],
)
def test_nan_parameter_rejected(build):
    with pytest.raises(ValueError):
        build(float("nan"))


@pytest.mark.parametrize("missing", ["v1_grad", "v1_hess"])
def test_a_v1_without_its_derivatives_is_rejected(missing):
    # without them every gradient would raise a TypeError deep in the pair sums
    cos = _cos_perturbed_kernel()
    derivatives = {"v1_grad": cos.v1_grad, "v1_hess": cos.v1_hess}
    del derivatives[missing]
    with pytest.raises(ValueError, match=missing):
        PairwiseKernelEnergy(eta=1.0, v1=cos.v1, v1_sup=0.3, **derivatives)


class TestParticleSystem:
    def test_un_quadratic_values(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 2, 1)
        assert system.u_n([[0.0], [0.0]]) == 0.0
        assert abs(system.u_n([[0.0], [2.0]]) - 1.5) < 1e-14

    def test_un_quadratic_closed_form(self):
        # U_N(x) = |x|^2 / 2 - (a / 2N) (sum x_i)^2
        rng = np.random.default_rng(9)
        a, N = 0.7, 6
        system = ParticleSystem(QuadraticMeanEnergy(a), N, 1)
        for _ in range(20):
            x = rng.normal(size=(N, 1))
            expected = 0.5 * float(np.sum(x**2)) - a / (2 * N) * float(np.sum(x)) ** 2
            assert abs(system.u_n(x) - expected) < 1e-12

    def test_grad_blocks(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 2, 1)
        np.testing.assert_allclose(
            system.grad_u_n([[0.0], [2.0]]).ravel(), [-0.5, 1.5]
        )

    def test_hess_quadratic(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 2, 1)
        H = system.hess_u_n([[0.0], [2.0]])
        np.testing.assert_allclose(H, [[0.75, -0.25], [-0.25, 0.75]])
        np.testing.assert_allclose(np.linalg.eigvalsh(H), [0.5, 1.0])

    @pytest.mark.parametrize("N", [2, 5, 17])
    def test_hess_min_eigenvalue_one_minus_a(self, N):
        a = 0.5
        system = ParticleSystem(QuadraticMeanEnergy(a), N, 1)
        H = system.hess_u_n(np.random.default_rng(10).normal(size=(N, 1)))
        assert abs(np.linalg.eigvalsh(H)[0] - (1 - a)) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        for e in all_energies():
            system = ParticleSystem(e, 5, 1)
            x = rng.normal(size=(5, 1))
            perm = rng.permutation(5)
            g = system.grad_u_n(x)
            np.testing.assert_allclose(system.grad_u_n(x[perm]), g[perm], atol=1e-12)
            P = np.eye(5)[perm]
            H = system.hess_u_n(x)
            np.testing.assert_allclose(system.hess_u_n(x[perm]), P @ H @ P.T, atol=1e-12)

    def test_shape_mismatch(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 2, 1)
        with pytest.raises(ValueError):
            system.u_n([[0.0], [1.0], [2.0]])
        # neither one configuration (N, d) nor a batch (K, N, d): (N+1, d),
        # (d,) and (1, K, N, d)
        for shape in [(3, 1), (1,), (1, 4, 2, 1)]:
            for lift in (system.u_n, system.grad_u_n, system.u_n_and_grad, system.hess_u_n):
                with pytest.raises(ValueError, match=r"configuration shape \("):
                    lift(np.zeros(shape))
        with pytest.raises(ValueError, match=r"not a batch of shape \(3, 2, 1\)"):
            system.hess_u_n(np.zeros((3, 2, 1)))

    def test_u_n_of_a_batch_is_u_n_per_configuration(self):
        rng = np.random.default_rng(12)
        for e in all_energies():
            system = ParticleSystem(e, 5, 2)
            xs = rng.normal(size=(4, 5, 2))
            u = system.u_n(xs)
            assert isinstance(u, np.ndarray) and u.shape == (4,)
            assert all(type(system.u_n(x)) is float for x in xs)
            np.testing.assert_array_equal(u, [system.u_n(x) for x in xs])


class TestBatchedGradients:
    """`_value_and_grad` and `_grad` at the atoms of G configurations (G, N, d)
    with shared weights equal each configuration taken alone, bit for bit,
    and so do their `ParticleSystem` lifts. N=200 takes `_gauss_product`'s
    blocks of one configuration, N=300 its per-set row blocks."""

    G = 4

    @pytest.mark.parametrize("N", [1, 7, 200, 300])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", list(ARRAY_ENERGIES))
    def test_batch_equals_per_configuration_loop(self, name, d, N):
        e = ARRAY_ENERGIES[name][0]()
        per = _BLOCK_ENTRIES // (N * N)
        assert N < 200 or per == (1 if N == 200 else 0)
        rng = np.random.default_rng(N + 10 * d)
        xs = rng.normal(size=(self.G, N, d)) * 1.5
        w = _unit_weights(rng, N)
        values, grads = e._value_and_grad(xs, w)
        assert values.shape == (self.G,) and grads.shape == xs.shape
        np.testing.assert_array_equal(e._grad(xs, w, xs), grads)
        for x, value, grad in zip(xs, values, grads):
            one_value, one_grad = e._value_and_grad(x, w)
            assert type(one_value) is float and one_value == value
            np.testing.assert_array_equal(one_grad, grad)
            np.testing.assert_array_equal(e._grad(x, w, x), grad)

        system = ParticleSystem(e, N, d)
        u, grad_u = system.u_n_and_grad(xs)
        np.testing.assert_array_equal(system.grad_u_n(xs), grad_u)
        np.testing.assert_array_equal(system.u_n(xs), u)
        for x, value, grad in zip(xs, u, grad_u):
            one_value, one_grad = system.u_n_and_grad(x)
            assert one_value == value
            np.testing.assert_array_equal(one_grad, grad)
            np.testing.assert_array_equal(system.grad_u_n(x), grad)

    # the quadratic energy's one-configuration path at d = 1 takes the mean
    # as one Python float; off the atoms too, it equals the batch path
    @pytest.mark.parametrize("M", [1, 5])
    @pytest.mark.parametrize("N", [1, 7, 300])
    def test_quadratic_d1_grad_off_the_atoms(self, N, M):
        e = QuadraticMeanEnergy(0.7)
        rng = np.random.default_rng([N, M])
        points = rng.normal(size=(self.G, N, 1)) * 1.5
        xs = rng.normal(size=(self.G, M, 1)) * 3.0
        w = _unit_weights(rng, N)
        batch = e._grad(points, w, xs)
        assert batch.shape == xs.shape
        for p, x, g in zip(points, xs, batch):
            np.testing.assert_array_equal(e._grad(p, w, x), g)
            np.testing.assert_array_equal(x - e.a * (w @ p), g)

    # x.x is formed before m.m: squares that overflow raise alone and in a batch
    @pytest.mark.parametrize("N", [1, 3])
    def test_quadratic_d1_square_overflow_raises(self, N):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), N, 1)
        x = np.full((N, 1), 0.5)
        x[-1, 0] = 1e200
        with np.errstate(over="raise"):
            for config in (x, np.stack([np.zeros_like(x), x])):
                with pytest.raises(FloatingPointError, match="overflow"):
                    system.u_n_and_grad(config)

    def test_batch_shape_checked(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 2, 1)
        for lift in (system.u_n, system.grad_u_n, system.u_n_and_grad):
            with pytest.raises(ValueError, match="configuration shape"):
                lift(np.zeros((3, 2, 2)))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("name", list(ARRAY_ENERGIES))
    def test_empty_batch_rejected(self, name, d):
        system = ParticleSystem(ARRAY_ENERGIES[name][0](), 3, d)
        for lift in (system.u_n, system.grad_u_n, system.u_n_and_grad):
            with pytest.raises(ValueError, match=rf"configuration shape \(0, 3, {d}\)"):
                lift(np.zeros((0, 3, d)))

    @pytest.mark.parametrize("G, N", [(300, 15), (3, 300)], ids=["set-blocks", "row-blocks"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("perturbed", [False, True], ids=["v1=0", "v1=cos"])
    def test_kernel_query_rows_count_by_value(self, G, N, d, perturbed):
        # an equal copy of the atoms as query rows takes the same product as
        # the atoms themselves: 300 sets of 15 fill more than one block of
        # sets; one set of 300 atoms alone is over the budget, so takes rows
        per = _BLOCK_ENTRIES // (N * N)
        assert G > per > 0 or N > _BLOCK_ENTRIES // N
        e = _cos_perturbed_kernel() if perturbed else PairwiseKernelEnergy(1.0, 1.0, 0.05)
        rng = np.random.default_rng(G + N + d)
        x = rng.normal(size=(G, N, d)) * 1.5
        w = _unit_weights(rng, N)
        grad = e._grad(x, w, x)
        np.testing.assert_array_equal(e._grad(x, w, x.copy()), grad)
        for one, one_grad in zip(x, grad):
            np.testing.assert_array_equal(e._grad(one, w, one), one_grad)
            np.testing.assert_array_equal(e._grad(one, w, one.copy()), one_grad)
        np.testing.assert_array_equal(e._flat(x[0], w, x[0].copy()), e._flat(x[0], w, x[0]))


class TestBlockBudget:
    """The Gaussian pair products are formed in blocks of at most
    _BLOCK_ENTRIES entries, so a call's peak memory stays near the size of
    its inputs and outputs: unblocked, the three calls below would hold
    128 MB, 72 MB and 13 MB of pair matrices."""

    @staticmethod
    def _peak_mb(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_flat_on_a_grid_at_a_copy_of_its_nodes(self):
        e = PairwiseKernelEnergy(1.0, 1.0, 0.05)
        nodes = np.linspace(-8.0, 8.0, 4001)[:, None]
        w = np.full(len(nodes), 1.0 / len(nodes))
        assert self._peak_mb(lambda: e._flat(nodes, w, nodes.copy())) < 3.0

    def test_u_n_and_grad_of_one_configuration(self):
        system = ParticleSystem(PairwiseKernelEnergy(1.0, 1.0, 0.05), 3000, 1)
        x = np.random.default_rng(3).normal(size=(3000, 1)) * 2.0
        assert self._peak_mb(lambda: system.u_n_and_grad(x)) < 3.0

    def test_value_and_grad_of_a_batch(self):
        e = PairwiseKernelEnergy(1.0, 1.0, 0.05)
        x = np.random.default_rng(4).normal(size=(2000, 20, 2)) * 2.0
        w = np.full(20, 1.0 / 20)
        assert self._peak_mb(lambda: e._value_and_grad(x, w)) < 8.0


def _grid_weights(kind, x):
    """Weights summing to one on the uniform nodes x: a point mass, uniform
    weights, or the trapezoid weights of a Gaussian density a quarter of the
    span wide, as the proximal-Gibbs fixed point carries."""
    if kind == "point-mass":
        w = np.zeros(len(x))
        w[len(x) // 3] = 1.0
    elif kind == "uniform":
        w = np.ones(len(x))
    else:
        w = np.exp(-0.5 * (8.0 * x / (x[-1] - x[0])) ** 2)
        w[[0, -1]] *= 0.5
    return w / w.sum()


class TestFlatOnGrid:
    """`_flat_on_grid`, the flat derivative of a grid measure at its own
    nodes, against the exact `_flat` there."""

    # on [-400, 400] the Gaussian pair kernel underflows between most nodes
    @pytest.mark.parametrize("span", [8.0, 400.0], ids=["span=16", "span=800"])
    @pytest.mark.parametrize("kind", ["point-mass", "uniform", "fixed-point"])
    @pytest.mark.parametrize("n", [3, 4, 401, 1201])
    def test_kernel_fft_sum_matches_the_exact_product(self, n, kind, span):
        e = _cos_perturbed_kernel()
        x = np.linspace(-span, span, n)
        w = _grid_weights(kind, x)
        exact = e._flat(x[:, None], w, x[:, None])
        assert np.max(np.abs(e._flat_on_grid(x, w) - exact)) <= 1e-13 * np.max(np.abs(exact))
        # the Gaussian sums alone, each at most one
        gauss = _gauss_product(x[:, None], x[:, None], w[:, None])[:, 0]
        assert np.max(np.abs(_gauss_toeplitz(2.0 * span / (n - 1), w) - gauss)) <= 1e-13

    @pytest.mark.parametrize("n", [3, 4, 401])
    def test_kernel_fft_sum_is_the_uncached_transform(self, n):
        # the cached Gaussian spectrum gives the bits of transforming it anew
        x = np.linspace(-8.0, 8.0, n)
        h = (x[-1] - x[0]) / (n - 1)
        w = _grid_weights("uniform", x)
        size = 1 << (2 * n - 2).bit_length()
        column = np.zeros(size)
        column[:n] = np.exp(-np.square(np.arange(n) * h))
        column[size - n + 1 :] = column[n - 1 : 0 : -1]
        want = np.fft.irfft(np.fft.rfft(column) * np.fft.rfft(w, size), size)[:n]
        _gauss_spectrum.cache_clear()
        for _ in range(2):  # a miss, then a hit
            assert np.array_equal(_gauss_toeplitz(h, w), want)
        with pytest.raises(ValueError, match="read-only"):
            _gauss_spectrum(n, h)[0] = 0.0

    def test_fixed_point_transforms_each_grid_once(self):
        _gauss_spectrum.cache_clear()
        result = proximal_gibbs_fixed_point(_cos_perturbed_kernel(), -8.0, 8.0, 101)
        info = _gauss_spectrum.cache_info()
        assert info.misses == 2  # the grid and its refinement
        assert info.hits >= result.iterations - 1

    @pytest.mark.parametrize(
        "build", [lambda: QuadraticMeanEnergy(0.5), lambda: quadratic_as_parametrized(0.5)],
        ids=["quadratic", "parametrized"],
    )
    def test_other_energies_take_the_exact_flat(self, build):
        e = build()
        x = np.linspace(-8.0, 8.0, 401)
        w = _grid_weights("fixed-point", x)
        np.testing.assert_array_equal(e._flat_on_grid(x, w), e._flat(x[:, None], w, x[:, None]))


def _counting(energy, counts):
    """A copy of energy, its base's callables included, in which each user
    callable adds one to counts[its field name] per call."""

    def counted(name, fn):
        def call(x):
            counts[name] = counts.get(name, 0) + 1
            return fn(x)

        return call

    changes = {}
    for f in fields(energy):
        value = getattr(energy, f.name)
        if isinstance(value, MeanFieldEnergy):
            changes[f.name] = _counting(value, counts)
        elif callable(value):
            changes[f.name] = counted(f.name, value)
    return replace(energy, **changes)


class TestCallables:
    """The user callables take arrays of rows: a primitive calls each of them
    once, on all its rows, however many measures or query rows it is given."""

    @pytest.mark.parametrize(
        "build",
        [lambda: quadratic_as_parametrized(0.5), _curved_features, _cos_perturbed_kernel],
        ids=["parametrized", "curved-features", "kernel-v1=cos"],
    )
    def test_calls_do_not_grow_with_the_rows(self, build):
        n, d, K = 6, 2, 3
        rng = np.random.default_rng(90)
        points = rng.normal(size=(n, d)) * 1.5
        w = _unit_weights(rng, n)

        def calls(size):
            atoms = rng.normal(size=(size, 1, n, d)) * 1.5
            rows = _unit_weights(rng, size, K, n)
            xs = rng.normal(size=(size, d)) * 1.5
            per_primitive = []
            for call in (
                lambda e: e._eval_batch(atoms, rows),
                lambda e: e._flat(points, w, xs),
                lambda e: e._grad(points, w, xs),
            ):
                counts = {}
                call(_counting(build(), counts))
                assert counts
                per_primitive.append(counts)
            return per_primitive

        assert calls(1) == calls(50)

    @pytest.mark.parametrize("d", [1, 2])
    def test_quadratic_parametrized_returns_no_view_of_its_input(self, d):
        e = quadratic_as_parametrized(0.5)
        rng = np.random.default_rng(91 + d)
        points = rng.normal(size=(7, d))
        w = _unit_weights(rng, 7)
        configs = rng.normal(size=(3, 7, d))
        xs = rng.normal(size=(5, d))
        for p, q in ((points, xs), (points, points), (configs, configs)):
            for got in (e.base._grad(p, w, q), e._grad(p, w, q), e._flat(points, w, xs)):
                assert not np.shares_memory(got, p) and not np.shares_memory(got, q)
