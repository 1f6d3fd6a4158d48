import numpy as np
import pytest

from mfgibbs.energies import (
    _BLOCK_ENTRIES,
    LinearPotentialEnergy,
    PairwiseKernelEnergy,
    ParametrizedEnergy,
    ParticleSystem,
    QuadraticMeanEnergy,
)
from mfgibbs.measures import DiscreteMeasure, empirical, mix
from mfgibbs.energies import _gauss_matmul, quadratic_as_parametrized


def random_measure(rng, d=1, max_atoms=5):
    n = int(rng.integers(1, max_atoms + 1))
    w = rng.random(n) + 0.1
    return DiscreteMeasure(rng.normal(size=(n, d)) * 1.5, w / w.sum())


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
            v=lambda x: 0.5 * float(x @ x),
            v_grad=lambda x: np.asarray(x, float),
            v_hess=lambda x: np.eye(len(x)),
        )
        par = ParametrizedEnergy(
            base=base,
            phi=lambda x: np.asarray(x, float),
            phi_jac=lambda x: np.eye(len(x)),
            phi_lip=1.0,
            r=lambda m: 0.0,
            r_grad=lambda m: np.zeros_like(np.atleast_1d(m)),
            r_hess=lambda m: np.zeros((len(np.atleast_1d(m)),) * 2),
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
        v1=lambda x: 0.3 * float(np.cos(x[0])),
        v1_grad=lambda x: np.eye(len(x))[0] * (-0.3 * np.sin(x[0])),
        v1_hess=lambda x: np.diag(np.eye(len(x))[0]) * (-0.3 * np.cos(x[0])),
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
        linear = LinearPotentialEnergy(
            v=lambda x: 0.5 * float(x @ x) + float(np.sin(x[0])),
            v_grad=lambda x: x + np.eye(len(x))[0] * np.cos(x[0]),
            v_hess=lambda x: np.eye(len(x)) - np.diag(np.eye(len(x))[0]) * np.sin(x[0]),
        )
        rng = np.random.default_rng(d)
        for e in (QuadraticMeanEnergy(0.5), linear, quadratic_as_parametrized(0.5)):
            for N in (1, 7, 200):
                x = rng.normal(size=(N, d)) * 1.5
                w = np.full(N, 1.0 / N)
                value, grad = e._value_and_grad(x, w)
                assert value == e._eval(x, w)
                np.testing.assert_array_equal(grad, e._grad(x, w, x))
                _assert_rel_close(grad, np.stack([e._grad(x, w, xi[None])[0] for xi in x]))


def _sine_linear():
    return LinearPotentialEnergy(
        v=lambda x: 0.5 * float(x @ x) + float(np.sin(x[0])),
        v_grad=lambda x: x + np.eye(len(x))[0] * np.cos(x[0]),
        v_hess=lambda x: np.eye(len(x)) - np.diag(np.eye(len(x))[0]) * np.sin(x[0]),
    )


def _curved_features():
    """Parametrized energy with the non-affine features (sin x_0, |x|^2)."""
    return ParametrizedEnergy(
        base=_sine_linear(),
        phi=lambda x: np.array([np.sin(x[0]), float(x @ x)]),
        phi_jac=lambda x: np.stack([np.eye(len(x))[0] * np.cos(x[0]), 2.0 * x]),
        phi_hess=lambda x: np.stack(
            [-np.diag(np.eye(len(x))[0]) * np.sin(x[0]), 2.0 * np.eye(len(x))]
        ),
        r=lambda m: 0.5 * float(m @ m),
        r_grad=lambda m: np.asarray(m, float),
        r_hess=lambda m: np.eye(2),
        r_hess_bound=1.0,
    )


ARRAY_ENERGIES = {
    "quadratic": (lambda: QuadraticMeanEnergy(0.5), True),
    "linear": (_sine_linear, True),
    "parametrized": (lambda: quadratic_as_parametrized(0.5), True),
    "curved-features": (_curved_features, True),
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
    def test_kernel_row_blocks_match_unblocked(self, d):
        n = m = 400
        assert _BLOCK_ENTRIES // n < m / 2  # at least two row blocks
        rng = np.random.default_rng(40 + d)
        points = rng.normal(size=(n, d)) * 2.0
        xs = rng.normal(size=(m, d)) * 2.0
        rhs = rng.normal(size=(n, 1 + d))
        ref = np.exp(-np.sum((xs[:, None, :] - points[None, :, :]) ** 2, axis=-1)) @ rhs
        _assert_rel_close(_gauss_matmul(xs, points, rhs), ref)

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
