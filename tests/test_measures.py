import itertools
import signal

import numpy as np
import pytest

from mfgibbs.measures import (
    DiscreteMeasure,
    UnsupportedTransportError,
    empirical,
    mix,
    mixture_atoms,
    stack_atoms,
    w2_squared,
)


def brute_force_w2_uniform(xs, ys):
    """Oracle: minimum over all permutations of the assignment cost."""
    xs = np.atleast_2d(np.asarray(xs, float))
    ys = np.atleast_2d(np.asarray(ys, float))
    n = xs.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(float(np.sum((xs[i] - ys[perm[i]]) ** 2)) for i in range(n)) / n
        best = min(best, cost)
    return best


class TestEmpirical:
    def test_two_points(self):
        mu = empirical([[0.0], [2.0]])
        assert mu.n_atoms == 2
        np.testing.assert_allclose(mu.weights, [0.5, 0.5])

    def test_duplicates_kept(self):
        mu = empirical([[1.0], [1.0], [1.0]])
        assert mu.n_atoms == 3
        np.testing.assert_allclose(mu.weights, [1 / 3] * 3)

    def test_2d(self):
        mu = empirical([[0.0, 0.0], [1.0, 1.0]])
        assert mu.dim == 2
        np.testing.assert_allclose(mu.weights, [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical(np.empty((0, 1)))


class TestInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0]], [0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0], [1.0]], [1.5, -0.5])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[np.nan]], [1.0])

    @pytest.mark.parametrize("w", [[np.nan, 1.0], [np.nan, np.nan], [np.inf, 1.0]])
    def test_nonfinite_weight_rejected(self, w):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0], [1.0]], w)

    def test_nan_weight_cannot_stall_w2(self):
        # a NaN weight that got in made the quantile merge loop spin forever
        def stop(signum, frame):
            raise TimeoutError("w2_squared did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError):
                mu = DiscreteMeasure([[0.0], [1.0]], [np.nan, 1.0])
                w2_squared(mu, DiscreteMeasure([[0.0]], [1.0]))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_immutable(self):
        mu = empirical([[0.0], [2.0]])
        with pytest.raises(ValueError):
            mu.points[0, 0] = 5.0

    def test_callers_arrays_stay_writable(self):
        # the measure keeps copies: the caller's arrays stay writable, and
        # writing to them leaves the measure as it was built
        x, w = np.zeros((3, 1)), np.full(3, 1.0 / 3.0)
        y = np.array([[0.0], [2.0]])
        mu, nu = DiscreteMeasure(x, w), empirical(y)
        assert x.flags.writeable and w.flags.writeable and y.flags.writeable
        x[0, 0], w[:] = 5.0, [1.0, 0.0, 0.0]
        y[0, 0] = 5.0
        np.testing.assert_array_equal(mu.points, np.zeros((3, 1)))
        np.testing.assert_array_equal(mu.weights, np.full(3, 1.0 / 3.0))
        np.testing.assert_array_equal(nu.points, [[0.0], [2.0]])
        assert not (mu.points.flags.writeable or mu.weights.flags.writeable)


class TestMix:
    def test_diracs(self):
        out = mix(empirical([[0.0]]), empirical([[2.0]]), 0.5)
        np.testing.assert_allclose(sorted(out.points[:, 0]), [0.0, 2.0])
        np.testing.assert_allclose(out.weights, [0.5, 0.5])

    def test_t_zero_is_nu(self):
        mu = empirical([[0.0]])
        nu = empirical([[1.0], [3.0]])
        out = mix(mu, nu, 0.0)
        np.testing.assert_allclose(out.points, nu.points)
        np.testing.assert_allclose(out.weights, nu.weights)

    def test_weight_arithmetic(self):
        out = mix(empirical([[0.0], [1.0]]), empirical([[2.0]]), 0.5)
        np.testing.assert_allclose(sorted(out.points[:, 0]), [0.0, 1.0, 2.0])
        np.testing.assert_allclose(sorted(out.weights), [0.25, 0.25, 0.5])

    def test_t_out_of_range(self):
        mu = empirical([[0.0]])
        with pytest.raises(ValueError):
            mix(mu, mu, 1.5)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            mix(empirical([[0.0]]), empirical([[0.0, 0.0]]), 0.5)

    def test_mixture_atoms_one_weight_row_per_t(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.25, 0.75])
        nu = empirical([[2.0]])
        t = (0.0, 0.5, 1.0)
        points, weights = mixture_atoms(mu, nu, t)
        np.testing.assert_array_equal(points, [[0.0], [1.0], [2.0]])
        assert weights.shape == (3, 3)  # an atom of weight zero keeps its column
        np.testing.assert_allclose(weights, [[0, 0, 1], [0.125, 0.375, 0.5], [0.25, 0.75, 0]])
        for ti, row in zip(t, weights):
            out = mix(mu, nu, ti)
            np.testing.assert_array_equal(out.weights, row[row > 0])
        with pytest.raises(ValueError):
            mixture_atoms(mu, nu, (0.5, float("nan")))

    @pytest.mark.parametrize("d", [1, 2])
    def test_mixture_atoms_of_pairs_are_each_pairs_own(self, d):
        rng = np.random.default_rng(d)

        def draw(n):
            w = rng.random(n) + 0.1
            return DiscreteMeasure(rng.normal(size=(n, d)), w / w.sum())

        mus, nus = [draw(2) for _ in range(4)], [draw(3) for _ in range(4)]
        t = (0.0, 0.3, 1.0)
        points, weights = mixture_atoms(mus, nus, t)
        assert points.shape == (4, 1, 5, d) and weights.shape == (4, 3, 5)
        for i, (mu, nu) in enumerate(zip(mus, nus)):
            one_points, one_weights = mixture_atoms(mu, nu, t)
            np.testing.assert_array_equal(points[i, 0], one_points)
            np.testing.assert_array_equal(weights[i], one_weights)
        assert stack_atoms(mus)[0].shape == (4, 2, d)
        with pytest.raises(ValueError, match="dimension mismatch"):
            mixture_atoms(mus, [empirical(np.zeros((3, d + 1)))] * 4, t)


class TestW2:
    def test_identical(self):
        mu = empirical([[0.0], [2.0]])
        assert w2_squared(mu, mu) == 0.0

    def test_shifted_pair_matches_brute_force(self):
        mu = empirical([[0.0], [2.0]])
        nu = empirical([[1.0], [3.0]])
        expected = brute_force_w2_uniform([[0.0], [2.0]], [[1.0], [3.0]])
        assert expected == 1.0
        assert abs(w2_squared(mu, nu) - expected) < 1e-12

    def test_quantile_split(self):
        # half the mass of a Dirac moves distance 2: cost 0.5 * 4
        mu = empirical([[0.0]])
        nu = DiscreteMeasure([[0.0], [2.0]], [0.5, 0.5])
        assert abs(w2_squared(mu, nu) - 2.0) < 1e-12

    def test_dirac_pairs_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.normal(size=2)
            assert w2_squared(empirical([[x]]), empirical([[y]])) == (x - y) ** 2

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            mu = random_measure(rng)
            nu = random_measure(rng)
            assert abs(w2_squared(mu, nu) - w2_squared(nu, mu)) < 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            mu, nu, pi = (random_measure(rng) for _ in range(3))
            d = lambda a, b: np.sqrt(w2_squared(a, b))
            assert d(mu, nu) <= d(mu, pi) + d(pi, nu) + 1e-9

    def test_quantile_agrees_with_assignment_in_1d(self):
        # uniform equal-size instances admit both routes
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            xs = rng.normal(size=(n, 1))
            ys = rng.normal(size=(n, 1))
            quantile = w2_squared(empirical(xs), empirical(ys))
            if n <= 6:
                assert abs(quantile - brute_force_w2_uniform(xs, ys)) < 1e-10

    def test_d2_assignment(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            xs = rng.normal(size=(n, 2))
            ys = rng.normal(size=(n, 2))
            got = w2_squared(empirical(xs), empirical(ys))
            assert abs(got - brute_force_w2_uniform(xs, ys)) < 1e-10

    def test_unsupported_instance(self):
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.3, 0.7])
        nu = empirical([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(UnsupportedTransportError):
            w2_squared(mu, nu)


def random_measure(rng, d=1):
    n = int(rng.integers(1, 6))
    w = rng.random(n) + 0.1
    return DiscreteMeasure(rng.normal(size=(n, d)), w / w.sum())
