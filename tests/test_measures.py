import itertools
import signal

import numpy as np
import pytest

from mfgibbs.measures import (
    DiscreteMeasure,
    UnsupportedTransportError,
    check_atoms,
    empirical,
    mix,
    mixture_atoms,
    w2_squared,
    w2_squared_pairs,
)


def stack(measures):
    """The stack (points (P, n, d), weights (P, n)) of P measures of n atoms each."""
    return np.stack([m.points for m in measures]), np.stack([m.weights for m in measures])


def atoms_of(m):
    """The atoms (points, weights) of one measure."""
    return m.points, m.weights


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


def merge_loop_w2(mu, nu):
    """Oracle for W2^2 on the line: the quantile coupling, merging the two
    CDFs' breakpoints one at a time."""
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


class TestEmpirical:
    def test_two_points(self):
        mu = empirical([[0.0], [2.0]])
        assert mu.points.shape[0] == 2
        np.testing.assert_allclose(mu.weights, [0.5, 0.5])

    def test_duplicates_kept(self):
        mu = empirical([[1.0], [1.0], [1.0]])
        assert mu.points.shape[0] == 3
        np.testing.assert_allclose(mu.weights, [1 / 3] * 3)

    def test_2d(self):
        mu = empirical([[0.0, 0.0], [1.0, 1.0]])
        assert mu.points.shape[1] == 2
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
        points, weights = mixture_atoms(atoms_of(mu), atoms_of(nu), t)
        np.testing.assert_array_equal(points, [[0.0], [1.0], [2.0]])
        assert weights.shape == (3, 3)  # an atom of weight zero keeps its column
        np.testing.assert_allclose(weights, [[0, 0, 1], [0.125, 0.375, 0.5], [0.25, 0.75, 0]])
        for ti, row in zip(t, weights):
            out = mix(mu, nu, ti)
            np.testing.assert_array_equal(out.weights, row[row > 0])
        with pytest.raises(ValueError):
            mixture_atoms(atoms_of(mu), atoms_of(nu), (0.5, float("nan")))

    @pytest.mark.parametrize("d", [1, 2])
    def test_mixture_atoms_of_pairs_are_each_pairs_own(self, d):
        rng = np.random.default_rng(d)

        def draw(n):
            w = rng.random(n) + 0.1
            return DiscreteMeasure(rng.normal(size=(n, d)), w / w.sum())

        mus, nus = [draw(2) for _ in range(4)], [draw(3) for _ in range(4)]
        t = (0.0, 0.3, 1.0)
        points, weights = mixture_atoms(stack(mus), stack(nus), t)
        assert points.shape == (4, 1, 5, d) and weights.shape == (4, 3, 5)
        for i, (mu, nu) in enumerate(zip(mus, nus)):
            one_points, one_weights = mixture_atoms(atoms_of(mu), atoms_of(nu), t)
            np.testing.assert_array_equal(points[i, 0], one_points)
            np.testing.assert_array_equal(weights[i], one_weights)
        with pytest.raises(ValueError, match="dimension mismatch"):
            mixture_atoms(stack(mus), stack([empirical(np.zeros((3, d + 1)))] * 4), t)


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


def weighted(rng, n, zeros=0, duplicates=False):
    """A random measure on the line with n atoms, `zeros` of them of weight zero."""
    points = rng.normal(size=(n, 1)) * 2.0
    if duplicates:
        points = rng.choice(points[: max(1, n // 2)], size=n)
    w = rng.random(n) + 0.05
    w[rng.permutation(n)[:zeros]] = 0.0
    return DiscreteMeasure(points, w / w.sum())


def off_total(mu, scale):
    """mu with its weights scaled: a total up to 1e-12 away from one."""
    return DiscreteMeasure(mu.points, mu.weights * scale)


class TestW2Pairs:
    """The array pass against the merge loop, over stacks of P pairs with
    atom counts n != m and the instances that trip a breakpoint merge."""

    @staticmethod
    def check(mus, nus):
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # as under the CLI
            got = w2_squared_pairs(stack(mus), stack(nus))
        assert got.shape == (len(mus),) and np.all(np.isfinite(got))
        want = [merge_loop_w2(mu, nu) for mu, nu in zip(mus, nus)]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
        return got

    @pytest.mark.parametrize("n, m", [(1, 3), (2, 5), (4, 1), (6, 2), (3, 4), (7, 7)])
    def test_random_groups(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        self.check([weighted(rng, n) for _ in range(60)], [weighted(rng, m) for _ in range(60)])

    @pytest.mark.parametrize("n, m", [(3, 3), (3, 6), (4, 2), (5, 10)])
    def test_tied_breakpoints(self, n, m):
        # uniform weights: the CDFs share breakpoints at multiples of 1/max(n, m)
        rng = np.random.default_rng(n * m)
        mus = [empirical(rng.normal(size=(n, 1))) for _ in range(30)]
        nus = [empirical(rng.normal(size=(m, 1))) for _ in range(30)]
        self.check(mus, nus)
        self.check(mus, mus)  # identical pairs: zero
        np.testing.assert_array_equal(w2_squared_pairs(*[stack(mus)] * 2), 0.0)

    def test_duplicate_atoms(self):
        rng = np.random.default_rng(41)
        mus = [weighted(rng, 5, duplicates=True) for _ in range(40)]
        nus = [weighted(rng, 3, duplicates=True) for _ in range(40)]
        assert any(len(np.unique(mu.points)) < mu.points.shape[0] for mu in mus)
        self.check(mus, nus)

    def test_zero_weight_atoms(self):
        rng = np.random.default_rng(42)
        mus = [weighted(rng, 5, zeros=2) for _ in range(40)]
        nus = [weighted(rng, 4, zeros=int(k % 4)) for k in range(40)]
        self.check(mus, nus)
        # a zero-weight atom far away moves nothing
        far = DiscreteMeasure([[0.0], [1e3]], [1.0, 0.0])
        assert w2_squared(far, empirical([[1.0]])) == 1.0

    @pytest.mark.parametrize("s_mu, s_nu", [(1 + 9e-13, 1 - 9e-13), (1 - 9e-13, 1 + 9e-13),
                                            (1 + 9e-13, 1 + 9e-13), (1 - 9e-13, 1.0)])
    def test_totals_off_by_round_off(self, s_mu, s_nu):
        rng = np.random.default_rng(43)
        mus = [off_total(weighted(rng, 4), s_mu) for _ in range(40)]
        nus = [off_total(weighted(rng, 3), s_nu) for _ in range(40)]
        self.check(mus, nus)

    def test_one_pair_is_the_one_row_stack(self):
        rng = np.random.default_rng(44)
        for n, m in [(1, 1), (1, 4), (5, 2), (6, 6)]:
            mus = [weighted(rng, n, zeros=n // 3) for _ in range(5)]
            nus = [weighted(rng, m) for _ in range(5)]
            stacked = self.check(mus, nus)
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                alone = [w2_squared(mu, nu) for mu, nu in zip(mus, nus)]
            np.testing.assert_array_equal(alone, stacked)  # bit for bit

    def test_dimension_mismatch(self):
        mus = stack([empirical([[0.0]])])
        with pytest.raises(UnsupportedTransportError, match="dimension mismatch"):
            w2_squared_pairs(mus, stack([empirical([[0.0, 1.0]])]))


def corrupt(points, weights, fault):
    """One measure's atoms with one fault of those a measure must not have."""
    points, weights = points.copy(), weights.copy()
    if fault == "non-finite atom":
        points[1, 0] = np.inf
    elif fault == "negative weight":
        weights[:2] = weights[0] + weights[1], -weights[1]
    elif fault == "NaN weight":
        weights[0] = np.nan
    else:  # the sum off by more than 1e-12
        weights *= 1.0 + 3e-12
    return points, weights


class TestCheckAtoms:
    FAULTS = ["non-finite atom", "negative weight", "NaN weight", "sum off"]

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("bad", [0, 3, 6])
    def test_one_bad_measure_raises_its_own_message(self, fault, bad):
        rng = np.random.default_rng(50)
        atoms = [(m.points, m.weights) for m in (weighted(rng, 3) for _ in range(7))]
        atoms[bad] = corrupt(*atoms[bad], fault)
        with pytest.raises(ValueError) as alone:
            DiscreteMeasure(*atoms[bad])
        points, weights = (np.stack(a) for a in zip(*atoms))
        with pytest.raises(ValueError) as stacked:
            check_atoms(points, weights)
        assert str(stacked.value) == str(alone.value)

    def test_leading_axes(self):
        rng = np.random.default_rng(51)
        points = rng.normal(size=(2, 3, 4, 1))
        weights = rng.random((2, 3, 4)) + 0.05
        weights /= weights.sum(axis=-1, keepdims=True)
        check_atoms(points, weights)
        weights[1, 2, 0] = -0.1
        with pytest.raises(ValueError, match="negative or NaN weights"):
            check_atoms(points, weights)
        with pytest.raises(ValueError, match="equal length"):
            check_atoms(points, weights[..., :3])
        with pytest.raises(ValueError, match="at least one atom"):
            check_atoms(points[..., :0, :], weights[..., :0])
