import numpy as np
from test_measures import merge_loop_w2

from mfgibbs import bounds, verify
from mfgibbs.cli import main
from mfgibbs.energies import QuadraticMeanEnergy, quadratic_as_parametrized
from mfgibbs.measures import DiscreteMeasure, empirical, mix

# The reference below builds every measure as a DiscreteMeasure and takes one
# pair and one mixture at a time, with the merge loop as its W2^2 and the
# parametrized cost from the feature map atom by atom: it shares neither the
# stacks, nor the array W2^2, nor the batched deficits with the suite.


def random_measure(rng):
    """A random measure on the line, drawn as the curvature suite draws its atoms."""
    n = int(rng.integers(1, 7))
    w = rng.random(n) + 0.05
    return DiscreteMeasure(rng.normal(size=(n, 1)) * 2.0, w / w.sum())


def draw_pairs(rng, count):
    return [(random_measure(rng), random_measure(rng)) for _ in range(count)]


def per_pair_deficits(energy, pairs, penalty_of):
    """The worst deficit of each pair, one pair and one mixture at a time."""
    deficits = []
    for mu, nu in pairs:
        f_mu, f_nu = energy.eval(mu), energy.eval(nu)
        penalty = penalty_of(mu, nu)
        deficits.append(max(
            energy.eval(mix(mu, nu, t)) - t * f_mu - (1.0 - t) * f_nu - t * (1.0 - t) * penalty
            for t in bounds.DEFAULT_T_GRID
        ))
    return deficits


def semi(lam):
    return lambda mu, nu: 0.5 * lam * merge_loop_w2(nu, mu)


def feature_cost(par):
    """alpha_r |int phi d(nu - mu)|^2 from the feature map, one atom at a time."""

    def cost(mu, nu):
        mean = lambda m: m.weights @ np.array([par.phi(x) for x in m.points])
        diff = mean(nu) - mean(mu)
        return par.alpha_r * float(diff @ diff)

    return cost


def reference_random_deficits():
    """(check name, deficit of each pair) of the suite's random checks, by the reference."""
    rng = np.random.default_rng(0)
    checks = []
    for name, energy in verify._concrete_energies():
        deficits = per_pair_deficits(energy, draw_pairs(rng, 1000), semi(energy.declared_lambda))
        checks.append((f"semi-convexity {name}", deficits))
    par = quadratic_as_parametrized(0.5)
    deficits = per_pair_deficits(par, draw_pairs(rng, 200), feature_cost(par))
    return checks + [("cost-convexity parametrized", deficits)]


def test_curvature_suite_is_the_per_pair_loop():
    quad = QuadraticMeanEnergy(0.5)
    ends = [(0.0, 2.0), (-1.0, 3.0), (0.5, 0.5)]
    diracs = [(empirical([[x]]), empirical([[y]])) for x, y in ends]
    worst = max(abs(d) for d in per_pair_deficits(quad, diracs, semi(0.5)))
    expected = [("quadratic Dirac equality", worst <= 1e-12, f"|deficit|={worst:.2e}")]
    (deficit,) = per_pair_deficits(quad, [(empirical([[0.0]]), empirical([[2.0]]))], semi(0.25))
    expected.append(("understated lambda detected", deficit > 1e-6, f"deficit={deficit:.3e}"))
    reference = reference_random_deficits()
    for name, deficits in reference:
        worst = max(deficits)
        expected.append((name, worst <= 1e-9, f"worst={worst:.2e}"))
    assert all(ok for _, ok, _ in expected)

    assert verify.SUITES["curvature"]() == expected
    # every pair, not only the worst one
    suite = verify._random_deficits()
    assert [name for name, _ in suite] == [name for name, _ in reference]
    for (name, got), (_, want) in zip(suite, reference):
        assert got.shape == (len(want),), name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)


class _NaNAwayFromZero(QuadraticMeanEnergy):
    """The quadratic energy, but NaN at every measure whose first atom lies above 3."""

    def _eval_batch(self, points, weights):
        values = super()._eval_batch(points, weights)
        return np.where(points[..., 0, 0] > 3.0, np.nan, values)


def test_a_nan_deficit_fails_the_curvature_suite(monkeypatch, capsys):
    energy = _NaNAwayFromZero(0.5)
    monkeypatch.setattr(verify, "_concrete_energies", lambda: [("nan-prone", energy)])
    rng = np.random.default_rng(0)
    pairs = draw_pairs(rng, 1000)
    nan_pairs = sum(np.isnan(bounds.check_semi_convexity(energy, mu, nu)) for mu, nu in pairs)
    assert 0 < nan_pairs < len(pairs)  # some pairs, not all

    results = {name: (ok, detail) for name, ok, detail in verify.SUITES["curvature"]()}
    assert results["semi-convexity nan-prone"] == (False, "worst=nan")
    assert main(["verify", "curvature"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "semi-convexity nan-prone FAIL worst=nan".split() in [line.split() for line in lines]
    assert lines[-1] == "suite curvature: FAIL"
