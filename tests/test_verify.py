import numpy as np

from mfgibbs import bounds, verify
from mfgibbs.cli import main
from mfgibbs.energies import QuadraticMeanEnergy, quadratic_as_parametrized
from mfgibbs.measures import empirical, mix, w2_squared


def per_pair_worst(energy, pairs, penalty_of):
    """The worst deficit over `pairs`, one pair and one mixture at a time."""
    worst = -np.inf
    for mu, nu in pairs:
        f_mu, f_nu = energy.eval(mu), energy.eval(nu)
        penalty = penalty_of(mu, nu)
        for t in bounds.DEFAULT_T_GRID:
            lhs = energy.eval(mix(mu, nu, t))
            worst = max(worst, lhs - t * f_mu - (1.0 - t) * f_nu - t * (1.0 - t) * penalty)
    return worst


def draw_pairs(rng, count):
    return [(verify._random_measure(rng), verify._random_measure(rng)) for _ in range(count)]


def test_curvature_suite_is_the_per_pair_loop():
    rng = np.random.default_rng(0)
    quad = QuadraticMeanEnergy(0.5)

    def semi(lam):
        return lambda mu, nu: 0.5 * lam * w2_squared(nu, mu)

    ends = [(0.0, 2.0), (-1.0, 3.0), (0.5, 0.5)]
    diracs = [(empirical([[x]]), empirical([[y]])) for x, y in ends]
    worst = max(abs(per_pair_worst(quad, [pair], semi(0.5))) for pair in diracs)
    expected = [("quadratic Dirac equality", worst <= 1e-12, f"|deficit|={worst:.2e}")]
    deficit = per_pair_worst(quad, [(empirical([[0.0]]), empirical([[2.0]]))], semi(0.25))
    expected.append(("understated lambda detected", deficit > 1e-6, f"deficit={deficit:.3e}"))
    for name, energy in verify._concrete_energies():
        worst = per_pair_worst(energy, draw_pairs(rng, 1000), semi(energy.declared_lambda))
        expected.append((f"semi-convexity {name}", worst <= 1e-9, f"worst={worst:.2e}"))
    par = quadratic_as_parametrized(0.5)
    worst = per_pair_worst(par, draw_pairs(rng, 200), par.cost_functional)
    expected.append(("cost-convexity parametrized", worst <= 1e-9, f"worst={worst:.2e}"))
    assert all(ok for _, ok, _ in expected)

    assert verify.run_suite("curvature") == expected


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

    results = {name: (ok, detail) for name, ok, detail in verify.run_suite("curvature")}
    assert results["semi-convexity nan-prone"] == (False, "worst=nan")
    assert main(["verify", "curvature"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "semi-convexity nan-prone FAIL worst=nan".split() in [line.split() for line in lines]
    assert lines[-1] == "suite curvature: FAIL"
