import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest
from test_bounds import alone, unpadded, unstacked
from test_estimators import chain_frozen
from test_measures import merge_loop_w2

from mfgibbs import bounds, dynamics, estimators, measures, verify
from mfgibbs.cli import main
from mfgibbs.dynamics import SimConfig
from mfgibbs.energies import (
    PairwiseKernelEnergy,
    ParametrizedEnergy,
    ParticleSystem,
    QuadraticMeanEnergy,
    quadratic_as_parametrized,
)
from mfgibbs.estimators import conditional_gap_mc
from mfgibbs.measures import DiscreteMeasure, empirical, mix

# The reference below draws the suite's random numbers but builds every
# measure as a DiscreteMeasure and takes one pair and one mixture at a time,
# with the merge loop as its W2^2 and the parametrized cost from the feature
# map atom by atom: it shares neither the stacks, nor the array W2^2, nor the
# batched deficits with the suite.


def random_measures(rng, counts):
    """One random measure on the line per atom count n in `counts`, drawn as
    the curvature suite draws one side's stack: six weights for each measure,
    then six atoms for each, of which the measure keeps its first n."""
    w = rng.random((len(counts), 6)) + 0.05
    points = rng.normal(size=(len(counts), 6, 1)) * 2.0
    return [DiscreteMeasure(x[:n], v[:n] / v[:n].sum()) for x, v, n in zip(points, w, counts)]


def draw_pairs(rng, count):
    """`count` pairs in the suite's draw order: the atom counts of all mu,
    then of all nu; then the measures mu, then the measures nu."""
    n_mu, n_nu = rng.integers(1, 7, size=count), rng.integers(1, 7, size=count)
    return list(zip(random_measures(rng, n_mu), random_measures(rng, n_nu)))


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


def witness_pair():
    x = np.linspace(-50.0, 50.0, 100)[:, None]
    return empirical(x), empirical(x + 0.5)


def reference_lambda(energy, mu, nu):
    """The least lambda the pair passes at, one mixture at a time."""
    w2 = merge_loop_w2(nu, mu)
    f_mu, f_nu = energy.eval(mu), energy.eval(nu)
    return max(
        2.0 * (energy.eval(mix(mu, nu, t)) - t * f_mu - (1.0 - t) * f_nu) / (t * (1.0 - t) * w2)
        for t in bounds.DEFAULT_T_GRID
    )


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
    kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
    witness = witness_pair()
    (deficit,) = per_pair_deficits(kern, [witness], semi(0.1))
    found = reference_lambda(kern, *witness)
    expected.append((
        "semi-convexity kernel witness", deficit <= 1e-9,
        f"lambda found={found:.6f} <= declared 0.1",
    ))
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


def test_the_stack_entry_is_the_one_pair_check():
    # the suite's padded stacks against each of their pairs alone, as
    # DiscreteMeasures, and within 1e-12 of the per-pair loop on the pairs
    # as drawn, whose mixtures drop the zero-weight atoms
    rng = np.random.default_rng(40)
    for _, energy in verify._concrete_energies():
        stacks = verify._random_stacks(rng, 300)
        got = bounds.stack_deficits(energy, *stacks, bounds.w2_penalty(energy.declared_lambda))
        want = [bounds.check_semi_convexity(energy, mu, nu) for mu, nu in unstacked(stacks)]
        np.testing.assert_array_equal(got, want)
        ref = per_pair_deficits(energy, unpadded(stacks), semi(energy.declared_lambda))
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
    par = quadratic_as_parametrized(0.5)
    stacks = verify._random_stacks(rng, 300)
    penalty = bounds.feature_cost_penalty(par)
    got = bounds.stack_deficits(par, *stacks, penalty)
    np.testing.assert_array_equal(got, alone(par, stacks, penalty))
    want = per_pair_deficits(par, unpadded(stacks), feature_cost(par))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_the_random_pairs_are_the_drawn_pairs():
    # the padded stacks hold the reference's measures, atom for atom
    for count in (1, 80, 1000):
        drawn = draw_pairs(np.random.default_rng(count), count)
        stacks = verify._random_stacks(np.random.default_rng(count), count)
        assert len(unpadded(stacks)) == count
        for pair, want in zip(unpadded(stacks), drawn):
            for got_m, want_m in zip(pair, want):
                np.testing.assert_array_equal(got_m.points, want_m.points)
                np.testing.assert_array_equal(got_m.weights, want_m.weights)


def test_the_witness_line_is_both_checks_from_one_pass(monkeypatch):
    # the deficit and the least lambda, bit for bit as their one-pair checks
    # give them, from one `_mixture_gaps` and one W2^2
    kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
    mu, nu = verify._kernel_witness()
    deficit = bounds.check_semi_convexity(kern, mu, nu)
    t = np.asarray(bounds.DEFAULT_T_GRID)
    stack = lambda m: (m.points[None], m.weights[None])
    w2 = measures.w2_squared_pairs(stack(nu), stack(mu))
    found = float(np.max(2.0 * bounds._mixture_gaps(kern, stack(mu), stack(nu))
                         / (t * (1.0 - t) * w2[:, None])))
    line = ("semi-convexity kernel witness", True, f"lambda found={found:.6f} <= declared 0.1")
    assert verify.suite_curvature()[-1] == line
    calls = []
    for name in ("_mixture_gaps", "w2_squared_pairs"):
        fn = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    assert bounds.semi_convexity_witness(kern, mu, nu) == (deficit, found)
    assert sorted(calls) == ["_mixture_gaps", "w2_squared_pairs"]


def test_the_kernel_witness_is_sharp():
    kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
    mu, nu = verify._kernel_witness()
    assert bounds.check_semi_convexity(kern, mu, nu) <= 1e-9
    found = bounds.semi_convexity_lambda(kern, mu, nu)
    assert found <= kern.declared_lambda
    assert bounds.check_semi_convexity(kern, mu, nu, lam=0.99 * found) > 1e-9
    # the suite's random kernel pairs miss an understatement by a tenth; the witness does not
    lam = 0.9 * kern.declared_lambda
    rng = np.random.default_rng(0)
    verify._random_stacks(rng, 1000)  # the quadratic check's pairs
    stacks = verify._random_stacks(rng, 1000)
    assert np.max(bounds.stack_deficits(kern, *stacks, bounds.w2_penalty(lam))) <= 1e-9
    assert bounds.check_semi_convexity(kern, mu, nu, lam=lam) > 1e-9


def test_the_random_checks_build_no_measure(monkeypatch):
    calls = {"check_atoms": 0, "DiscreteMeasure": 0}
    check_atoms, post_init = measures.check_atoms, DiscreteMeasure.__post_init__

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(measures, "check_atoms", counted("check_atoms", check_atoms))
    monkeypatch.setattr(DiscreteMeasure, "__post_init__", counted("DiscreteMeasure", post_init))
    checks = verify._random_deficits()
    assert calls["DiscreteMeasure"] == 0
    # one call per side of each check: one padded stack each
    assert calls["check_atoms"] == 2 * len(checks)


def test_the_random_checks_make_three_energy_calls_per_block(monkeypatch):
    # the mixtures and the two endpoint stacks of each block of pairs, one
    # call each, whatever the atom counts of the pairs in the block
    sizes = []
    for cls in (QuadraticMeanEnergy, PairwiseKernelEnergy, ParametrizedEnergy):
        def counted(self, points, weights, _fn=cls._eval_batch):
            sizes.append(len(weights))
            return _fn(self, points, weights)

        monkeypatch.setattr(cls, "_eval_batch", counted)
    checks = verify._random_deficits()
    block = bounds._BLOCK_PAIRS
    blocks = [-(-len(deficits) // block) for _, deficits in checks]
    assert blocks == [-(-1000 // block)] * 3 + [-(-200 // block)]
    assert len(sizes) == 3 * sum(blocks)
    assert max(sizes) == block


def declaring(cls, **declared):
    """cls with the given declared constants in place of its own."""
    return type(cls.__name__, (cls,), declared)


def hessian_lines(monkeypatch, cls=None, **declared):
    """{check name: (passed, detail)} of the Hessian suite, its energy of
    type cls declaring the given constants."""
    if cls is not None:
        monkeypatch.setattr(verify, cls.__name__, declaring(cls, **declared))
    return {name: (ok, detail) for name, ok, detail in verify.suite_hessian()}


def kernel_blocks(x, L=1.0, alpha=0.05):
    """The blocks -W''(x_i - x_j) of the kernel energy on the line, (N, N)."""
    z = x[:, None, 0] - x[None, :, 0]
    return -(L * np.exp(-z * z) * (4.0 * z * z - 2.0) + 2.0 * alpha)


def test_hessian_witness_and_mmm_lines_match_a_dense_reference():
    x = np.linspace(-50.0, 50.0, 100)[:, None]
    found = -np.linalg.eigvalsh(kernel_blocks(x))[0] / 100
    rng = np.random.default_rng(1)
    rng.normal(size=(4, 1))  # the quadratic's configuration
    configs = [rng.normal(size=(8, 1)) for _ in range(100)]  # the suite's one (100, 8, 1) draw
    ratio = min(np.linalg.eigvalsh(kernel_blocks(c))[0] for c in configs) / 8
    norm = max(float(np.max(np.abs(kernel_blocks(c)))) for c in configs + [x])
    Mmm = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05).declared_Mmm
    lines = {name: (ok, detail) for name, ok, detail in verify.suite_hessian()}
    assert lines["kernel block bound witness"] == (
        True, f"lambda found={found:.6f} <= declared 0.1"
    )
    assert lines["kernel block bound witness"][1] == "lambda found=0.099683 <= declared 0.1"
    assert lines["kernel block bound"] == (True, f"min ratio={ratio:.6f} >= -0.1")
    assert lines["kernel Mmm"] == (
        True, f"max block norm={norm:.6f} <= declared {Mmm:.6f} (slack {Mmm - norm:.6f})"
    )
    assert lines["quadratic Mmm"] == (
        True, "max block norm=0.500000 <= declared 0.500000 (slack 0.000000)"
    )


def test_the_hessian_witness_is_sharp(monkeypatch):
    kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
    found = -bounds.hessian_block_bound(kern, verify._spread()[None])
    assert 0.99 * kern.declared_lambda < found <= kern.declared_lambda
    assert all(ok for ok, _ in hessian_lines(monkeypatch).values())
    lines = hessian_lines(monkeypatch, PairwiseKernelEnergy, declared_lambda=0.99 * found)
    assert not lines["kernel block bound witness"][0]
    # the random configurations miss an understatement by a tenth; the witness does not
    lines = hessian_lines(monkeypatch, PairwiseKernelEnergy, declared_lambda=0.09)
    assert lines["kernel block bound"][0]
    assert not lines["kernel block bound witness"][0]


@pytest.mark.parametrize(
    "cls, name, norm",
    [(QuadraticMeanEnergy, "quadratic", 0.5), (PairwiseKernelEnergy, "kernel", 1.9)],
)
def test_an_understated_mmm_fails(monkeypatch, capsys, cls, name, norm):
    # the largest block: -a on every pair, and the kernel's |2 alpha - 2 L| at x_i = x_j
    assert hessian_lines(monkeypatch)[f"{name} Mmm"][1].startswith(f"max block norm={norm:.6f}")
    lines = hessian_lines(monkeypatch, cls, declared_Mmm=0.99 * norm)
    assert not lines[f"{name} Mmm"][0]
    assert [n for n, (ok, _) in lines.items() if not ok] == [f"{name} Mmm"]
    assert main(["verify", "hessian"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "suite hessian: FAIL"


@pytest.mark.parametrize(
    "changed, failing",
    [
        ({}, []),
        ({"alpha_r": 0.2475}, ["parametrized block bound"]),  # lambda 0.495
        ({"r_hess_bound": 0.495}, ["parametrized Mmm"]),
    ],
)
def test_the_parametrized_lines_are_sharp(monkeypatch, changed, failing):
    # every block is -a I: the ratio is -a = -lambda and the block norm a = Mmm
    par = dataclasses.replace(quadratic_as_parametrized(0.5), **changed)
    monkeypatch.setattr(verify, "quadratic_as_parametrized", lambda a: par)
    lines = hessian_lines(monkeypatch)
    assert list(lines)[-2:] == ["parametrized block bound", "parametrized Mmm"]
    assert [n for n, (ok, _) in lines.items() if not ok] == failing
    assert lines["parametrized block bound"][1] == f"min ratio=-0.500000 >= {-par.declared_lambda}"
    assert lines["parametrized Mmm"][1] == (
        f"max block norm=0.500000 <= declared {par.declared_Mmm:.6f} "
        f"(slack {par.declared_Mmm - 0.5:.6f})"
    )


def conditional_lines():
    return {name: (ok, detail) for name, ok, detail in verify.suite_conditional()}


def test_the_frozen_family():
    cs = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
    for N in (2, 8, 9, 50):
        family = verify._frozen_family(N)
        assert family.shape == (11, N - 1)
        for row, c in zip(family[:6], cs):
            assert np.all(row == c)
        for row, c in zip(family[6:], cs[1:]):
            assert sorted(row) == [-c] * ((N - 1) // 2) + [c] * (N // 2)


def test_the_structured_family_catches_what_a_chain_misses():
    # the eight configurations the oracle drew from its own MALA chain at
    # N = 8 miss the kernel's least conditional gap, at the others all at 0:
    # a rho_N of 0.77 between the two passes them and fails the family
    system = ParticleSystem(PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05), 8, 1)
    config = SimConfig(step=0.05, n_steps=400, burn_in=100, thin=10, seed=8, sampler="MALA")
    sampled = conditional_gap_mc(system, chain_frozen(system, config, 8), claimed_rho_N=0.77)
    structured = conditional_gap_mc(system, verify._frozen_family(8), claimed_rho_N=0.77)
    assert sampled.passed and round(sampled.minimum, 4) == 0.7834
    assert structured.passed is False and round(structured.minimum, 6) == 0.755296
    assert structured.converged.all() and int(np.argmin(structured.gaps)) == 0
    assert structured.minimum <= sampled.minimum


def test_no_oracle_runs_a_chain(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a chain ran")

    monkeypatch.setattr(estimators, "run_chain", refuse)
    monkeypatch.setattr(dynamics, "run_chain", refuse)
    assert all(ok for ok, _ in conditional_lines().values())
    names = {
        node.id for node in ast.walk(ast.parse(inspect.getsource(conditional_gap_mc)))
        if isinstance(node, ast.Name)
    }
    assert not names & {"run_chain", "SimConfig"}
    imports = [
        node for node in ast.walk(ast.parse(Path(verify.__file__).read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    imported = {getattr(node, "module", None) for node in imports}
    imported |= {alias.name for node in imports for alias in node.names}
    assert not {name for name in imported if name and "dynamics" in name}


def test_the_quadratic_rows_are_shifts_of_one_grid():
    # the quadratic conditional law only shifts with the others; with the
    # window's ends interpolated between scan nodes, its three windows shift
    # with it up to the interpolation's error, and the gaps agree to about
    # 1e-10 (windows snapped to the 0.0625-spaced scan nodes read 2.08e-07)
    system = ParticleSystem(QuadraticMeanEnergy(0.5), 20, 1)
    res = conditional_gap_mc(system, verify._frozen_family(20)[[0, 5, 10]])
    assert res.converged.all() and res.spread < 1e-8


def test_the_conditional_lines():
    assert conditional_lines() == {
        "quadratic conditional gap": (True, "median=0.974966 spread=2.57e-10"),
        "kernel conditional gap >= rho": (True, "min=0.755296 rho=0.367879"),
        "parametrized conditional gap >= rho": (True, "min=0.974966 rho=0.975000"),
    }


@pytest.mark.parametrize(
    "cls, name, found",
    [(PairwiseKernelEnergy, "kernel", 0.755296), (ParametrizedEnergy, "parametrized", 0.974966)],
)
def test_an_overstated_rho_N_fails(monkeypatch, capsys, cls, name, found):
    monkeypatch.setattr(cls, "declared_rho_N", lambda self, N: found / 0.99)
    lines = conditional_lines()
    assert [n for n, (ok, _) in lines.items() if not ok] == [f"{name} conditional gap >= rho"]
    assert main(["verify", "conditional"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "suite conditional: FAIL"


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_every_row_is_a_name_a_bool_and_a_detail(suite):
    # a NumPy bool passes `if ok`, but is not the bool the table promises
    rows = verify.SUITES[suite]()
    assert rows
    for row in rows:
        assert type(row) is tuple and len(row) == 3, row
        name, passed, detail = row
        assert type(name) is str and type(passed) is bool and type(detail) is str, row
