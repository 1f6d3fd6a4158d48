import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from mfgibbs import bounds, verify
from mfgibbs.energies import LinearPotentialEnergy, PairwiseKernelEnergy, QuadraticMeanEnergy
from mfgibbs.errors import GibbsUndefinedError, TheoremInvalidError
from mfgibbs.measures import DiscreteMeasure, empirical, mix, w2_squared
from mfgibbs.energies import quadratic_as_parametrized


class TestPoincareConstant:
    def test_quadratic_instance(self):
        inp = bounds.PoincareInputs(rho_N=0.975, lam=0.5, Mmm=0.5, N=20)
        assert abs(bounds.poincare_constant(inp) - 0.45) < 1e-15

    def test_product_case(self):
        inp = bounds.PoincareInputs(rho_N=1.0, lam=0.0, Mmm=0.0, N=1)
        assert bounds.poincare_constant(inp) == 1.0

    def test_boundary_of_positivity(self):
        inp = bounds.PoincareInputs(rho_N=1.0, lam=1.0, Mmm=0.0, N=10)
        assert bounds.poincare_constant(inp) == 0.0

    def test_monotonicity(self):
        base = dict(rho_N=1.0, lam=0.2, Mmm=0.5, N=10)
        ref = bounds.poincare_constant(bounds.PoincareInputs(**base))
        assert bounds.poincare_constant(
            bounds.PoincareInputs(**{**base, "rho_N": 1.2})
        ) > ref
        assert bounds.poincare_constant(
            bounds.PoincareInputs(**{**base, "lam": 0.3})
        ) < ref
        assert bounds.poincare_constant(
            bounds.PoincareInputs(**{**base, "Mmm": 0.7})
        ) < ref
        assert bounds.poincare_constant(
            bounds.PoincareInputs(**{**base, "N": 20})
        ) > ref


# Hand-derived instance: rho=1, lambda'=0.1, M=1, eps=0.5, d=1, alpha_N=1.
# bracket = 4 + 3*1*(2-1)/(2*1*0.5) = 7
# N0 = 4/(1-0.4)*7 = 46.666...; lt = 0.1 + 7/100 = 0.17
# beta = 0.34/0.66; rho' = 2*0.5*(1-beta)*1; delta = 2*(2 + (2.5+1.5)) = 12
HAND = dict(N0=140.0 / 3.0, lt=0.17, beta=0.34 / 0.66, rho_p=0.32 / 0.66, delta=12.0)


class TestDefectiveConstants:
    def make(self, **over):
        base = dict(
            rho=1.0, lambda_prime=0.1, alpha_N=1.0, Mmm=1.0, epsilon=0.5, N=100, d=1
        )
        base.update(over)
        return bounds.LsiInputs(**base)

    def test_hand_derived_instance(self):
        r = bounds.defective_lsi_constants(self.make())
        assert abs(r.N0 - HAND["N0"]) < 1e-10
        assert abs(r.lambda_tilde - HAND["lt"]) < 1e-15
        assert abs(r.beta_N - HAND["beta"]) < 1e-12
        assert abs(r.rho_prime_star - HAND["rho_p"]) < 1e-12
        assert abs(r.delta_N - HAND["delta"]) < 1e-12
        assert r.flags["defective_valid"]

    def test_no_interaction_collapse(self):
        r = bounds.defective_lsi_constants(
            self.make(Mmm=0.0, lambda_prime=0.0, alpha_N=0.0, epsilon=0.3)
        )
        assert r.N0 == 0.0
        assert r.lambda_tilde == 0.0
        assert r.beta_N == 0.0
        assert r.delta_N == 0.0
        assert abs(r.rho_prime_star - 2 * 0.7) < 1e-15

    def test_gap_condition_failure_flagged(self):
        r = bounds.defective_lsi_constants(self.make(lambda_prime=0.3))
        assert not r.flags["gap_condition"]
        assert not r.flags["defective_valid"]
        assert math.isinf(r.N0)

    def test_beta_in_range_iff_n_above_n0(self):
        # algebraic equivalence over a parameter grid
        for rho in np.linspace(0.5, 3.0, 10):
            for lp in np.linspace(0.0, rho / 4 * 0.99, 10):
                for M in np.linspace(0.01, 2.0, 10):
                    inp = bounds.LsiInputs(
                        rho=rho, lambda_prime=lp, alpha_N=0.5, Mmm=M,
                        epsilon=0.5, N=100, d=1,
                    )
                    r = bounds.defective_lsi_constants(inp)
                    assert (0.0 < r.beta_N < 1.0) == (inp.N > r.N0), (rho, lp, M)

    def test_lambda_tilde_decreasing_to_lambda_prime(self):
        vals = [
            bounds.defective_lsi_constants(self.make(N=N)).lambda_tilde
            for N in (10, 100, 1000, 100000)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - 0.1) < 1e-3

    def test_rho_prime_increasing_in_n(self):
        vals = [
            bounds.defective_lsi_constants(self.make(N=N)).rho_prime_star
            for N in (50, 100, 1000)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_delta_independent_of_n(self):
        a = bounds.defective_lsi_constants(self.make(N=50)).delta_N
        b = bounds.defective_lsi_constants(self.make(N=5000)).delta_N
        assert a == b

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            self.make(epsilon=1.0)


class TestTightConstant:
    def test_hand_instance(self):
        r = bounds.defective_lsi_constants(
            bounds.LsiInputs(
                rho=1.0, lambda_prime=0.1, alpha_N=1.0, Mmm=1.0,
                epsilon=0.5, N=100, d=1,
            )
        )
        got = bounds.tight_lsi_constant(r, 1.29)
        expected = HAND["rho_p"] / (1 + 12.0 / 5.16)
        assert abs(got - expected) < 1e-12
        assert abs(got - 0.14579) < 1e-4

    def test_zero_defect(self):
        r = bounds.defective_lsi_constants(
            bounds.LsiInputs(
                rho=1.0, lambda_prime=0.0, alpha_N=0.0, Mmm=0.0,
                epsilon=0.5, N=10, d=1,
            )
        )
        assert bounds.tight_lsi_constant(r, 0.7) == r.rho_prime_star

    def test_monotone_in_poincare(self):
        r = bounds.defective_lsi_constants(
            bounds.LsiInputs(
                rho=1.0, lambda_prime=0.1, alpha_N=1.0, Mmm=1.0,
                epsilon=0.5, N=100, d=1,
            )
        )
        vals = [bounds.tight_lsi_constant(r, p) for p in (0.5, 1.0, 2.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_invalid_raises(self):
        r = bounds.defective_lsi_constants(
            bounds.LsiInputs(
                rho=1.0, lambda_prime=0.3, alpha_N=1.0, Mmm=1.0,
                epsilon=0.5, N=100, d=1,
            )
        )
        with pytest.raises(TheoremInvalidError):
            bounds.tight_lsi_constant(r, 1.0)


class TestQuadraticExample:
    def test_reference_point(self):
        q = bounds.quadratic_example_constants(0.5, 20)
        assert q.inputs.rho_N == 0.975
        assert abs(q.theorem_bound - 0.45) < 1e-15
        assert q.exact_poincare == 0.5
        assert abs(q.gap - 0.05) < 1e-15

    def test_small_a_limit(self):
        q = bounds.quadratic_example_constants(1e-9, 100)
        assert abs(q.theorem_bound - 1.0) < 1e-8

    def test_large_n(self):
        q = bounds.quadratic_example_constants(0.9, 1000)
        assert abs(q.theorem_bound - 0.0982) < 1e-10
        assert abs(q.exact_poincare - 0.1) < 1e-12

    def test_gibbs_undefined(self):
        with pytest.raises(GibbsUndefinedError):
            bounds.quadratic_example_constants(1.0, 10)

    def test_soundness_vs_exact_on_grid(self):
        for a in np.arange(0.1, 0.95, 0.1):
            for N in (10, 100, 1000):
                q = bounds.quadratic_example_constants(float(a), N)
                assert q.theorem_bound <= q.exact_poincare + 1e-15


class TestKernelExample:
    def test_reference_point(self):
        k = bounds.kernel_example_constants(1.0, 0.05, 1.0)
        assert abs(k.Mmm - 3.57151) < 1e-5
        assert abs(k.rho - math.exp(-1)) < 1e-12
        assert k.condition_holds
        assert abs(k.beta_max - (-math.log(0.2))) < 1e-12

    def test_l_zero_reduces_to_quadratic_regime(self):
        k = bounds.kernel_example_constants(0.0, 0.1, 1.0)
        assert k.rho == 1.0
        assert k.Mmm == 0.2  # 2 alpha, the quadratic-mean value at a = 2 alpha
        assert k.condition_holds == (4 * 0.1 < 1.0)

    def test_v1_enters_by_its_oscillation(self):
        # a V1 of sup-norm 0.3 may swing by 0.6: rho and beta_max read one
        # exponent, 2 v1_sup + L
        k = bounds.kernel_example_constants(0.5, 0.1, 2.0, v1_sup=0.3)
        assert k.rho == k.rho_N == 2.0 * math.exp(-1.1)
        assert abs(k.beta_max - (math.log(2.0) - math.log(0.4)) / 1.1) <= 1e-15
        assert bounds.kernel_example_constants(0.0, 0.1, 2.0, v1_sup=0.0).beta_max == math.inf

    def test_condition_fails(self):
        k = bounds.kernel_example_constants(1.0, 0.2, 1.0)
        assert not k.condition_holds

    def test_alpha_zero_threshold_infinite(self):
        assert math.isinf(bounds.kernel_example_constants(1.0, 0.0, 1.0).beta_max)

    def test_mmm_and_checks_are_the_energys(self):
        k = bounds.kernel_example_constants(0.5, 0.1, 2.0, v1_sup=0.3)
        energy = PairwiseKernelEnergy(eta=2.0, L=0.5, alpha=0.1, v1_sup=0.3)
        assert type(k.Mmm) is float and k.Mmm == energy.declared_Mmm
        for bad in ((-1.0, 0.1, 1.0), (1.0, math.nan, 1.0), (1.0, 0.1, 0.0)):
            with pytest.raises(ValueError):
                bounds.kernel_example_constants(*bad)


class TestCorollaryReport:
    def test_quadratic_matches_parametrized_route(self):
        a, N, var_phi, eps = 0.2, 200, 1.0, 0.5
        report, example = bounds.corollary_report(QuadraticMeanEnergy(a), N, 1, var_phi, eps)
        lam_p, alpha_N = bounds.parametrized_cost_bound(quadratic_as_parametrized(a), var_phi, eps)
        lsi = bounds.LsiInputs(
            rho=1.0, lambda_prime=lam_p, alpha_N=alpha_N, Mmm=a, epsilon=eps, N=N, d=1
        )
        ref = bounds.full_report(lsi, bounds.quadratic_example_constants(a, N).inputs)
        assert report.to_dict() == ref.to_dict()
        assert example == {"exact_poincare": 1.0 - a, "gap_to_exact": 2.0 * a / N, "var_phi": 1.0}

    def test_kernel_alpha_r_is_alpha(self):
        L, alpha, eta, N, var_phi, eps = 1.0, 0.05, 1.0, 50, 0.8, 0.5
        report, example = bounds.corollary_report(
            PairwiseKernelEnergy(eta=eta, L=L, alpha=alpha), N, 1, var_phi, eps
        )
        k = bounds.kernel_example_constants(L, alpha, eta)
        lam_p, alpha_N = alpha * (1.0 + eps), alpha * (1.0 + 1.0 / eps) * var_phi
        lsi = bounds.LsiInputs(
            rho=k.rho, lambda_prime=lam_p, alpha_N=alpha_N, Mmm=k.Mmm, epsilon=eps, N=N, d=1
        )
        poin = bounds.PoincareInputs(rho_N=k.rho_N, lam=2.0 * alpha, Mmm=k.Mmm, N=N)
        assert report.to_dict() == bounds.full_report(lsi, poin).to_dict()
        assert example["Mmm"] == k.Mmm and example["var_phi"] == var_phi

    def test_report_is_json_serializable(self):
        energy = PairwiseKernelEnergy(eta=2.0, L=0.5, alpha=0.1, v1_sup=0.3)
        report, example = bounds.corollary_report(energy, 50, 1, 1.0, 0.5)
        assert all(type(v) is bool for v in report.flags.values())
        json.dumps({"report": report.to_dict(), "example": example})

    def test_gibbs_undefined(self):
        with pytest.raises(GibbsUndefinedError):
            bounds.corollary_report(QuadraticMeanEnergy(1.5), 10, 1, 1.0, 0.5)

    @pytest.mark.parametrize("a", [0.2, 0.5])
    def test_parametrized_report_is_its_own(self, a):
        # the parametrized energy's own declarations give the quadratic's numbers
        N, var_phi, eps = 50, 0.9, 0.4
        quad, _ = bounds.corollary_report(QuadraticMeanEnergy(a), N, 1, var_phi, eps)
        par, example = bounds.corollary_report(quadratic_as_parametrized(a), N, 1, var_phi, eps)
        assert par.to_dict() == quad.to_dict()
        assert example == {"var_phi": var_phi}  # no closed form beside the report

    def test_doubled_r_hess_bound_moves_rho_N_and_the_poincare_bound(self):
        par = quadratic_as_parametrized(0.2)
        doubled = dataclasses.replace(par, r_hess_bound=0.4)
        assert par.declared_rho_N(50) == 1.0 - 0.2 / 50
        assert doubled.declared_rho_N(50) == 1.0 - 0.4 / 50
        report, _ = bounds.corollary_report(par, 50, 1, 1.0, 0.5)
        moved, _ = bounds.corollary_report(doubled, 50, 1, 1.0, 0.5)
        # rho_N - lambda - Mmm/N with rho_N and Mmm = r_hess_bound both moved
        assert abs(report.poincare_bound - (1.0 - 0.2 / 50 - 0.2 - 0.2 / 50)) < 1e-15
        assert abs(moved.poincare_bound - (1.0 - 0.4 / 50 - 0.2 - 0.4 / 50)) < 1e-15

    def test_report_reads_the_declared_cost(self):
        # Lip(phi) = 2: lambda = 2 alpha_r Lip^2 no longer gives the cost (lambda/2, 1)
        par = dataclasses.replace(quadratic_as_parametrized(0.2), phi_lip=2.0)
        N, var_phi, eps = 50, 0.9, 0.4
        report, _ = bounds.corollary_report(par, N, 1, var_phi, eps)
        Mmm, rho_N = 0.2 * 4.0, 1.0 - 0.2 * 4.0 / N
        lam_p, alpha_N = 0.1 * (1.0 + eps) * 4.0, 0.1 * (1.0 + 1.0 / eps) * var_phi
        lsi = bounds.LsiInputs(
            rho=1.0, lambda_prime=lam_p, alpha_N=alpha_N, Mmm=Mmm, epsilon=eps, N=N, d=1
        )
        poincare = bounds.PoincareInputs(rho_N=rho_N, lam=2.0 * 0.1 * 4.0, Mmm=Mmm, N=N)
        ref = bounds.full_report(lsi, poincare).to_dict()
        for key, value in report.to_dict().items():
            if isinstance(value, float):
                assert value == pytest.approx(ref[key], rel=1e-14, abs=0.0), key
            else:
                assert value == ref[key], key

    def test_non_affine_features_rejected(self):
        par = dataclasses.replace(quadratic_as_parametrized(0.5), phi_hess=_zero_phi_hess)
        with pytest.raises(TheoremInvalidError, match="affine"):
            bounds.corollary_report(par, 10, 1, 1.0, 0.5)

    @pytest.mark.parametrize("a", [0.5, 1.5])
    def test_undeclared_kappa_is_no_theorem_not_no_gibbs_measure(self, a):
        par = quadratic_as_parametrized(a)
        base = dataclasses.replace(par.base, kappa=None)
        for energy in (
            dataclasses.replace(par, base=base),
            # a flat-convex base that declares no kappa at all
            dataclasses.replace(par, base=PairwiseKernelEnergy(eta=1.0, L=1.0)),
        ):
            with pytest.raises(TheoremInvalidError, match="declared kappa") as info:
                bounds.corollary_report(energy, 10, 1, 1.0, 0.5)
            assert not isinstance(info.value, GibbsUndefinedError)

    def test_linear_potential_reports_from_its_kappa(self):
        # V = |x|^2 / 2, kappa = 1: U_N's Gibbs measure is N(0, I), of gap 1
        energy = quadratic_as_parametrized(0.5).base
        assert isinstance(energy, LinearPotentialEnergy)
        assert (energy.declared_rho, energy.declared_cost) == (1.0, (0.0, 1.0))
        report, _ = bounds.corollary_report(energy, 10, 1, 1.0, 0.5)
        assert report.poincare_bound == 1.0
        with pytest.raises(TheoremInvalidError, match="declared kappa") as info:
            bounds.corollary_report(dataclasses.replace(energy, kappa=None), 10, 1, 1.0, 0.5)
        assert not isinstance(info.value, GibbsUndefinedError)

    def test_parametrized_gibbs_undefined(self):
        # kappa = 1 against r_hess_bound Lip(phi)^2 = a: a Gibbs measure exactly when a < 1
        quadratic_as_parametrized(0.999).declared_rho_N(10)
        for a in (1.0, 1.5):
            with pytest.raises(GibbsUndefinedError, match="kappa = 1.0 > r_hess_bound"):
                bounds.corollary_report(quadratic_as_parametrized(a), 10, 1, 1.0, 0.5)


def _zero_phi_hess(xs):  # a declared, if vanishing, curvature of the features
    return np.zeros(xs.shape[:-1] + (xs.shape[-1],) * 3)


class TestDeclarations:
    def test_each_energy_declares_its_theorem_inputs(self):
        quad, par = QuadraticMeanEnergy(0.3), quadratic_as_parametrized(0.3)
        kern = PairwiseKernelEnergy(eta=2.0, L=0.5, alpha=0.1, v1_sup=0.3)
        assert (quad.declared_rho, quad.declared_rho_N(20), quad.declared_cost) == (
            1.0, 1.0 - 0.3 / 20, (0.15, 1.0)
        )
        assert (par.declared_rho, par.declared_rho_N(20), par.declared_cost) == (
            1.0, 1.0 - 0.3 / 20, (0.15, 1.0)
        )
        rho = 2.0 * math.exp(-1.1)  # osc V1 <= 2 v1_sup = 0.6, plus L = 0.5
        assert (kern.declared_rho, kern.declared_rho_N(20), kern.declared_cost) == (
            rho, rho, (0.1, 1.0)
        )

    def test_cost_bound_reads_the_declared_cost(self):
        kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        lam_p, alpha_N = bounds.parametrized_cost_bound(kern, var_phi=0.8, epsilon=0.5)
        assert (lam_p, alpha_N) == (0.05 * 1.5, 0.05 * 3.0 * 0.8)


class TestParametrizedCostBound:
    def test_quadratic_route(self):
        par = quadratic_as_parametrized(0.5)
        lam_p, alpha_N = bounds.parametrized_cost_bound(par, var_phi=1.0, epsilon=0.5)
        assert abs(lam_p - 0.375) < 1e-15
        assert abs(alpha_N - 0.75) < 1e-15

    def test_convex_outer(self):
        par = quadratic_as_parametrized(0.5)
        object.__setattr__(par, "alpha_r", 0.0)
        assert bounds.parametrized_cost_bound(par, 1.0, 0.5) == (0.0, 0.0)

    def test_epsilon_scan_shape(self):
        par = quadratic_as_parametrized(0.2)
        eps_grid = np.linspace(0.05, 0.95, 19)
        pairs = [bounds.parametrized_cost_bound(par, 1.0, e) for e in eps_grid]
        lams = [p[0] for p in pairs]
        alphas = [p[1] for p in pairs]
        assert all(a < b for a, b in zip(lams, lams[1:]))  # increasing in eps
        assert all(a > b for a, b in zip(alphas, alphas[1:]))  # decreasing in eps


def random_measure(rng, d=1):
    n = int(rng.integers(1, 6))
    w = rng.random(n) + 0.1
    return DiscreteMeasure(rng.normal(size=(n, d)) * 1.5, w / w.sum())


class TestCheckers:
    def test_semi_convexity_equality_on_diracs(self):
        quad = QuadraticMeanEnergy(0.5)
        deficit = bounds.check_semi_convexity(
            quad, empirical([[0.0]]), empirical([[2.0]])
        )
        assert abs(deficit) < 1e-12

    def test_mixtures_are_those_of_mix(self):
        rng = np.random.default_rng(25)
        kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        for _ in range(20):
            mu, nu = random_measure(rng), random_measure(rng)
            penalty = 0.5 * kern.declared_lambda * w2_squared(nu, mu)
            f_mu, f_nu = kern.eval(mu), kern.eval(nu)
            ref = max(
                kern.eval(mix(mu, nu, t)) - t * f_mu - (1.0 - t) * f_nu - t * (1.0 - t) * penalty
                for t in bounds.DEFAULT_T_GRID
            )
            assert bounds.check_semi_convexity(kern, mu, nu) == ref

    def test_identical_measures(self):
        quad = QuadraticMeanEnergy(0.5)
        mu = empirical([[0.3], [1.2]])
        assert abs(bounds.check_semi_convexity(quad, mu, mu)) < 1e-12

    def test_understated_lambda_detected(self):
        quad = QuadraticMeanEnergy(0.5)
        deficit = bounds.check_semi_convexity(
            quad, empirical([[0.0]]), empirical([[2.0]]), lam=0.25
        )
        # equality case: understating lambda by 0.25 leaves a deficit of
        # (0.25/2) t(1-t) W2^2 = 0.125 at t = 1/2
        assert abs(deficit - 0.125) < 1e-12

    def test_random_pairs_all_energies(self):
        rng = np.random.default_rng(20)
        for energy in (
            QuadraticMeanEnergy(0.5),
            PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05),
            quadratic_as_parametrized(0.5),
        ):
            for _ in range(200):
                deficit = bounds.check_semi_convexity(
                    energy, random_measure(rng), random_measure(rng)
                )
                assert deficit <= 1e-9

    def test_cost_convexity_dirac_equality(self):
        par = quadratic_as_parametrized(0.5)
        stacks = one_pair(empirical([[0.0]]), empirical([[2.0]]))
        (deficit,) = bounds.stack_deficits(par, *stacks, bounds.feature_cost_penalty(par))
        assert abs(deficit) < 1e-12

    def test_cost_convexity_random(self):
        par = quadratic_as_parametrized(0.5)
        stacks = verify._random_stacks(np.random.default_rng(21), 200)
        deficits = bounds.stack_deficits(par, *stacks, bounds.feature_cost_penalty(par))
        assert deficits.shape == (200,) and np.max(deficits) <= 1e-9

    def test_cost_convexity_exact_identity(self):
        # the cost (a/2) |int x d(nu - mu)|^2 is the quadratic outer R's whole
        # concavity: the deficit vanishes on every pair, in any dimension
        par = quadratic_as_parametrized(0.5)
        rng = np.random.default_rng(22)
        for stacks in (verify._random_stacks(rng, 100), two_dimensional_stacks(rng, 40, 3)):
            deficits = bounds.stack_deficits(par, *stacks, bounds.feature_cost_penalty(par))
            assert np.max(np.abs(deficits)) <= 1e-9

    def test_hessian_block_norm_is_the_largest_block_norm(self):
        rng = np.random.default_rng(26)
        for energy in (PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05), QuadraticMeanEnergy(0.5)):
            for d in (1, 2):  # the modulus branch, then the SVD branch
                for n in (1, 3, 6):  # one stack per size
                    x = rng.normal(size=(4, n, d))
                    want = max(
                        np.linalg.norm(block, 2)
                        for c in x
                        for row in energy._hess_mm(c, np.full(n, 1.0 / n), c, c)
                        for block in row
                    )
                    assert bounds.hessian_block_norm(energy, x) == want

    @pytest.mark.parametrize("d", [1, 2])
    def test_hessian_block_norm_quadratic(self, d):
        x = np.random.default_rng(27).normal(size=(1, 5, d))
        norm = bounds.hessian_block_norm(QuadraticMeanEnergy(0.5), x)
        assert abs(norm - 0.5) <= 1e-15
        assert bounds.hessian_block_norm(quadratic_as_parametrized(0.5), x) == norm

    def test_hessian_block_norm_kernel_witness(self):
        kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        norm = bounds.hessian_block_norm(kern, verify._spread()[None])
        assert abs(norm - abs(2.0 * 0.05 - 2.0 * 1.0)) <= 1e-12  # |2 alpha - 2 L| at x_i = x_j

    def test_hessian_block_quadratic_sharp(self):
        quad = QuadraticMeanEnergy(0.5)
        x = np.random.default_rng(23).normal(size=(1, 4, 1))
        ratio = bounds.hessian_block_bound(quad, x)
        assert abs(ratio + 0.5) < 1e-12

    def test_hessian_block_kernel(self):
        kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        configs = np.random.default_rng(24).normal(size=(50, 8, 1))
        ratio = bounds.hessian_block_bound(kern, configs)
        assert ratio >= -0.1 - 1e-9

    def test_hessian_block_trivial(self):
        kern = PairwiseKernelEnergy(eta=1.0, L=0.0, alpha=0.0)
        ratio = bounds.hessian_block_bound(kern, np.zeros((1, 3, 1)))
        assert abs(ratio) < 1e-12


HESSIAN_CHECKS = (bounds.hessian_block_bound, bounds.hessian_block_norm)
HESSIAN_ENERGIES = {
    "quadratic": QuadraticMeanEnergy(0.5),
    "kernel": PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05),
    "parametrized": quadratic_as_parametrized(0.5),
}


class TestHessianStacks:
    """Both Hessian-block checks take one stack of configurations (K, N, d)."""

    @pytest.mark.parametrize("check", HESSIAN_CHECKS)
    @pytest.mark.parametrize("name", list(HESSIAN_ENERGIES))
    @pytest.mark.parametrize("d", [1, 2])
    def test_a_stack_is_its_configurations(self, check, name, d):
        # the bound is the least, the norm the largest, of its one-configuration stacks
        energy = HESSIAN_ENERGIES[name]
        x = np.random.default_rng(28 + d).normal(size=(7, 5, d)) * 1.5
        alone = [check(energy, c[None]) for c in x]
        pick = min if check is bounds.hessian_block_bound else max
        assert check(energy, x) == pick(alone)

    @pytest.mark.parametrize("check", HESSIAN_CHECKS)
    @pytest.mark.parametrize("form", ["one configuration", "1-D row", "4-D array", "mixed sizes"])
    def test_no_stack_raises(self, check, form):
        # read as rows of one-particle configurations, or as one particle in
        # d = 8, a configuration of the kernel passes any lambda
        kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        x = np.random.default_rng(31).normal(size=(8, 1))
        bad = {"one configuration": x, "1-D row": x[:, 0], "4-D array": x[None, None],
               "mixed sizes": [x, x[:3]]}
        with pytest.raises(ValueError, match=r"expected a stack \(K, N, d\)"):
            check(kern, bad[form])

    @pytest.mark.parametrize("check", HESSIAN_CHECKS)
    @pytest.mark.parametrize("empty", [[], np.empty((0, 8, 1))], ids=["list", "stack"])
    def test_an_empty_battery_raises(self, check, empty):
        # an empty battery checks nothing: it must not pass as a bound of inf
        kern = PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05)
        with pytest.raises(ValueError, match=r"expected a stack \(K, N, d\) .*K >= 1"):
            check(kern, empty)


class TestReportSerialization:
    def test_full_report_json_schema(self):
        lsi = bounds.LsiInputs(
            rho=1.0, lambda_prime=0.1, alpha_N=1.0, Mmm=1.0, epsilon=0.5, N=100, d=1
        )
        poin = bounds.PoincareInputs(rho_N=0.99, lam=0.2, Mmm=0.2, N=100)
        report = bounds.full_report(lsi, poin)
        d = report.to_dict()
        for key in (
            "poincare_bound", "N0", "lambda_tilde", "beta_N",
            "delta_N", "rho_prime_star", "rho_star", "flags",
        ):
            assert key in d
        for flag in ("poincare_positive", "defective_valid", "corollary_valid"):
            assert flag in d["flags"]
        assert report.rho_star is not None


def per_pair_deficit(energy, mu, nu, penalty):
    """The worst mixture deficit of one pair, one measure at a time."""
    f_mu, f_nu = energy.eval(mu), energy.eval(nu)
    return max(
        energy.eval(mix(mu, nu, t)) - t * f_mu - (1.0 - t) * f_nu - t * (1.0 - t) * penalty
        for t in bounds.DEFAULT_T_GRID
    )


def feature_cost(par, mu, nu):
    """alpha_r |sum_j w_j phi(y_j) - sum_i w_i phi(x_i)|^2 of one pair, phi
    called once per atom."""

    def feature_mean(m):
        return m.weights @ np.array([par.phi(x) for x in m.points])

    diff = feature_mean(nu) - feature_mean(mu)
    return par.alpha_r * float(diff @ diff)


def one_pair(mu, nu):
    """The pair (mu, nu) as the two stacks of one pair of `bounds.stack_deficits`."""
    return (mu.points[None], mu.weights[None]), (nu.points[None], nu.weights[None])


def two_dimensional_stacks(rng, count, n):
    """`count` pairs of uniform measures of n atoms in the plane as two
    stacks: d=2 takes the assignment W2, which needs equal uniform supports."""
    weights = np.full((count, n), 1.0 / n)
    mu, nu = (rng.normal(size=(count, n, 2)) * 1.5 for _ in range(2))
    return (mu, weights), (nu, weights)


def unstacked(stacks):
    """The pairs of two stacks (mu, nu) as DiscreteMeasures, in order, each
    with every atom of its row: the padding of weight zero stays."""
    (mu_p, mu_w), (nu_p, nu_w) = stacks
    return [
        (DiscreteMeasure(x, w), DiscreteMeasure(y, v))
        for x, w, y, v in zip(mu_p, mu_w, nu_p, nu_w)
    ]


def unpadded(stacks):
    """The pairs of two stacks as DiscreteMeasures of their atoms of positive
    weight alone: each pair as it was drawn."""

    def trim(m):
        keep = m.weights > 0
        return DiscreteMeasure(m.points[keep], m.weights[keep])

    return [(trim(mu), trim(nu)) for mu, nu in unstacked(stacks)]


def alone(energy, stacks, penalty):
    """`stack_deficits` of each pair of two stacks, as a stack of one."""
    return [
        bounds.stack_deficits(energy, *one_pair(mu, nu), penalty)[0]
        for mu, nu in unstacked(stacks)
    ]


class TestBatchedCheckers:
    """`stack_deficits` gives each pair of two stacks, padded or not, the
    deficit it has alone bit for bit, which is `check_semi_convexity` on
    the pair as DiscreteMeasures; the per-pair loop on the pairs as drawn,
    without their zero-weight atoms, agrees within 1e-12 (bit for bit on
    stacks with no padding)."""

    ENERGIES = {
        "quadratic": lambda: QuadraticMeanEnergy(0.5),
        "kernel": lambda: PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05),
        "parametrized": lambda: quadratic_as_parametrized(0.5),
    }

    @staticmethod
    def _semi_reference(energy, pairs, lam):
        return [
            per_pair_deficit(energy, mu, nu, 0.5 * lam * w2_squared(nu, mu)) for mu, nu in pairs
        ]

    @pytest.mark.parametrize("name", list(ENERGIES))
    def test_mixed_atom_counts(self, name):
        energy = self.ENERGIES[name]()
        stacks = verify._random_stacks(np.random.default_rng(30), 80)
        (mu_p, mu_w), (nu_p, nu_w) = stacks
        assert mu_p.shape == nu_p.shape == (80, 6, 1) and mu_w.shape == nu_w.shape == (80, 6)
        for w in (mu_w, nu_w):  # every atom count, padded by atoms at 0 of weight 0
            counts = np.sum(w > 0, axis=1)
            assert set(counts) == set(range(1, 7))
            assert np.all(w[np.arange(6) >= counts[:, None]] == 0.0)
        got = bounds.stack_deficits(energy, *stacks, bounds.w2_penalty(energy.declared_lambda))
        assert got.shape == (80,)
        want = [bounds.check_semi_convexity(energy, mu, nu) for mu, nu in unstacked(stacks)]
        np.testing.assert_array_equal(got, want)
        ref = self._semi_reference(energy, unpadded(stacks), energy.declared_lambda)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", list(ENERGIES))
    def test_blocks_are_the_pairs_alone(self, name, monkeypatch):
        # more pairs than one block holds; any block size gives the same bits
        energy = self.ENERGIES[name]()
        stacks = verify._random_stacks(np.random.default_rng(37), 2 * bounds._BLOCK_PAIRS + 5)
        penalty = bounds.w2_penalty(energy.declared_lambda)
        got = bounds.stack_deficits(energy, *stacks, penalty)
        np.testing.assert_array_equal(got, alone(energy, stacks, penalty))
        for size in (1, 7, 10_000):
            monkeypatch.setattr(bounds, "_BLOCK_PAIRS", size)
            np.testing.assert_array_equal(bounds.stack_deficits(energy, *stacks, penalty), got)

    @pytest.mark.parametrize("name", list(ENERGIES))
    def test_one_pair_alone(self, name):
        energy = self.ENERGIES[name]()
        rng = np.random.default_rng(31)
        mu, nu = random_measure(rng), random_measure(rng)
        penalty = bounds.w2_penalty(energy.declared_lambda)
        (got,) = bounds.stack_deficits(energy, *one_pair(mu, nu), penalty)
        assert got == self._semi_reference(energy, [(mu, nu)], energy.declared_lambda)[0]
        assert bounds.check_semi_convexity(energy, mu, nu) == got

    @pytest.mark.parametrize("name", list(ENERGIES))
    def test_two_dimensional_uniform_pairs(self, name):
        energy = self.ENERGIES[name]()
        stacks = two_dimensional_stacks(np.random.default_rng(32), 40, 3)
        got = bounds.stack_deficits(energy, *stacks, bounds.w2_penalty(energy.declared_lambda))
        pairs = unstacked(stacks)
        ref = self._semi_reference(energy, pairs, energy.declared_lambda)
        np.testing.assert_array_equal(got, ref)
        for (mu, nu), deficit in zip(pairs[:5], got):
            assert bounds.check_semi_convexity(energy, mu, nu) == deficit

    def test_lam_override(self):
        kern = self.ENERGIES["kernel"]()
        stacks = verify._random_stacks(np.random.default_rng(33), 40)
        got = bounds.stack_deficits(kern, *stacks, bounds.w2_penalty(0.7))
        want = [bounds.check_semi_convexity(kern, mu, nu, lam=0.7) for mu, nu in unstacked(stacks)]
        np.testing.assert_array_equal(got, want)
        ref = self._semi_reference(kern, unpadded(stacks), 0.7)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_feature_cost_penalty_is_the_parametrized_cost(self):
        par = self.ENERGIES["parametrized"]()
        stacks = verify._random_stacks(np.random.default_rng(35), 40)
        penalty = bounds.feature_cost_penalty(par)
        got = bounds.stack_deficits(par, *stacks, penalty)
        np.testing.assert_array_equal(got, alone(par, stacks, penalty))
        ref = [
            per_pair_deficit(par, mu, nu, feature_cost(par, mu, nu))
            for mu, nu in unpadded(stacks)
        ]
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        with pytest.raises(TypeError, match="cost functional required"):
            bounds.feature_cost_penalty(self.ENERGIES["kernel"]())

    @pytest.mark.parametrize("name", list(ENERGIES))
    def test_semi_convexity_lambda_is_where_the_deficit_vanishes(self, name):
        energy = self.ENERGIES[name]()
        rng = np.random.default_rng(36)
        for _ in range(20):
            mu, nu = random_measure(rng), random_measure(rng)
            found = bounds.semi_convexity_witness(energy, mu, nu)[1]
            assert found <= energy.declared_lambda + 1e-9
            assert abs(bounds.check_semi_convexity(energy, mu, nu, lam=found)) <= 1e-12

    def test_semi_convexity_lambda_dirac_equality(self):
        # the quadratic energy's modulus is attained on any two distinct Diracs
        _, found = bounds.semi_convexity_witness(
            self.ENERGIES["quadratic"](), empirical([[0.0]]), empirical([[2.0]])
        )
        assert abs(found - 0.5) <= 1e-12

    @pytest.mark.parametrize("name", list(ENERGIES))
    @pytest.mark.parametrize("order", ["same", "permuted"])
    def test_semi_convexity_lambda_of_one_measure_raises(self, name, order):
        mu = DiscreteMeasure([[0.3], [1.2], [-0.4]], [0.2, 0.5, 0.3])
        nu = mu if order == "same" else DiscreteMeasure(mu.points[::-1], mu.weights[::-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="one measure"):
                bounds.semi_convexity_witness(self.ENERGIES[name](), mu, nu)
