"""Theorem constants and structural checkers.

Implements the Poincare constant rho_N - lambda - M/N, the defective
log-Sobolev constants (N_0, lambda_tilde, delta_N, beta_N, rho'_{N,*}),
the tightened constant rho_{N,*}, closed-form inputs for the worked
examples, and the structural checkers. The mixture-convexity checks take
two zero-padded stacks of measures (`stack_deficits`), in blocks of pairs;
only the one-pair checks take `DiscreteMeasure`s. The Hessian-block checks
take one stack of configurations (K, N, d) and make one energy call for it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .energies import MeanFieldEnergy, PairwiseKernelEnergy
from .energies import ParametrizedEnergy, QuadraticMeanEnergy
from .errors import TheoremInvalidError
from .measures import DiscreteMeasure, mixture_atoms, w2_squared_pairs

__all__ = [
    "PoincareInputs",
    "LsiInputs",
    "ConstantsReport",
    "poincare_constant",
    "defective_lsi_constants",
    "tight_lsi_constant",
    "full_report",
    "quadratic_example_constants",
    "kernel_example_constants",
    "parametrized_cost_bound",
    "corollary_report",
    "check_semi_convexity",
    "semi_convexity_lambda",
    "semi_convexity_witness",
    "stack_deficits",
    "w2_penalty",
    "feature_cost_penalty",
    "hessian_block_bound",
    "hessian_block_norm",
    "DEFAULT_T_GRID",
]

#: the mixture weights t of both convexity checkers; includes t = 1/2, the
#: value used in the Hessian lemma
DEFAULT_T_GRID = tuple(np.round(np.arange(0.1, 1.0, 0.1), 10))

#: Pairs per block of `stack_deficits`, which keeps a block's arrays small.
_BLOCK_PAIRS = 64


@dataclass(frozen=True)
class PoincareInputs:
    """Inputs of the Poincare theorem: conditional constant rho_N,
    semi-convexity modulus lambda, second-derivative bound Mmm, system size N.
    Values outside its hypotheses raise TheoremInvalidError (a ValueError)."""

    rho_N: float
    lam: float
    Mmm: float
    N: int

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.rho_N, self.lam, self.Mmm)):
            raise TheoremInvalidError(f"non-finite inputs: {self}")
        if self.rho_N <= 0 or self.lam < 0 or self.Mmm < 0 or self.N < 1:
            raise TheoremInvalidError(f"invalid Poincare inputs: {self}")


@dataclass(frozen=True)
class LsiInputs:
    """Inputs of the defective-LSI theorem; values outside its hypotheses
    raise TheoremInvalidError (a ValueError)."""

    rho: float
    lambda_prime: float
    alpha_N: float
    Mmm: float
    epsilon: float
    N: int
    d: int

    def __post_init__(self):
        vals = (self.rho, self.lambda_prime, self.alpha_N, self.Mmm, self.epsilon)
        if not all(math.isfinite(v) for v in vals):  # e.g. alpha_N for a tiny epsilon
            raise TheoremInvalidError(f"non-finite inputs: {self}")
        if self.rho <= 0 or self.lambda_prime < 0 or self.alpha_N < 0 or self.Mmm < 0:
            raise TheoremInvalidError(f"invalid LSI inputs: {self}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie strictly inside (0, 1)")
        if self.N < 1 or self.d < 1:
            raise ValueError("N and d must be positive")


@dataclass
class ConstantsReport:
    """All theorem constants for one parameter point, with validity flags."""

    poincare_bound: float = math.nan
    N0: float = math.nan
    lambda_tilde: float = math.nan
    beta_N: float = math.nan
    delta_N: float = math.nan
    rho_prime_star: float = math.nan
    rho_star: float | None = None
    flags: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def poincare_constant(inputs: PoincareInputs) -> float:
    """rho_N - lambda - Mmm/N; may be nonpositive (caller checks the flag)."""
    return inputs.rho_N - inputs.lam - inputs.Mmm / inputs.N


def defective_lsi_constants(inputs: LsiInputs) -> ConstantsReport:
    """Defective-LSI constants (N0, lambda_tilde, delta_N, beta_N, rho'_{N,*}).

    When 4 lambda' >= rho or N <= N0 only the computable pieces and flags
    are filled in; callers inspect flags["defective_valid"].
    """
    rho, lp, M, eps = inputs.rho, inputs.lambda_prime, inputs.Mmm, inputs.epsilon
    aN, N, d = inputs.alpha_N, inputs.N, inputs.d
    report = ConstantsReport()
    # shared bracket 4 + 3M(1/eps - 1) / (2 rho (1 - eps))
    bracket = 4.0 + 3.0 * M * (1.0 / eps - 1.0) / (2.0 * rho * (1.0 - eps))
    gap_cond = 4.0 * lp < rho
    report.N0 = 4.0 * M / (rho - 4.0 * lp) * bracket if gap_cond else math.inf
    report.lambda_tilde = lp + M / N * bracket
    report.delta_N = (
        4.0
        * rho
        * (1.0 - eps)
        * (
            2.0 * aN
            + M * d / rho * (2.5 + 3.0 * M * (1.0 / eps - 1.0) / (4.0 * rho * (1.0 - eps)))
        )
    )
    ratio = 2.0 * report.lambda_tilde / rho
    report.beta_N = ratio / (1.0 - ratio) if ratio != 1.0 else math.inf
    report.rho_prime_star = 2.0 * (1.0 - eps) * (1.0 - report.beta_N) * rho
    beta_ok = 0.0 <= report.beta_N < 1.0
    report.flags = {
        "gap_condition": gap_cond,
        "N_above_N0": N > report.N0,
        "beta_in_range": beta_ok,
        "defective_valid": gap_cond and N > report.N0 and beta_ok,
    }
    return report


def tight_lsi_constant(report: ConstantsReport, poincare_bound: float) -> float:
    """Tighten the defective LSI with a positive Poincare constant:
    rho_{N,*} = rho'_{N,*} / (1 + delta_N / (4 poincare_bound))."""
    if poincare_bound <= 0 or not report.flags.get("defective_valid", False):
        raise TheoremInvalidError("corollary-invalid")
    return report.rho_prime_star / (1.0 + report.delta_N / (4.0 * poincare_bound))


def full_report(lsi: LsiInputs, poincare: PoincareInputs) -> ConstantsReport:
    """Defective constants + Poincare bound + tightened LSI, with all flags."""
    report = defective_lsi_constants(lsi)
    report.poincare_bound = poincare_constant(poincare)
    report.flags["poincare_positive"] = report.poincare_bound > 0
    report.flags["corollary_valid"] = (
        report.flags["defective_valid"] and report.flags["poincare_positive"]
    )
    if report.flags["corollary_valid"]:
        report.rho_star = tight_lsi_constant(report, report.poincare_bound)
    return report


@dataclass(frozen=True)
class QuadraticExampleConstants:
    """Closed-form constants of the quadratic-mean energy at (a, N)."""

    inputs: PoincareInputs
    theorem_bound: float
    exact_poincare: float  # optimal constant 1 - a of the Gaussian target
    gap: float  # exact - bound = 2a/N


def quadratic_example_constants(a: float, N: int) -> QuadraticExampleConstants:
    """rho_N, lambda and Mmm as QuadraticMeanEnergy(a) declares them (it
    checks a > 0, and a < 1 for a Gibbs measure); exact optimal constant 1 - a."""
    quad = QuadraticMeanEnergy(a)
    if N <= a < 1.0:  # a >= 1 is no Gibbs measure, which declared_rho_N raises
        raise ValueError("need N > a")
    inputs = PoincareInputs(quad.declared_rho_N(N), quad.declared_lambda, quad.declared_Mmm, N)
    # algebraically equal to poincare_constant(inputs); this grouping keeps
    # the round-off of the two a/N terms from polluting the closed form
    bound = (1.0 - a) - 2.0 * a / N
    return QuadraticExampleConstants(
        inputs=inputs,
        theorem_bound=bound,
        exact_poincare=1.0 - a,
        gap=2.0 * a / N,
    )


@dataclass(frozen=True)
class KernelExampleConstants:
    """Closed-form skeleton of the Gaussian-kernel pairwise example."""

    Mmm: float
    rho: float  # proximal-Gibbs LSI constant eta exp(-v1_sup - L)
    rho_N: float  # conditional Poincare constant, same closed form
    condition_holds: bool  # uniform-LSI condition 4 alpha < rho
    beta_max: float  # inverse-temperature threshold; inf when alpha = 0


def kernel_example_constants(
    L: float, alpha: float, eta: float, v1_sup: float = 0.0
) -> KernelExampleConstants:
    """Closed forms of the kernel example; PairwiseKernelEnergy checks the
    parameters and declares Mmm, rho and rho_N."""
    energy = PairwiseKernelEnergy(eta=eta, L=L, alpha=alpha, v1_sup=v1_sup)
    rho = energy.declared_rho
    if alpha == 0.0:
        beta_max = math.inf
    elif 4.0 * alpha >= eta:
        beta_max = 0.0  # no admissible temperature
    elif v1_sup + L == 0.0:
        # the admissibility condition is temperature-free in this case
        beta_max = math.inf
    else:
        beta_max = (math.log(eta) - math.log(4.0 * alpha)) / (v1_sup + L)
    return KernelExampleConstants(
        Mmm=energy.declared_Mmm,
        rho=rho,
        rho_N=rho,
        condition_holds=4.0 * alpha < rho,
        beta_max=beta_max,
    )


def parametrized_cost_bound(energy: MeanFieldEnergy, var_phi: float, epsilon: float) -> tuple:
    """(lambda', alpha_N) from the energy's declared cost (alpha_r, Lip(phi)):
    lambda' = alpha_r (1 + eps) Lip(phi)^2, alpha_N = alpha_r (1 + 1/eps) Var(phi)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    if var_phi < 0:
        raise ValueError("variance must be nonnegative")
    alpha_r, phi_lip = energy.declared_cost
    return alpha_r * (1.0 + epsilon) * phi_lip**2, alpha_r * (1.0 + 1.0 / epsilon) * var_phi


def _example(energy: MeanFieldEnergy, N: int) -> dict:
    """A worked example's closed forms, for information: no report number reads them."""
    if isinstance(energy, QuadraticMeanEnergy):
        q = quadratic_example_constants(energy.a, N)
        return {"exact_poincare": q.exact_poincare, "gap_to_exact": q.gap}
    if isinstance(energy, PairwiseKernelEnergy):
        k = kernel_example_constants(energy.L, energy.alpha, energy.eta, energy.v1_sup)
        return {key: getattr(k, key) for key in ("rho", "Mmm", "beta_max", "condition_holds")}
    return {}


def corollary_report(
    energy: MeanFieldEnergy, N: int, d: int, var_phi: float, epsilon: float
) -> tuple[ConstantsReport, dict]:
    """Full report of any energy from its declarations (rho_N(N), rho,
    lambda, Mmm and the cost (alpha_r, Lip(phi))), given Var(phi) of the
    stationary mean-field measure, and the example block of a worked example."""
    rho_N, Mmm = energy.declared_rho_N(N), energy.declared_Mmm
    lam_p, alpha_N = parametrized_cost_bound(energy, var_phi, epsilon)
    lsi = LsiInputs(energy.declared_rho, lam_p, alpha_N, Mmm, epsilon, N, d)
    report = full_report(lsi, PoincareInputs(rho_N, energy.declared_lambda, Mmm, N))
    return report, {**_example(energy, N), "var_phi": var_phi}


def _mixture_gaps(energy, mu, nu) -> np.ndarray:
    """F(t mu + (1-t) nu) - t F(mu) - (1-t) F(nu) at each t of `DEFAULT_T_GRID`
    for each pair of the stacks mu and nu (P, K): one batched value pass for
    all the mixtures and one for each endpoint stack."""
    t = np.asarray(DEFAULT_T_GRID)
    lhs = energy._eval_batch(*mixture_atoms(mu, nu, t))
    f_mu = energy._eval_batch(*mu)[:, None]
    f_nu = energy._eval_batch(*nu)[:, None]
    return lhs - t * f_mu - (1.0 - t) * f_nu


def stack_deficits(energy: MeanFieldEnergy, mu, nu, penalty) -> np.ndarray:
    """Worst mixture-convexity deficit over `DEFAULT_T_GRID` of each pair
    (mu_i, nu_i) of two stacks of P measures, their atoms (points (P, n, d),
    weights (P, n)) checked by the caller (`measures.check_atoms`), a measure
    of fewer atoms padded by atoms of weight zero. penalty(mu, nu) is the
    pairs' penalty (P,), `w2_penalty` or `feature_cost_penalty`. One
    `_mixture_gaps` and one penalty pass per block of at most _BLOCK_PAIRS
    pairs; each pair's deficit is the one it has alone.

    Nonpositive (up to 1e-9) means the convexity holds on that pair.
    """
    t = np.asarray(DEFAULT_T_GRID)
    worst = np.empty(len(mu[1]))
    for start in range(0, len(worst), _BLOCK_PAIRS):
        block = slice(start, start + _BLOCK_PAIRS)
        mu_b, nu_b = (mu[0][block], mu[1][block]), (nu[0][block], nu[1][block])
        gaps = _mixture_gaps(energy, mu_b, nu_b)
        worst[block] = np.max(gaps - t * (1.0 - t) * penalty(mu_b, nu_b)[:, None], axis=1)
    return worst


def w2_penalty(lam: float):
    """The semi-convexity penalty lambda/2 W2^2(mu, nu) of the pairs of two
    stacks, for `stack_deficits`."""
    return lambda mu, nu: 0.5 * lam * w2_squared_pairs(nu, mu)


def feature_cost_penalty(energy: ParametrizedEnergy):
    """The parametrized cost alpha_r |int phi d(nu - mu)|^2 of the pairs of
    two stacks, from the batched feature means, for `stack_deficits`."""
    if not isinstance(energy, ParametrizedEnergy):
        raise TypeError("cost functional required for non-parametrized energies")
    return lambda mu, nu: energy._cost(*mu, *nu)


def check_semi_convexity(
    energy: MeanFieldEnergy,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    lam: float | None = None,
) -> float:
    """Worst mixture-convexity deficit over `DEFAULT_T_GRID` of the pair
    (mu, nu) against the lambda/2 W2^2 penalty, lambda the declared one
    unless given: `stack_deficits` on the pair as a stack of one.

    Nonpositive (up to 1e-9) means the modulus holds on the pair.
    """
    if lam is None:
        lam = energy.declared_lambda
    mu, nu = (mu.points[None], mu.weights[None]), (nu.points[None], nu.weights[None])
    return float(stack_deficits(energy, mu, nu, w2_penalty(lam))[0])


def semi_convexity_lambda(
    energy: MeanFieldEnergy, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> float:
    """The least lambda at which the pair (mu, nu) of distinct measures
    passes the semi-convexity check: the max over t of `DEFAULT_T_GRID` of
    2 (F(t mu + (1-t) nu) - t F(mu) - (1-t) F(nu)) / (t (1-t) W2^2(mu, nu)).
    A declared lambda below it fails on this pair. ValueError when mu and
    nu are one measure (W2 = 0), where no lambda is singled out."""
    return semi_convexity_witness(energy, mu, nu)[1]


def semi_convexity_witness(
    energy: MeanFieldEnergy, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> tuple[float, float]:
    """(`check_semi_convexity`, `semi_convexity_lambda`) of the pair (mu, nu)
    of distinct measures, bit for bit, from one `_mixture_gaps` and one
    W2^2: the deficit against the declared lambda, and the least lambda at
    which the pair passes."""
    mu, nu = (mu.points[None], mu.weights[None]), (nu.points[None], nu.weights[None])
    w2 = w2_squared_pairs(nu, mu)
    if w2[0] == 0.0:
        raise ValueError("mu and nu are one measure (W2 = 0): no least lambda")
    t = np.asarray(DEFAULT_T_GRID)
    gaps = _mixture_gaps(energy, mu, nu)
    penalty = 0.5 * energy.declared_lambda * w2
    deficit = np.max(gaps - t * (1.0 - t) * penalty[:, None], axis=1)[0]
    found = np.max(2.0 * gaps / (t * (1.0 - t) * w2[:, None]))
    return float(deficit), float(found)


def _stack(configs) -> np.ndarray:
    """configs as a float stack of configurations (K, N, d), K >= 1."""
    expected = "expected a stack (K, N, d) of configurations, K >= 1"
    try:
        x = np.asarray(configs, dtype=float)
    except ValueError as err:  # configurations of mixed sizes, say
        raise ValueError(f"{expected}: {err}") from None
    if x.ndim != 3 or not x.size:
        raise ValueError(f"configurations of shape {x.shape}, {expected}")
    return x


def hessian_block_bound(energy: MeanFieldEnergy, configs) -> float:
    """min over a stack of configurations (K, N, d) of lambda_min(K_x)/N for
    the D_m^2 F block matrix K_x of each: one `_hess_mm_matrix` call and
    one batched eigvalsh. The Hessian lemma asserts this is >= -declared_lambda.
    """
    x = _stack(configs)
    N = x.shape[1]
    eig = np.linalg.eigvalsh(energy._hess_mm_matrix(x, np.full(N, 1.0 / N)))
    return float(np.min(eig[:, 0])) / N


def hessian_block_norm(energy: MeanFieldEnergy, configs) -> float:
    """max over a stack of configurations (K, N, d) and atom pairs (i, j) of
    the operator norm of the block D_m^2 F(mu_x, x_i, x_j), which the
    declared Mmm bounds: one `_hess_mm` call."""
    x = _stack(configs)
    N = x.shape[1]
    blocks = energy._hess_mm(x, np.full(N, 1.0 / N), x, x)
    # on the line a block's norm is its modulus, without an SVD per block
    if x.shape[2] > 1:
        blocks = np.linalg.norm(blocks, ord=2, axis=(-2, -1))
    return float(np.max(np.abs(blocks)))
